package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"mse/internal/annotate"
	"mse/internal/core"
	"mse/internal/excache"
	"mse/internal/synth"
)

// The /extract wire form as structs, for the MarshalIndent reference.
type unitJSON struct {
	Type string `json:"type"`
	Text string `json:"text"`
}

type recordJSON struct {
	Lines []string   `json:"lines"`
	Links []string   `json:"links,omitempty"`
	Units []unitJSON `json:"units,omitempty"`
}

type sectionJSON struct {
	Heading string       `json:"heading,omitempty"`
	Records []recordJSON `json:"records"`
}

type extractResponse struct {
	Engine   string        `json:"engine"`
	Sections []sectionJSON `json:"sections"`
}

// batchResponse is the wire form of POST /extract/batch.
type batchResponse struct {
	Results []batchItemResult `json:"results"`
}

// buildEntryReference is the encoding oracle: the wire structs run
// through json.MarshalIndent, plus the trailing newline /extract writes.
func buildEntryReference(name string, sections []*core.Section) (*excache.Entry, error) {
	resp := extractResponse{Engine: name, Sections: make([]sectionJSON, 0, len(sections))}
	records := 0
	for _, s := range sections {
		sj := sectionJSON{Heading: s.Heading, Records: make([]recordJSON, 0, len(s.Records))}
		for _, rec := range s.Records {
			rj := recordJSON{Lines: rec.Lines, Links: rec.Links}
			for _, u := range annotate.Record(rec) {
				rj.Units = append(rj.Units, unitJSON{Type: u.Type.String(), Text: u.Text})
			}
			sj.Records = append(sj.Records, rj)
		}
		records += len(s.Records)
		resp.Sections = append(resp.Sections, sj)
	}
	body, err := json.MarshalIndent(resp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("serializing response: %w", err)
	}
	body = append(body, '\n')
	return &excache.Entry{Body: body, Sections: len(sections), Records: records}, nil
}

// checkEncoding fails t unless buildEntry matches the reference byte for
// byte, counts included, and returns an exact-size body.
func checkEncoding(t *testing.T, what, name string, sections []*core.Section) {
	t.Helper()
	want, err := buildEntryReference(name, sections)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	got := buildEntry(name, sections)
	if !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("%s: body differs from MarshalIndent\nref: %q\ngot: %q", what, truncate(want.Body), truncate(got.Body))
	}
	if got.Sections != want.Sections || got.Records != want.Records {
		t.Fatalf("%s: counts %d/%d, reference %d/%d", what, got.Sections, got.Records, want.Sections, want.Records)
	}
	if cap(got.Body) != len(got.Body) {
		t.Fatalf("%s: body cap %d != len %d", what, cap(got.Body), len(got.Body))
	}
}

func truncate(b []byte) []byte {
	if len(b) > 400 {
		return b[:400]
	}
	return b
}

// TestEncodeEntryMatchesReference pins the one-pass encoder to the
// MarshalIndent oracle on real extractions — every testbed engine's fresh
// and drifted pages — and on hand-written escape and nil/empty shapes.
// The cache differential test cannot catch an encoder bug: both of its
// registries encode with buildEntry.
func TestEncodeEntryMatchesReference(t *testing.T) {
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	if testing.Short() {
		bed = bed[:12]
	}
	opts := core.DefaultOptions()
	reg := NewRegistry(opts)
	reg.SetCache(64 << 20)
	ctx := context.Background()
	pages := 0
	for ei, e := range bed {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ew, err := core.BuildWrapper(samples, opts)
		if err != nil {
			t.Fatalf("engine %d: %v", ei, err)
		}
		data, err := json.Marshal(ew)
		if err != nil {
			t.Fatalf("engine %d: marshal wrapper: %v", ei, err)
		}
		name := fmt.Sprintf("e%03d", ei)
		if err := reg.Add(name, data); err != nil {
			t.Fatalf("engine %d: %v", ei, err)
		}
		drifted := e.Drifted()
		for q := 5; q < 8; q++ {
			for _, gp := range []*synth.GenPage{e.Page(q), drifted.Page(q)} {
				what := fmt.Sprintf("engine %d page %d", ei, q)
				sections, lease := ew.ExtractLeased(gp.HTML, gp.Query)
				checkEncoding(t, what, name, sections)
				want, _ := buildEntryReference(name, sections)
				lease.Release()
				// The served (cache-filling) body is the exact-size one too.
				body, _, err := reg.ExtractCached(ctx, name, gp.HTML, gp.Query)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !bytes.Equal(body, want.Body) || cap(body) != len(body) {
					t.Fatalf("%s: served body differs from the reference or carries spare capacity (len %d, cap %d)",
						what, len(body), cap(body))
				}
				pages++
			}
		}
	}

	escapes := []string{
		`<a href="x?a=1&b=2">tag</a>`,
		"line\u2028sep\u2029para",
		"bad \xff\xfe utf8 \xe2\x82 cut",
		"ctrl \x00\x01\x1f\x7f \b\f\n\r\t end",
		`quote " and backslash \ and slash /`,
		"€12.50 £3 中文 結果 \ufffd literal",
		"1. Ranked <Title> (10/21/2003) & more",
		"www.example.com/a&b",
		"Price: $34.99",
		"   ",
	}
	edge := map[string][]*core.Section{
		"nil sections":            nil,
		"empty sections":          {},
		"section without records": {{Heading: "h"}, {Records: []core.Record{}}},
		"nil, empty and blank lines": {{Records: []core.Record{
			{},
			{Lines: []string{}, Links: []string{}},
			{Lines: []string{"", "  "}, Links: []string{"/a"}},
		}}},
		"escapes": {{Heading: strings.Join(escapes, " | "), Records: []core.Record{
			{Lines: escapes, Links: escapes},
			{Lines: escapes[1:], Links: nil},
		}}},
	}
	for what, sections := range edge {
		checkEncoding(t, what, "engine <&> \u2028 \xff", sections)
	}
	t.Logf("%d testbed pages and %d edge cases byte-identical to MarshalIndent", pages, len(edge))
}

// fuzzSections builds a response shape from fuzz input: shape's bits pick
// nil or empty line and link slices, extra records, an empty record list
// and an extra section.  Lines and links are split on 0x1f.
func fuzzSections(heading, lines, links string, shape byte) []*core.Section {
	if shape&1 != 0 {
		return nil
	}
	split := func(s string, nilBit, emptyBit byte) []string {
		switch {
		case shape&nilBit != 0:
			return nil
		case shape&emptyBit != 0:
			return []string{}
		}
		return strings.Split(s, "\x1f")
	}
	sec := &core.Section{Heading: heading, Records: []core.Record{
		{Lines: split(lines, 2, 4), Links: split(links, 8, 16)},
	}}
	if shape&32 != 0 {
		sec.Records = append(sec.Records, core.Record{Lines: strings.Fields(lines), Links: []string{heading}})
	}
	if shape&64 != 0 {
		sec.Records = sec.Records[:0]
	}
	sections := []*core.Section{sec}
	if shape&128 != 0 {
		sections = append(sections, &core.Section{Records: []core.Record{{Lines: []string{heading, links}}}})
	}
	return sections
}

// FuzzEncodeEntry byte-compares the one-pass encoder with the
// MarshalIndent oracle on arbitrary engine names, headings, lines and
// links.  Seeds live in testdata/fuzz/FuzzEncodeEntry.
//
//	go test -run '^$' -fuzz '^FuzzEncodeEntry$' -fuzztime 10s ./internal/serve
func FuzzEncodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, engine, heading, lines, links string, shape byte) {
		checkEncoding(t, "fuzz", engine, fuzzSections(heading, lines, links, shape))
	})
}

// FuzzDecodeBatch feeds arbitrary bodies to the batch decoder: it must
// return items or an error, never panic, and whatever it decodes must
// survive a json.Marshal round trip in both accepted forms.  Seeds live in
// testdata/fuzz/FuzzDecodeBatch.
//
//	go test -run '^$' -fuzz '^FuzzDecodeBatch$' -fuzztime 10s ./internal/serve
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		items, err := decodeBatch(body)
		if err != nil {
			return
		}
		bare, err := json.Marshal(items)
		if err != nil {
			t.Fatalf("marshal bare array: %v", err)
		}
		wrapped, err := json.Marshal(map[string]any{"items": items})
		if err != nil {
			t.Fatalf("marshal wrapped form: %v", err)
		}
		for _, enc := range [][]byte{bare, wrapped} {
			got, err := decodeBatch(enc)
			if err != nil {
				t.Fatalf("re-decoding %q: %v", enc, err)
			}
			if !reflect.DeepEqual(got, items) {
				t.Fatalf("round trip through %q\ngot  %#v\nwant %#v", enc, got, items)
			}
		}
	})
}

// TestBatchItemMatchesMarshal pins the hand-assembled batch envelope to
// encoding/json: each item's bytes must equal json.Marshal of the item
// once its spliced, indented result body is compacted.
func TestBatchItemMatchesMarshal(t *testing.T) {
	body := buildEntry("demo", []*core.Section{{Heading: "Web <results>", Records: []core.Record{
		{Lines: []string{"1. A title & more", "a snippet \u2028 here"}, Links: []string{"/r?a=1&b=2"}},
	}}}).Body
	zero, two := 0, 2
	msgs := []string{
		`unknown engine "no<such>&engine"`,
		"page exceeds 8388608 bytes",
		"engine \"x\" is owned by shard 2/3 (this is shard 0) — déjà vu 中文 \xff",
		"server at capacity, retry later",
		"request canceled while queued\n\ttab",
	}
	items := []batchItemResult{
		{Engine: "demo", Status: http.StatusOK, Result: body},
		{Engine: "demo", Status: http.StatusOK, Cached: true, Result: body},
		{Status: http.StatusBadRequest, Error: "missing engine (set ?engine= or the item's engine)"},
		{Engine: "no<such>&engine", Status: http.StatusNotFound, Error: msgs[0]},
		{Engine: "demo", Status: http.StatusRequestEntityTooLarge, Error: msgs[1]},
		{Engine: "x", Status: http.StatusMisdirectedRequest, OwnerShard: &zero, Error: msgs[2]},
		{Engine: "x", Status: http.StatusMisdirectedRequest, OwnerShard: &two, Error: msgs[2]},
		{Engine: "démo", Status: http.StatusTooManyRequests, Error: msgs[3]},
		{Engine: "demo", Status: statusClientClosedRequest, Error: msgs[4]},
	}
	for i := range items {
		want, err := json.Marshal(&items[i])
		if err != nil {
			t.Fatal(err)
		}
		got := appendBatchItem(nil, &items[i])
		if len(items[i].Result) > 0 {
			// The body goes in verbatim, indentation and all.
			if !bytes.Contains(got, bytes.TrimRight(items[i].Result, "\n")) {
				t.Fatalf("item %d: result body not spliced verbatim: %s", i, got)
			}
			var c bytes.Buffer
			if err := json.Compact(&c, got); err != nil {
				t.Fatalf("item %d: invalid JSON %s: %v", i, got, err)
			}
			got = c.Bytes()
		}
		if !bytes.Equal(got, want) {
			t.Errorf("item %d:\ngot  %s\nwant %s", i, got, want)
		}
	}
}
