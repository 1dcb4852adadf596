package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"mse/internal/synth"
)

// decodeBatchReference is the json.Unmarshal decoder decodeBatch
// replaced, kept as its oracle.
func decodeBatchReference(body []byte) ([]batchItem, error) {
	trimmed := bytes.TrimLeft(body, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var items []batchItem
		err := json.Unmarshal(trimmed, &items)
		return items, err
	}
	var wrapped struct {
		Items []batchItem `json:"items"`
	}
	err := json.Unmarshal(body, &wrapped)
	return wrapped.Items, err
}

// checkDecodeBatch decodes a copy of body both ways: the decoders must
// agree on accepting it and, when they do, on the items, and the items
// must survive the read buffer being overwritten.
func checkDecodeBatch(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr := decodeBatchReference(body)
	buf := append([]byte(nil), body...)
	got, err := decodeBatch(buf)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("body %.200q: decodeBatch err = %v, json.Unmarshal err = %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %.200q:\ngot  %#v\nwant %#v", body, got, want)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %.200q: items changed when the read buffer was overwritten: %#v", body, got)
	}
}

// TestDecodeBatchMatchesReference pins the one-pass decoder to
// json.Unmarshal on the corners of its contract.
func TestDecodeBatchMatchesReference(t *testing.T) {
	nest := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	bodies := []string{
		// Both forms, whitespace, empty and null shapes.
		`[{"engine":"demo","q":"a+b","html":"<p>x</p>"}]`,
		`{"items":[{"engine":"demo","q":"a+b","html":"<p>x</p>"},{"html":"y"}]}`,
		" \t\r\n{ \"items\" : [ { \"html\" : \"x\" } , null ] } \n",
		``, ` `, `[]`, `{}`, `null`, `{"items":null}`, `{"items":[]}`, ` [ ] `,
		// Keys: case folding, U+017F, escapes, near misses.
		`[{"HTML":"a","Q":"b","ENGINE":"c"}]`,
		`[{"hTmL":"a","Engine":"c"}]`,
		`{"ITEMS":[{"html":"a"}]}`,
		`{"itemſ":[{"html":"a"}]}`,
		`{"item\u017f":[{"html":"a"}]}`,
		`{"\u0069tems":[{"\u0068tml":"a","\u0051":"q"}]}`,
		`[{"ht\/ml":"a","htm":"b","htmll":"c","":"d"}]`,
		"[{\"ht\xffml\":\"a\"}]",
		"{\"\xffitems\":[]}",
		`[{"engine\u0000":"a"}]`,
		// Duplicates: the last one wins, and a second "items" array
		// decodes into the first one's elements.
		`[{"html":"a","html":"b","HTML":"c"}]`,
		`{"items":[{"q":"a"},{"q":"b"}],"items":[{"html":"c"}]}`,
		`{"items":[{"q":"a"},{"q":"b"},{"q":"c"}],"items":[{}],"items":[{},{},null]}`,
		`{"items":[{"q":"a"}],"items":null}`,
		`{"items":[{"q":"a"}],"items":[]}`,
		`{"items":[{"q":"a"}],"items":[],"items":[{}]}`,
		`{"items":[{"q":"a"}],"items":[null]}`,
		`{"items":[{"q":"a"}],"Items":[{"engine":"e"}],"ITEMS":[{"html":"h"},{"html":"i"}]}`,
		// null items and fields.
		`[null]`, `[null,{"html":"x"},null]`,
		`[{"html":null}]`, `[{"html":"a","html":null}]`, `[{"engine":null,"q":null}]`,
		// Wrong types.
		`[{"html":1}]`, `[{"html":-0.5e10}]`, `[{"html":true}]`, `[{"q":false}]`,
		`[{"html":{}}]`, `[{"html":[]}]`, `[{"engine":{"a":1}}]`,
		`[1]`, `["x"]`, `[[]]`, `[true]`, `[{}, 2]`,
		`{"items":{}}`, `{"items":"x"}`, `{"items":1}`, `{"items":true}`,
		`"x"`, `1`, `-1`, `true`, `false`, `{"items":[1]}`,
		// Unknown keys: skipped but validated, at any depth.
		`[{"meta":{"a":[1,2,{"b":null}],"c":"\u00e9"},"html":"x"}]`,
		`{"other":[[[]]],"items":[{"html":"y"}],"more":{"x":{}}}`,
		`[{"n":-0,"m":0.0e-0,"k":123456789012345678901234567890,"e":1E+5,"f":2e-3}]`,
		`[{"meta":[1,]}]`, `[{"meta":{"a" 1}}]`, `[{"meta":{"a":1,}}]`, `[{"meta":{,}}]`,
		`[{"meta":01}]`, `[{"meta":1.}]`, `[{"meta":-}]`, `[{"meta":1e}]`, `[{"meta":.5}]`,
		`[{"meta":+1}]`, `[{"meta":tru}]`, `[{"meta":nul}]`, `[{"meta":falsey}]`,
		`[{"meta":"\x"}]`, `[{"meta":[}]`, `[{"meta":{]}]`, `[{"meta":[1 2]}]`, `[{"meta":{"a":1 "b":2}}]`,
		`{"x":1 "items":[]}`, `{"items":[] "x":1}`, `[{"html":"a" "q":"b"}]`, `[{"html":"a"},]`, `[,]`,
		`{"items":[{"html":"a"}],}`, `{,"items":[]}`, `{"items"}`, `{"items":}`, `{items:[]}`,
		// Trailing bytes and a leading BOM.
		`[] x`, `[]]`, `{}}`, `[{"html":"a"}] [1]`, "[]  \n\t", `null x`, `nullx`, `{}{}`,
		"\xef\xbb\xbf[]", "\xef\xbb\xbf{\"items\":[]}",
		// Strings: escapes, invalid UTF-8, surrogates, control bytes.
		`[{"html":"\b\f\n\r\t\"\\\/ \u003c\u003E\u0026 \uABCD \uabcd \u0000"}]`,
		`[{"html":"\a"}]`, `[{"html":"\u00G0"}]`, `[{"html":"\u12"}]`, `[{"html":"\'"}]`,
		"[{\"html\":\"\xff\xfe\"}]", "[{\"html\":\"a\xc3\"}]", "[{\"html\":\"\xed\xa0\x80\"}]",
		"[{\"html\":\"\xf0\x9f\x98\x80 \xe2\x82\xac \xc3\"}]", "[{\"html\":\"ok \xf4\x90\x80\x80\"}]",
		`[{"html":"\ud800"}]`, `[{"html":"\udc00"}]`, `[{"html":"\ud800\u0041"}]`,
		`[{"html":"\ud83d\ude00"}]`, `[{"html":"\ud83d\ud83d\ude00"}]`, `[{"html":"\ud800x"}]`,
		`[{"html":"\ude00\ud83d"}]`, `[{"html":"\ud800\\"}]`, `[{"html":"\ud800\u"}]`, `[{"html":"\ud800\uzzzz"}]`,
		"[{\"html\":\"a\x01b\"}]", "[{\"html\":\"a\tb\"}]", "[{\"html\":\"a\x7fb\"}]", "[{\"html\":\"a\nb\"}]",
		// Truncated bodies.
		`[`, `{`, `{"items"`, `{"items":`, `{"items":[`, `[{"html":"abc`, `[{"html":"abc\`,
		`[{"html":"\u12`, `[{"html":"a"}`, `[{"html":"a"`, `[{"html"`, `[{"meta":[[`, `[{"meta":{"a":`, `t`, `n`, `-`,
		// Nesting: encoding/json allows 10000 levels and rejects 10001.
		`[{"x":` + nest(9998) + `}]`,
		`[{"x":` + nest(9999) + `}]`,
		`{"x":` + nest(9999) + `}`,
		`{"x":` + nest(10000) + `}`,
		`{"items":[{"x":` + nest(9997) + `}]}`,
		`{"items":[{"x":` + nest(9998) + `}]}`,
		`[{"x":` + strings.Repeat(`{"a":`, 9998) + `1` + strings.Repeat(`}`, 9998) + `}]`,
		`[{"x":` + strings.Repeat(`{"a":`, 9999) + `1` + strings.Repeat(`}`, 9999) + `}]`,
		nest(10001),
		`[{"x":` + strings.Repeat("[", 1<<20),
	}
	for _, b := range bodies {
		checkDecodeBatch(t, []byte(b))
	}
}

// FuzzDecodeBatch holds the decoder to its json.Unmarshal oracle on
// arbitrary bodies: the same accept/reject decision, equal items, no
// aliasing of the read buffer, and accepted items that survive a
// json.Marshal round trip in both forms.  Seeds live in
// testdata/fuzz/FuzzDecodeBatch.
//
//	go test -run '^$' -fuzz '^FuzzDecodeBatch$' -fuzztime 10s ./internal/serve
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeBatch(t, body)
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

// TestReadBodyBoundsPooledBuffers: a Content-Length claim pre-sizes the
// read buffer only up to maxPooledBody, an honest one avoids regrowth,
// and putBody keeps oversized buffers out of the pool.
func TestReadBodyBoundsPooledBuffers(t *testing.T) {
	req := httptest.NewRequest("POST", "/extract/batch", strings.NewReader("[]"))
	req.ContentLength = MaxBatchBytes
	buf, err := readBody(req, MaxBatchBytes)
	if err != nil || buf.String() != "[]" {
		t.Fatalf("read %q, %v", buf.String(), err)
	}
	// A pooled buffer holds at most maxPooledBody, and Grow at most
	// doubles it, so a claim-sized allocation would show here.
	if buf.Cap() > 2*maxPooledBody+bytes.MinRead {
		t.Fatalf("a 64 MiB Content-Length with a 2-byte body grew the buffer to %d bytes", buf.Cap())
	}
	putBody(buf)

	page := strings.Repeat("x", 100<<10)
	req = httptest.NewRequest("POST", "/extract", strings.NewReader(page))
	buf, err = readBody(req, MaxPageBytes)
	if err != nil || buf.String() != page {
		t.Fatalf("read %d bytes, %v; want the %d-byte page", buf.Len(), err, len(page))
	}
	putBody(buf)

	for i := 0; i < 100; i++ {
		big := new(bytes.Buffer)
		big.Grow(2 * maxPooledBody)
		putBody(big)
		if got := bodyPool.Get().(*bytes.Buffer); got.Cap() > maxPooledBody {
			t.Fatalf("bodyPool handed back a %d-byte buffer; putBody must drop buffers over %d", got.Cap(), maxPooledBody)
		}
	}
}

// BenchmarkDecodeBatch decodes a 3-page {"items":[...]} body written by
// json.Marshal (so every < and > is a 6-byte \u escape), one pass against
// the json.Unmarshal reference.
func BenchmarkDecodeBatch(b *testing.B) {
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	items := make([]batchItem, 3)
	for i := range items {
		gp := bed[i].Page(5)
		items[i] = batchItem{Engine: fmt.Sprintf("e%03d", i), Query: strings.Join(gp.Query, " "), HTML: gp.HTML}
	}
	body, err := json.Marshal(struct {
		Items []batchItem `json:"items"`
	}{items})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		decode func([]byte) ([]batchItem, error)
	}{{"onepass", decodeBatch}, {"reference", decodeBatchReference}} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
