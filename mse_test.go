package mse

import (
	"errors"
	"strings"
	"testing"

	"mse/internal/core"
	"mse/internal/synth"
	"mse/internal/wrapper"
)

func trainOn(t *testing.T, e *synth.Engine, n int) *Wrapper {
	t.Helper()
	var samples []SamplePage
	for q := 0; q < n; q++ {
		gp := e.Page(q)
		samples = append(samples, SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	w, err := Train(samples, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestTrainAndExtract(t *testing.T) {
	e := synth.NewEngine(99, 1, true)
	w := trainOn(t, e, 5)
	gp := e.Page(7)
	secs := w.Extract(gp.HTML, gp.Query)
	if len(secs) == 0 {
		t.Fatalf("no sections extracted")
	}
	// Every section keeps the section-record relationship: records in
	// page order, line ranges nested in the section's.
	for _, s := range secs {
		prevEnd := s.Start
		for _, r := range s.Records {
			if r.Start < prevEnd {
				t.Fatalf("records out of order in %q", s.Heading)
			}
			if r.Start < s.Start || r.End > s.End {
				t.Fatalf("record range outside section range")
			}
			prevEnd = r.End
		}
	}
}

func TestTrainRequiresTwoPages(t *testing.T) {
	if _, err := Train(nil, nil); err == nil {
		t.Fatalf("Train with no samples should fail")
	}
	gp := synth.NewEngine(99, 1, false).Page(0)
	if _, err := Train([]SamplePage{{HTML: gp.HTML, Query: gp.Query}}, nil); err == nil {
		t.Fatalf("Train with one sample should fail")
	}
}

func TestWrapperJSONRoundTrip(t *testing.T) {
	e := synth.NewEngine(99, 2, true)
	w := trainOn(t, e, 5)
	data, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := LoadWrapper(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	gp := e.Page(6)
	a := w.Extract(gp.HTML, gp.Query)
	b := restored.Extract(gp.HTML, gp.Query)
	if len(a) != len(b) {
		t.Fatalf("sections differ after round trip: %d vs %d", len(a), len(b))
	}
	if restored.SectionCount() != w.SectionCount() ||
		restored.FamilyCount() != w.FamilyCount() {
		t.Fatalf("counts differ after round trip")
	}
}

func TestLoadWrapperRejectsGarbage(t *testing.T) {
	if _, err := LoadWrapper([]byte("{"), nil); err == nil {
		t.Fatalf("garbage JSON accepted")
	}
	if _, err := LoadWrapper([]byte(`{"wrappers":[{"pref":"not-a-path"}]}`), nil); err == nil {
		t.Fatalf("bad pref accepted")
	}
}

// TestLoadWrapperRejectsNullEntries: null wrapper or family entries and
// out-of-range sep_roots, order or family type fail at load time with a
// typed error instead of panicking or misbehaving on first Extract.
func TestLoadWrapperRejectsNullEntries(t *testing.T) {
	for _, tc := range []struct {
		data, list string
		field      string // set: want a *wrapper.RangeError naming it
	}{
		{data: `{"wrappers":[null]}`, list: "wrappers"},
		{data: `{"families":[null]}`, list: "families"},
		{data: `{"wrappers":[],"families":[null]}`, list: "families"},
		{data: `{"wrappers":[{"pref":"","sep_roots":-7,"order":0}]}`, field: "sep_roots"},
		{data: `{"wrappers":[{"pref":"","order":-9}]}`, field: "order"},
		{data: `{"families":[{"type":-1,"pref":""}]}`, field: "type"},
		{data: `{"families":[{"type":0,"pref":""}]}`, field: "type"},
		{data: `{"families":[{"type":2,"pref":"","sep_roots":-1}]}`, field: "sep_roots"},
	} {
		w, err := LoadWrapper([]byte(tc.data), nil)
		if tc.field != "" {
			var re *wrapper.RangeError
			if !errors.As(err, &re) || re.Field != tc.field {
				t.Fatalf("LoadWrapper(%s) = %v, %v; want a *wrapper.RangeError for %s", tc.data, w, err, tc.field)
			}
			continue
		}
		var ne *core.NullEntryError
		if !errors.As(err, &ne) || ne.List != tc.list {
			t.Fatalf("LoadWrapper(%s) = %v, %v; want a *core.NullEntryError for %s", tc.data, w, err, tc.list)
		}
	}
}

func TestExtractWithoutQueryTerms(t *testing.T) {
	// Extraction must work when the retrieving query is unknown (nil).
	e := synth.NewEngine(99, 3, false)
	w := trainOn(t, e, 5)
	gp := e.Page(8)
	secs := w.Extract(gp.HTML, nil)
	joined := ""
	for _, s := range secs {
		for _, r := range s.Records {
			joined += strings.Join(r.Lines, "\n") + "\n"
		}
	}
	found, total := 0, 0
	for _, gts := range gp.Truth.Sections {
		for _, r := range gts.Records {
			total++
			if strings.Contains(joined, r.Marker) {
				found++
			}
		}
	}
	if total > 0 && found == 0 {
		t.Fatalf("nil-query extraction found none of %d records", total)
	}
}

func TestHiddenSectionViaFamily(t *testing.T) {
	// Find an engine with a section absent from the first five pages but
	// present later; the wrapper should still extract something for it
	// when families are enabled.
	engines := synth.GenerateTestbed(synth.Config{Seed: 2006, Engines: 38, MultiSection: 38, Queries: 10})
	tried := 0
	for _, e := range engines {
		pages := e.Pages(10)
		seen := map[int]bool{}
		for _, gp := range pages[:5] {
			for _, s := range gp.Truth.Sections {
				seen[s.SchemaIndex] = true
			}
		}
		hiddenPage, hiddenIdx := -1, -1
		for q := 5; q < 10; q++ {
			for _, s := range pages[q].Truth.Sections {
				if !seen[s.SchemaIndex] {
					hiddenPage, hiddenIdx = q, s.SchemaIndex
				}
			}
		}
		if hiddenPage < 0 {
			continue
		}
		tried++
		w := trainOn(t, e, 5)
		gp := pages[hiddenPage]
		secs := w.Extract(gp.HTML, gp.Query)
		var gts *synth.GTSection
		for i := range gp.Truth.Sections {
			if gp.Truth.Sections[i].SchemaIndex == hiddenIdx {
				gts = &gp.Truth.Sections[i]
			}
		}
		joined := ""
		for _, s := range secs {
			for _, r := range s.Records {
				joined += strings.Join(r.Lines, "\n") + "\n"
			}
		}
		for _, r := range gts.Records {
			if strings.Contains(joined, r.Marker) {
				t.Logf("hidden section %q of engine %d recovered via family", gts.Heading, e.ID)
				return // at least one hidden section recovered
			}
		}
	}
	if tried == 0 {
		t.Skip("test bed produced no hidden-section cases")
	}
	t.Fatalf("no hidden section recovered across %d candidate engines", tried)
}

func TestConcurrentExtract(t *testing.T) {
	e := synth.NewEngine(99, 5, true)
	w := trainOn(t, e, 5)
	pages := e.Pages(10)
	done := make(chan int, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			gp := pages[5+i%5]
			secs := w.Extract(gp.HTML, gp.Query)
			done <- len(secs)
		}(i)
	}
	first := <-done
	for i := 1; i < 16; i++ {
		n := <-done
		// All goroutines hitting the same page subset must agree (each
		// page deterministic); just require no panic and plausible output.
		_ = n
	}
	_ = first
}
