package mse

import (
	"bytes"
	"encoding/json"
	"testing"

	"mse/internal/core"
	"mse/internal/synth"
)

// FuzzExtractMatchesReference differential-fuzzes the one production
// extraction path: for any page HTML, ew.Extract (pooled parse, prune
// pass, pruned render, compiled wrappers) must be byte-identical to the
// interpreted reference over an unpooled, unpruned render.
//
//	go test -run '^$' -fuzz '^FuzzExtractMatchesReference$' -fuzztime 10s .
func FuzzExtractMatchesReference(f *testing.F) {
	// One section wrapper plus a Type-2 family; the committed seeds under
	// testdata/fuzz are this engine's fresh and drifted pages 5-9.
	e := synth.NewEngine(2006, 6, true)
	var samples []*core.SamplePage
	for q := 0; q < 5; q++ {
		gp := e.Page(q)
		samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
	}
	ew, err := core.BuildWrapper(samples, core.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	query := e.Page(5).Query
	f.Fuzz(func(t *testing.T, html string) {
		got, err := json.Marshal(ew.Extract(html, query))
		if err != nil {
			t.Fatal(err)
		}
		if ref := referenceExtract(t, ew, html, query); !bytes.Equal(got, ref) {
			t.Fatalf("compiled extraction differs from reference\nref: %s\ngot: %s", truncate(ref), truncate(got))
		}
	})
}
