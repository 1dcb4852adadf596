package wrapper

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestApplyPooledEdgeCases runs Apply edge cases twice back to back: the
// second run reuses the pooled apply scratch populated by the first, so
// any state leaking across Apply calls (a stale query-term set, a dirty
// output buffer) shows up as a behavioural diff.
func TestApplyPooledEdgeCases(t *testing.T) {
	w, _ := buildTestWrapper(t)

	// Warm the pool so every case below runs on a reused scratch at least
	// once.
	warm, _ := sectionPage(3, "warm")
	w.Apply(warm, []string{"q"}, DefaultOptions())

	t.Run("EmptyPage", func(t *testing.T) {
		p := render(`<body></body>`)
		for round := 0; round < 2; round++ {
			if got := w.Apply(p, []string{"q"}, DefaultOptions()); got != nil {
				t.Fatalf("round %d: wrapper fired on an empty page: %+v", round, got)
			}
		}
	})

	t.Run("AnchorLineAbsent", func(t *testing.T) {
		// The records are present but the learned LBM line ("Results") is
		// not; boundary validation must reject the candidate, both on a
		// fresh and a reused scratch.
		var sb strings.Builder
		sb.WriteString(`<body><h1>Site</h1><table>`)
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&sb, `<tr><td><a href="/x%d">Title x %d</a><br>snippet x %d</td></tr>`, i, i, i)
		}
		sb.WriteString(`</table><div>Copyright notice.</div></body>`)
		p := render(sb.String())
		for round := 0; round < 2; round++ {
			if got := w.Apply(p, []string{"q"}, DefaultOptions()); got != nil {
				t.Fatalf("round %d: wrapper fired without its anchor line: %+v", round, got)
			}
		}
	})

	t.Run("SectionAtPageTail", func(t *testing.T) {
		// The section is the last content on the page — no trailing
		// boundary after the records.
		var sb strings.Builder
		sb.WriteString(`<body><h1>Site</h1><h3>Results</h3><table>`)
		for i := 0; i < 4; i++ {
			fmt.Fprintf(&sb, `<tr><td><a href="/t%d">Title t %d</a><br>snippet t %d</td></tr>`, i, i, i)
		}
		sb.WriteString(`</table></body>`)
		p := render(sb.String())

		var first []byte
		for round := 0; round < 2; round++ {
			got := w.Apply(p, []string{"q"}, DefaultOptions())
			if got == nil {
				t.Fatalf("round %d: wrapper did not fire on tail section", round)
			}
			if len(got.Records) != 4 {
				t.Fatalf("round %d: records = %d, want 4", round, len(got.Records))
			}
			j, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if first == nil {
				first = j
			} else if string(j) != string(first) {
				t.Fatalf("pooled rerun differs:\nfirst:  %s\nsecond: %s", first, j)
			}
		}
	})

	// The query-term set must not leak between Applies: a heading that was
	// masked by round one's query terms must match again in round two with
	// different terms.
	t.Run("QueryTermReset", func(t *testing.T) {
		p, _ := sectionPage(3, "qq")
		// "results" as a query term blanks the cleaned LBM text, so the
		// flat-layout fallback cannot anchor on it — but the heading is
		// still found positionally; what matters here is the second Apply
		// with a disjoint query reproduces the no-query result exactly.
		ref := w.Apply(p, []string{"q"}, DefaultOptions())
		refJSON, _ := json.Marshal(ref)
		w.Apply(p, []string{"results"}, DefaultOptions())
		got := w.Apply(p, []string{"q"}, DefaultOptions())
		gotJSON, _ := json.Marshal(got)
		if string(refJSON) != string(gotJSON) {
			t.Fatalf("query terms leaked across pooled Applies:\nref: %s\ngot: %s", refJSON, gotJSON)
		}
	})
}
