package annotate

import (
	"strings"
	"testing"

	"mse/internal/core"
	"mse/internal/eval"
	"mse/internal/synth"
)

func unitTypes(units []Unit) []UnitType {
	out := make([]UnitType, len(units))
	for i, u := range units {
		out[i] = u.Type
	}
	return out
}

func hasType(units []Unit, t UnitType) bool {
	for _, u := range units {
		if u.Type == t {
			return true
		}
	}
	return false
}

func textOf(units []Unit, t UnitType) string {
	for _, u := range units {
		if u.Type == t {
			return u.Text
		}
	}
	return ""
}

func TestRecordFullShape(t *testing.T) {
	rec := core.Record{Lines: []string{
		"1. Official Guide history (10/21/2003) marker",
		"a descriptive snippet about the result",
		"www.site.example/doc/page.html",
		"Price: $34.99 marker",
	}}
	units := Record(rec)
	if got := textOf(units, Rank); got != "1" {
		t.Fatalf("rank = %q", got)
	}
	if got := textOf(units, Date); got != "(10/21/2003)" {
		t.Fatalf("date = %q", got)
	}
	if got := textOf(units, Title); !strings.HasPrefix(got, "Official Guide history") {
		t.Fatalf("title = %q", got)
	}
	if got := textOf(units, Snippet); !strings.HasPrefix(got, "a descriptive") {
		t.Fatalf("snippet = %q", got)
	}
	if got := textOf(units, DisplayURL); got != "www.site.example/doc/page.html" {
		t.Fatalf("url = %q", got)
	}
	if got := textOf(units, Price); got != "$34.99" {
		t.Fatalf("price = %q", got)
	}
}

func TestRecordMinimal(t *testing.T) {
	rec := core.Record{Lines: []string{"Bare Title Only"}}
	units := Record(rec)
	if len(units) != 1 || units[0].Type != Title || units[0].Text != "Bare Title Only" {
		t.Fatalf("units = %v", unitTypes(units))
	}
}

func TestRecordTrailerDetected(t *testing.T) {
	rec := core.Record{Lines: []string{
		"Some Title here",
		"a snippet line",
		"More pyramid results ...",
	}}
	units := Record(rec)
	if !hasType(units, More) {
		t.Fatalf("trailer not detected: %v", unitTypes(units))
	}
	// The trailer line must not be a snippet too.
	for _, u := range units {
		if u.Line == 2 && u.Type != More {
			t.Fatalf("trailer double-labeled as %v", u.Type)
		}
	}
}

func TestRecordEmptyAndBlankLines(t *testing.T) {
	if got := Record(core.Record{}); len(got) != 0 {
		t.Fatalf("empty record should yield no units")
	}
	units := Record(core.Record{Lines: []string{"", "  ", "Real Title"}})
	if len(units) != 1 || units[0].Type != Title {
		t.Fatalf("blank lines mishandled: %v", unitTypes(units))
	}
	if units[0].Line != 2 {
		t.Fatalf("line index should point at the source line")
	}
}

func TestRankWithoutDate(t *testing.T) {
	units := Record(core.Record{Lines: []string{"12. Plain Ranked Title"}})
	if textOf(units, Rank) != "12" {
		t.Fatalf("rank missed")
	}
	if hasType(units, Date) {
		t.Fatalf("phantom date")
	}
	if textOf(units, Title) != "Plain Ranked Title" {
		t.Fatalf("title = %q", textOf(units, Title))
	}
}

func TestTitleOf(t *testing.T) {
	rec := core.Record{Lines: []string{"3. The Title (1/2/2003) x", "snippet"}}
	if got := TitleOf(rec); got != "The Title x" {
		t.Fatalf("TitleOf = %q", got)
	}
	if got := TitleOf(core.Record{}); got != "" {
		t.Fatalf("TitleOf(empty) = %q", got)
	}
}

func TestSectionAnnotation(t *testing.T) {
	sec := &core.Section{Records: []core.Record{
		{Lines: []string{"1. A"}},
		{Lines: []string{"2. B", "snippet"}},
	}}
	out := Section(sec)
	if len(out) != 2 {
		t.Fatalf("records = %d", len(out))
	}
	if !hasType(out[1], Snippet) {
		t.Fatalf("second record lost its snippet")
	}
}

// TestAnnotateAgainstTestbed annotates real extractions across synthetic
// engines and checks the units agree with the engines' record formats.
func TestAnnotateAgainstTestbed(t *testing.T) {
	engines := synth.GenerateTestbed(synth.Config{Seed: 2006, Engines: 16, MultiSection: 6, Queries: 8})
	checkedURL, okURL := 0, 0
	checkedPrice, okPrice := 0, 0
	checkedRank, okRank := 0, 0
	for _, e := range engines {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ex := eval.NewMSE(core.DefaultOptions())
		if err := ex.Train(samples); err != nil {
			continue
		}
		gp := e.Page(6)
		for _, sec := range ex.Extract(gp.HTML, gp.Query) {
			// Which schema does this section belong to?
			var ss *synth.SectionSchema
			for _, cand := range e.Schema.Sections {
				if cand.Heading == sec.Heading {
					ss = cand
				}
			}
			if ss == nil {
				continue
			}
			for _, rec := range sec.Records {
				units := Record(rec)
				if ss.Format.HasURLLine {
					checkedURL++
					if hasType(units, DisplayURL) {
						okURL++
					}
				}
				if ss.Format.HasPrice {
					checkedPrice++
					if hasType(units, Price) {
						okPrice++
					}
				}
				if ss.Format.NumberPrefix {
					checkedRank++
					if hasType(units, Rank) {
						okRank++
					}
				}
			}
		}
	}
	check := func(name string, ok, total int) {
		t.Helper()
		if total == 0 {
			return
		}
		if float64(ok) < 0.9*float64(total) {
			t.Errorf("%s units found on %d/%d records", name, ok, total)
		}
	}
	if checkedURL+checkedPrice+checkedRank == 0 {
		t.Skip("test bed slice exercised no annotatable formats")
	}
	check("url", okURL, checkedURL)
	check("price", okPrice, checkedPrice)
	check("rank", okRank, checkedRank)
}

// TestMaybePriceMatchesContainsAny pins the byte-scan prefilter to the
// rune-set expression it replaced, including invalid UTF-8 around and
// inside the multi-byte currency signs.
func TestMaybePriceMatchesContainsAny(t *testing.T) {
	old := func(text string) bool {
		return strings.ContainsAny(text, "$€£") || strings.Contains(text, "USD")
	}
	cases := []string{
		"a plain ascii snippet line",
		"Price: $34.99",
		"$",
		"€12,50",
		"only £5 today",
		"USD 100",
		"usd 100",
		"US D",
		"ab€",
		"£",
		"¥ 300 and ₩ 400",
		"中文价格 €99 结果",
		"検索結果 ドル",
		"价格：USD19",
		"\xe2\x82",         // truncated €
		"\xc2",             // truncated £
		"\xe2\xe2\x82\xac", // stray lead byte, then €
		"\xff\xfe$",
		"\x82\xac",
		"\xc2\xc2\xa3",
		"\xf0\xe2\x82\xac",
		"\xa3 alone",
		"",
	}
	for _, c := range cases {
		if got, want := maybePrice(c), old(c); got != want {
			t.Errorf("maybePrice(%q) = %v, ContainsAny form = %v", c, got, want)
		}
	}
}
