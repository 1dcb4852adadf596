package annotate

import (
	"math/rand"
	"reflect"
	"regexp"
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

// The regexps the byte scanners replaced, and the annotator built on
// them with its prefilters, kept as the scanners' oracle.
var (
	rankRe  = regexp.MustCompile(`^(\d{1,3})\.\s+`)
	dateRe  = regexp.MustCompile(`\(\d{1,2}/\d{1,2}/\d{4}\)`)
	priceRe = regexp.MustCompile(`(?:USD\s?|\$|€|£)\d[\d,]*(?:\.\d{2})?`)
	urlRe   = regexp.MustCompile(`^(?:https?://)?(?:www\.)?[\w.-]+\.[a-z]{2,}(?:/\S*)?$`)
	moreRe  = regexp.MustCompile(`(?i)^more\b.*\.{3}\s*$|^click here for more`)
)

func maybeMoreReference(text string) bool {
	switch text[0] {
	case 'm', 'M', 'c', 'C':
		return true
	}
	return false
}

func maybeURLReference(text string) bool {
	return strings.IndexByte(text, '.') >= 0 &&
		!strings.ContainsAny(text, " \t\r\n\v\f")
}

func appendRecordReference(units []Unit, rec core.Record) []Unit {
	titleSeen := false
	for i, line := range rec.Lines {
		text := strings.TrimSpace(line)
		if text == "" {
			continue
		}
		switch {
		case maybeMoreReference(text) && moreRe.MatchString(text):
			units = append(units, Unit{Type: More, Text: text, Line: i})
		case !titleSeen:
			titleSeen = true
			units = appendTitleUnitsReference(units, text, i)
		case maybeURLReference(text) && urlRe.MatchString(text):
			units = append(units, Unit{Type: DisplayURL, Text: text, Line: i})
		case maybePrice(text) && priceRe.MatchString(text):
			units = append(units, Unit{Type: Price, Text: priceRe.FindString(text), Line: i})
		default:
			units = append(units, Unit{Type: Snippet, Text: text, Line: i})
		}
	}
	return units
}

func appendTitleUnitsReference(units []Unit, text string, line int) []Unit {
	if text[0] >= '0' && text[0] <= '9' {
		if m := rankRe.FindStringSubmatch(text); m != nil {
			units = append(units, Unit{Type: Rank, Text: m[1], Line: line})
			text = strings.TrimSpace(text[len(m[0]):])
		}
	}
	if strings.IndexByte(text, '(') >= 0 {
		if m := dateRe.FindString(text); m != "" {
			units = append(units, Unit{Type: Date, Text: m, Line: line})
			text = strings.TrimSpace(strings.Replace(text, m, "", 1))
			text = strings.Join(strings.Fields(text), " ")
		}
	}
	if text != "" {
		units = append(units, Unit{Type: Title, Text: text, Line: line})
	}
	return units
}

// checkScanners holds each scanner to its regexp on one string.
func checkScanners(t *testing.T, s string) {
	t.Helper()
	rank, n := rankPrefix(s)
	if m := rankRe.FindStringSubmatch(s); m == nil {
		if n != 0 {
			t.Errorf("rankPrefix(%q) = %q, %d; regexp: no match", s, rank, n)
		}
	} else if rank != m[1] || n != len(m[0]) {
		t.Errorf("rankPrefix(%q) = %q, %d; regexp: %q, %d", s, rank, n, m[1], len(m[0]))
	}
	if got, want := findDate(s), dateRe.FindString(s); got != want {
		t.Errorf("findDate(%q) = %q; regexp: %q", s, got, want)
	}
	if got, want := findPrice(s), priceRe.FindString(s); got != want {
		t.Errorf("findPrice(%q) = %q; regexp: %q", s, got, want)
	}
	if got, want := isURL(s), maybeURLReference(s) && urlRe.MatchString(s); got != want {
		t.Errorf("isURL(%q) = %v; prefilter and regexp: %v", s, got, want)
	}
	if got, want := isMore(s), moreRe.MatchString(s); got != want {
		t.Errorf("isMore(%q) = %v; regexp: %v", s, got, want)
	}
}

// TestScannersMatchRegexps runs the scanners and their regexps over hand
// picked corners and a seeded stream of strings built from the tokens the
// patterns care about.
func TestScannersMatchRegexps(t *testing.T) {
	cases := []string{
		"", "1", "1.", "1. ", "1.  x", "12. Title", "123.\tx", "1234. x", "1.x", "a1. x", "1.\vx", "1.\fx", "1.\u00a0x",
		"(1/2/2003)", "x (10/21/2003) y", "(100/2/2003)", "(1/2/20033)", "(1/2/203)", "((1/2/2003)", "(1/2/2003", "(1//2003) (3/4/2005)",
		"$5", "$", "$x5", "USD5", "USD 5", "USD  5", "USD\t5", "USD\v5", "USDx", "USD $5", "usd 5", "€12,50", "£3.5", "£3.50", "$1.234",
		"$1,000,000.99 total", "ab€", "\xe2\x82\xac5", "\xe2\x82$7", "US$9", "UUSD9", "$,5", "$5,.", "$5.", "$5.1", "$5.12.34",
		"www.site.example/doc/page.html", "site.com", "s.co", "s.c", ".com", "a..com", "x-y_z.info/", "http://a.com", "https://a.com/x?y",
		"http://", "https:/a.com", "HTTP://a.com", "a.COM", "a.com/\vx", "a.com/\u00a0x", "a.com/\xff", "a.com x", "www.", "www.a.b", "a.com:80/x",
		"a.b.c.de", "a.de.", "a.d", "a.com/", "-.ab", "_.ab", "a.com//x//", "a/b.com", "a.com\x00",
		"more results ...", "More pyramid results ...", "MORE...", "more", "more...", "moreover ...", "more_ ...", "more1 ...",
		"more x ...\t\n ", "more x\n...", "more ...\nx", "more \xff ...", "more ....", "more ..", "more é ...",
		"click here for more", "Click Here For More results", "clic\u212a here for more", "clicK here for more", "click here for mor",
		"click  here for more", "cliCK HERE FOR MORE!", "clic\u212a", "click", "more\u212a ...", "m", "c",
	}
	for _, c := range cases {
		checkScanners(t, c)
	}
	tokens := []string{
		"1", "2", "12", "123", "2003", "0", ".", "..", "...", " ", "\t", "\n", "\v", "\f", "\r", "/", "//", "(", ")", ",",
		"$", "€", "£", "USD", "U", "SD", "\xe2", "\x82", "\xac", "\xc2", "\xa3", "\xff", "é", "\u212a", "\u00a0",
		"a", "Z", "_", "-", "k", "x", "com", "www.", "http://", "https://", ":", "more", "MoRe", "click", "clic", " here for more",
	}
	rng := rand.New(rand.NewSource(1))
	var b strings.Builder
	for i := 0; i < 200000; i++ {
		b.Reset()
		for n := rng.Intn(8); n >= 0; n-- {
			b.WriteString(tokens[rng.Intn(len(tokens))])
		}
		checkScanners(t, b.String())
		if t.Failed() {
			return
		}
	}
}

// TestAppendRecordMatchesReference annotates every record the testbed's
// engines extract from fresh and drifted pages, both ways.
func TestAppendRecordMatchesReference(t *testing.T) {
	bed := synth.GenerateTestbed(synth.DefaultConfig())
	if testing.Short() {
		bed = bed[:12]
	}
	opts := core.DefaultOptions()
	seen := map[UnitType]int{}
	records := 0
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
		drifted := e.Drifted()
		for q := 5; q < 8; q++ {
			for _, gp := range []*synth.GenPage{e.Page(q), drifted.Page(q)} {
				for _, sec := range ew.Extract(gp.HTML, gp.Query) {
					for _, rec := range sec.Records {
						got := AppendRecord(nil, rec)
						want := appendRecordReference(nil, rec)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("engine %d page %d record %q:\ngot  %+v\nwant %+v", ei, q, rec.Lines, got, want)
						}
						for _, u := range got {
							seen[u.Type]++
						}
						records++
					}
				}
			}
		}
	}
	t.Logf("%d records from %d engines; units by type: %v", records, len(bed), seen)
	for _, ty := range []UnitType{Title, Snippet, DisplayURL, Price, Date, Rank} {
		if seen[ty] == 0 && !testing.Short() {
			t.Errorf("no %v unit in the testbed: the comparison does not cover it", ty)
		}
	}
}

// FuzzAnnotateMatchesReference annotates arbitrary line slices both ways
// and holds every scanner to its regexp on each line.  Lines are split on
// 0x1e, so they may hold any other byte, newlines included.  Seeds live in
// testdata/fuzz/FuzzAnnotateMatchesReference.
//
//	go test -run '^$' -fuzz '^FuzzAnnotateMatchesReference$' -fuzztime 10s ./internal/annotate
func FuzzAnnotateMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data string) {
		rec := core.Record{Lines: strings.Split(data, "\x1e")}
		got := AppendRecord(nil, rec)
		want := appendRecordReference(nil, rec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lines %q:\ngot  %+v\nwant %+v", rec.Lines, got, want)
		}
		for _, line := range rec.Lines {
			checkScanners(t, line)
			checkScanners(t, strings.TrimSpace(line))
		}
	})
}

// BenchmarkAnnotateRecord annotates the records 12 testbed engines
// extract from one fresh page each, scanners against the regexp
// reference; ns/op is per record.
func BenchmarkAnnotateRecord(b *testing.B) {
	var records []core.Record
	for _, e := range synth.GenerateTestbed(synth.DefaultConfig())[:12] {
		var samples []*core.SamplePage
		for q := 0; q < 5; q++ {
			gp := e.Page(q)
			samples = append(samples, &core.SamplePage{HTML: gp.HTML, Query: gp.Query})
		}
		ew, err := core.BuildWrapper(samples, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		gp := e.Page(5)
		for _, sec := range ew.Extract(gp.HTML, gp.Query) {
			records = append(records, sec.Records...)
		}
	}
	for _, c := range []struct {
		name     string
		annotate func([]Unit, core.Record) []Unit
	}{{"scanner", AppendRecord}, {"reference", appendRecordReference}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var units []Unit
			for i := 0; i < b.N; i++ {
				units = c.annotate(units[:0], records[i%len(records)])
			}
		})
	}
}
