// Package annotate implements the third task of complete web data
// extraction as framed in the paper's introduction: after section
// extraction and record extraction comes *data annotation* — identifying
// the data units inside each record (the paper cites DeLa [24] for this
// step and leaves it out of MSE's scope; this package supplies a
// practical heuristic annotator so the library covers the full task
// chain).
//
// The annotator classifies each content line of an extracted record and
// carves the title line into its conventional parts:
//
//  1. Official Guide history (10/21/2003) …
//     ^  ^^^^^^^^^^^^^^^^^^^^^^ ^^^^^^^^^^^^
//     rank      title               date
//
// Snippets, display URLs, prices and "more results" trailers are
// recognized by shape.  The heuristics are deliberately conservative: a
// unit is only labeled when its shape is unambiguous, everything else
// stays Snippet.
package annotate

import (
	"regexp"
	"strings"

	"mse/internal/core"
)

// UnitType classifies one data unit of a record.
type UnitType int

// The unit vocabulary of 2006-era search result records.
const (
	// Title is the record's main entry, usually the anchor text.
	Title UnitType = iota
	// Snippet is descriptive body text.
	Snippet
	// DisplayURL is a visible URL line ("www.site.com/doc.html").
	DisplayURL
	// Price is a money amount line.
	Price
	// Date is a date fragment, usually decorating the title.
	Date
	// Rank is the ordinal prefix ("1.") some engines render.
	Rank
	// More is a "more results…" trailer that slipped into the record.
	More
)

// String names the unit type.
func (t UnitType) String() string {
	switch t {
	case Title:
		return "title"
	case Snippet:
		return "snippet"
	case DisplayURL:
		return "url"
	case Price:
		return "price"
	case Date:
		return "date"
	case Rank:
		return "rank"
	case More:
		return "more"
	}
	return "unknown"
}

// Unit is one annotated data unit.
type Unit struct {
	Type UnitType
	// Text is the unit's text content.
	Text string
	// Line is the index of the source line within the record.
	Line int
}

var (
	rankRe  = regexp.MustCompile(`^(\d{1,3})\.\s+`)
	dateRe  = regexp.MustCompile(`\(\d{1,2}/\d{1,2}/\d{4}\)`)
	priceRe = regexp.MustCompile(`(?:USD\s?|\$|€|£)\d[\d,]*(?:\.\d{2})?`)
	urlRe   = regexp.MustCompile(`^(?:https?://)?(?:www\.)?[\w.-]+\.[a-z]{2,}(?:/\S*)?$`)
	moreRe  = regexp.MustCompile(`(?i)^more\b.*\.{3}\s*$|^click here for more`)
)

// The regexes above backtrack, and annotation runs on every record of
// every served response, so each is guarded by a byte-scan prefilter that
// checks a necessary condition of the pattern.  Typical snippet lines fail
// the prefilter in one pass instead of feeding the backtracker.

// maybeMore: moreRe's two alternatives start with "more"/"click" —
// anything not starting with m/M/c/C cannot match.
func maybeMore(text string) bool {
	switch text[0] {
	case 'm', 'M', 'c', 'C':
		return true
	}
	return false
}

// maybeURL: urlRe has no whitespace-capable atom and requires a dot, so a
// line with interior whitespace or no '.' cannot match.
func maybeURL(text string) bool {
	return strings.IndexByte(text, '.') >= 0 &&
		!strings.ContainsAny(text, " \t\r\n\v\f")
}

// maybePrice: every priceRe alternative needs a currency marker.  The
// markers are searched one by one: ContainsAny over a set with non-ASCII
// members decodes the text rune by rune, while IndexByte and Contains
// scan bytes.
func maybePrice(text string) bool {
	return strings.IndexByte(text, '$') >= 0 || strings.Contains(text, "€") ||
		strings.Contains(text, "£") || strings.Contains(text, "USD")
}

// Record annotates one extracted record.
func Record(rec core.Record) []Unit { return AppendRecord(nil, rec) }

// AppendRecord appends the units of one extracted record to units and
// returns the extended slice, so a caller annotating many records can
// reuse one slice.
func AppendRecord(units []Unit, rec core.Record) []Unit {
	titleSeen := false
	for i, line := range rec.Lines {
		text := strings.TrimSpace(line)
		if text == "" {
			continue
		}
		switch {
		case maybeMore(text) && moreRe.MatchString(text):
			units = append(units, Unit{Type: More, Text: text, Line: i})
		case !titleSeen:
			titleSeen = true
			units = appendTitleUnits(units, text, i)
		case maybeURL(text) && urlRe.MatchString(text):
			units = append(units, Unit{Type: DisplayURL, Text: text, Line: i})
		case maybePrice(text) && priceRe.MatchString(text):
			units = append(units, Unit{Type: Price, Text: priceRe.FindString(text), Line: i})
		default:
			units = append(units, Unit{Type: Snippet, Text: text, Line: i})
		}
	}
	return units
}

// appendTitleUnits splits a title line into rank, title and date units.
func appendTitleUnits(units []Unit, text string, line int) []Unit {
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

// Section annotates every record of a section, in order.
func Section(sec *core.Section) [][]Unit {
	out := make([][]Unit, len(sec.Records))
	for i, rec := range sec.Records {
		out[i] = Record(rec)
	}
	return out
}

// TitleOf returns the record's title text ("" when no title was found) —
// the most common single lookup callers need.
func TitleOf(rec core.Record) string {
	for _, u := range Record(rec) {
		if u.Type == Title {
			return u.Text
		}
	}
	return ""
}
