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

// Annotation runs on every record of every served response, so each unit
// shape is a byte scanner that returns what its regexp would
// (annotate_test.go holds the regexps as the scanners' oracles):
//
//	rank   ^(\d{1,3})\.\s+
//	date   \(\d{1,2}/\d{1,2}/\d{4}\)
//	price  (?:USD\s?|\$|€|£)\d[\d,]*(?:\.\d{2})?
//	url    ^(?:https?://)?(?:www\.)?[\w.-]+\.[a-z]{2,}(?:/\S*)?$
//	more   (?i)^more\b.*\.{3}\s*$|^click here for more
//
// \d, \w, \s and \b are RE2's ASCII classes; \s is [\t\n\f\r ], without
// \v.  Only valid UTF-8 can spell €, £ or U+212A, and no byte of those
// signs can start inside another rune, so scanning bytes finds the same
// positions as the regexps' rune-wise search.

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isSpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\f', '\r':
		return true
	}
	return false
}

func isWord(c byte) bool {
	return isDigit(c) || 'a' <= c|0x20 && c|0x20 <= 'z' || c == '_'
}

// hasFoldPrefix reports whether text starts with prefix under case
// folding; prefix must be ASCII and free of letters with non-ASCII folds
// (k and s), whose folded forms are longer than one byte.
func hasFoldPrefix(text, prefix string) bool {
	return len(text) >= len(prefix) && strings.EqualFold(text[:len(prefix)], prefix)
}

// digitsThen matches lo to hi ASCII digits at s[i:] followed by sep and
// returns the index after sep, or -1.  A longer digit run fails, as the
// regexp's bounded repeat does when the byte after it is not sep.
func digitsThen(s string, i, lo, hi int, sep byte) int {
	j := i
	for j < len(s) && isDigit(s[j]) {
		j++
	}
	if n := j - i; n < lo || n > hi || j >= len(s) || s[j] != sep {
		return -1
	}
	return j + 1
}

// rankPrefix matches the rank prefix: it returns the digits and the
// length of the whole prefix, or n == 0.
func rankPrefix(text string) (rank string, n int) {
	dot := digitsThen(text, 0, 1, 3, '.')
	if dot < 0 || dot >= len(text) || !isSpace(text[dot]) {
		return "", 0
	}
	n = dot + 1
	for n < len(text) && isSpace(text[n]) {
		n++
	}
	return text[:dot-1], n
}

// findDate returns the leftmost date match, or "".
func findDate(text string) string {
	for i := 0; ; i++ {
		j := strings.IndexByte(text[i:], '(')
		if j < 0 {
			return ""
		}
		i += j
		end := digitsThen(text, i+1, 1, 2, '/')
		if end >= 0 {
			end = digitsThen(text, end, 1, 2, '/')
		}
		if end >= 0 {
			end = digitsThen(text, end, 4, 4, ')')
		}
		if end >= 0 {
			return text[i:end]
		}
	}
}

// findPrice returns the leftmost price match, or "".  The alternatives
// start with distinct bytes, so at most one applies at each position.
func findPrice(text string) string {
	if !maybePrice(text) {
		return ""
	}
	for i := 0; i < len(text); i++ {
		var j int // where the amount's first digit must be
		switch {
		case text[i] == '$':
			j = i + 1
		case strings.HasPrefix(text[i:], "€"):
			j = i + len("€")
		case strings.HasPrefix(text[i:], "£"):
			j = i + len("£")
		case strings.HasPrefix(text[i:], "USD"):
			// Taking \s? whenever it can is safe: a space is no digit,
			// so the match without it would fail anyway.
			j = i + 3
			if j < len(text) && isSpace(text[j]) {
				j++
			}
		default:
			continue
		}
		if j >= len(text) || !isDigit(text[j]) {
			continue
		}
		k := j + 1
		for k < len(text) && (isDigit(text[k]) || text[k] == ',') {
			k++
		}
		if k+2 < len(text) && text[k] == '.' && isDigit(text[k+1]) && isDigit(text[k+2]) {
			k += 3
		}
		return text[i:k]
	}
	return ""
}

// maybePrice: every price alternative needs a currency marker.  The
// markers are searched one by one: ContainsAny over a set with non-ASCII
// members decodes the text rune by rune, while IndexByte and Contains
// scan bytes.
func maybePrice(text string) bool {
	return strings.IndexByte(text, '$') >= 0 || strings.Contains(text, "€") ||
		strings.Contains(text, "£") || strings.Contains(text, "USD")
}

// isURL reports whether text is a display URL: it matches the url shape
// and holds no ASCII whitespace, \v included (the url regexp's \S admits
// \v; the whitespace prefilter that ran before it did not).  The host
// runs to the first '/', since [\w.-] has no '/', and its last dot must
// be the one before the [a-z]{2,} suffix, since the suffix has none.  An
// optional "www." needs no case of its own: it is valid host text.
func isURL(text string) bool {
	rest := text
	if strings.HasPrefix(rest, "https://") {
		rest = rest[len("https://"):]
	} else if strings.HasPrefix(rest, "http://") {
		rest = rest[len("http://"):]
	}
	host, path := rest, ""
	if k := strings.IndexByte(rest, '/'); k >= 0 {
		host, path = rest[:k], rest[k:]
	}
	dot := strings.LastIndexByte(host, '.')
	if dot < 1 || len(host)-dot-1 < 2 {
		return false
	}
	for i := 0; i < dot; i++ {
		if c := host[i]; !isWord(c) && c != '.' && c != '-' {
			return false
		}
	}
	for i := dot + 1; i < len(host); i++ {
		if c := host[i]; c < 'a' || c > 'z' {
			return false
		}
	}
	for i := 0; i < len(path); i++ {
		if isSpace(path[i]) || path[i] == '\v' {
			return false
		}
	}
	return true
}

// isMore reports whether text is a "more results" trailer.  (?i) folds
// both alternatives with Unicode simple folding; of their letters only
// k has a non-ASCII fold, U+212A KELVIN SIGN.
func isMore(text string) bool {
	if hasFoldPrefix(text, "more") {
		// \b, then .* (no \n), "..." and trailing \s up to the end.
		rest := text[len("more"):]
		if rest != "" && !isWord(rest[0]) {
			rest = strings.TrimRight(rest, " \t\n\f\r")
			if strings.HasSuffix(rest, "...") && strings.IndexByte(rest[:len(rest)-3], '\n') < 0 {
				return true
			}
		}
		return false
	}
	if !hasFoldPrefix(text, "clic") {
		return false
	}
	rest := text[len("clic"):]
	switch {
	case rest != "" && rest[0]|0x20 == 'k':
		rest = rest[1:]
	case strings.HasPrefix(rest, "\u212a"):
		rest = rest[len("\u212a"):]
	default:
		return false
	}
	return hasFoldPrefix(rest, " here for more")
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
		case isMore(text):
			units = append(units, Unit{Type: More, Text: text, Line: i})
		case !titleSeen:
			titleSeen = true
			units = appendTitleUnits(units, text, i)
		case isURL(text):
			units = append(units, Unit{Type: DisplayURL, Text: text, Line: i})
		default:
			if price := findPrice(text); price != "" {
				units = append(units, Unit{Type: Price, Text: price, Line: i})
			} else {
				units = append(units, Unit{Type: Snippet, Text: text, Line: i})
			}
		}
	}
	return units
}

// appendTitleUnits splits a title line into rank, title and date units.
func appendTitleUnits(units []Unit, text string, line int) []Unit {
	if rank, n := rankPrefix(text); n > 0 {
		units = append(units, Unit{Type: Rank, Text: rank, Line: line})
		text = strings.TrimSpace(text[n:])
	}
	if m := findDate(text); m != "" {
		units = append(units, Unit{Type: Date, Text: m, Line: line})
		text = strings.TrimSpace(strings.Replace(text, m, "", 1))
		text = strings.Join(strings.Fields(text), " ")
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
