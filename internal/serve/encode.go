package serve

// The /extract response encoder.  It appends, in one pass over the
// extracted sections, exactly the bytes encoding/json's
// MarshalIndent(v, "", "  ") plus a trailing newline produces for the
// wire form
//
//	{"engine": string,
//	 "sections": [{"heading": string (omitted when empty),
//	               "records": [{"lines": [string] (null when nil),
//	                            "links": [string] (omitted when empty),
//	                            "units": [{"type": string, "text": string}]
//	                                     (omitted when empty)}]}]}
//
// including encoding/json's HTML-safe string escaping.  The byte contract
// is pinned against a MarshalIndent oracle by TestEncodeEntryMatchesReference
// and FuzzEncodeEntry.  The batch envelope reuses the same writers.

import (
	"bytes"
	"strconv"
	"sync"
	"unicode/utf8"

	"mse/internal/annotate"
	"mse/internal/core"
	"mse/internal/excache"
)

// encoder is the pooled scratch of one response encoding.
type encoder struct {
	buf   []byte
	units []annotate.Unit
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// maxPooledEncodeBytes bounds the scratch buffer a pooled encoder keeps: a
// rare huge response should not keep a buffer that size circulating.
const maxPooledEncodeBytes = 1 << 20

// buildEntry serializes sections into the exact bytes /extract writes
// (indented JSON plus trailing newline), so cached and uncached responses
// are byte-identical by construction.  The body is an exact-size copy
// (len == cap): the cache budget charges len(Body), so a body must not
// carry unused capacity.
func buildEntry(name string, sections []*core.Section) *excache.Entry {
	enc := encoderPool.Get().(*encoder)
	b := append(enc.buf[:0], "{\n  \"engine\": "...)
	b = appendString(b, name)
	b = append(b, ",\n  \"sections\": "...)
	records := 0
	if len(sections) == 0 {
		b = append(b, "[]"...)
	} else {
		b = append(b, '[')
		for i, s := range sections {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    {"...)
			if s.Heading != "" {
				b = append(b, "\n      \"heading\": "...)
				b = appendString(b, s.Heading)
				b = append(b, ',')
			}
			b = append(b, "\n      \"records\": "...)
			if len(s.Records) == 0 {
				b = append(b, "[]"...)
			} else {
				b = append(b, '[')
				for j, rec := range s.Records {
					if j > 0 {
						b = append(b, ',')
					}
					enc.units = annotate.AppendRecord(enc.units[:0], rec)
					b = appendRecord(b, rec, enc.units)
				}
				b = append(b, "\n      ]"...)
			}
			b = append(b, "\n    }"...)
			records += len(s.Records)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, "\n}\n"...)

	body := make([]byte, len(b))
	copy(body, b)
	// The units' texts slice into the request's page; clear them so the
	// pooled encoder does not keep a served page alive.
	clear(enc.units[:cap(enc.units)])
	if cap(b) <= maxPooledEncodeBytes {
		enc.buf = b
		encoderPool.Put(enc)
	}
	return &excache.Entry{Body: body, Sections: len(sections), Records: records}
}

// appendRecord appends one record object at its fixed depth in the
// response (four levels: object, sections array, section, records array).
func appendRecord(b []byte, rec core.Record, units []annotate.Unit) []byte {
	b = append(b, "\n        {\n          \"lines\": "...)
	b = appendStringArray(b, rec.Lines, "\n          ")
	if len(rec.Links) > 0 {
		b = append(b, ",\n          \"links\": "...)
		b = appendStringArray(b, rec.Links, "\n          ")
	}
	if len(units) > 0 {
		b = append(b, ",\n          \"units\": ["...)
		for k, u := range units {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n            {\n              \"type\": "...)
			b = appendString(b, u.Type.String())
			b = append(b, ",\n              \"text\": "...)
			b = appendString(b, u.Text)
			b = append(b, "\n            }"...)
		}
		b = append(b, "\n          ]"...)
	}
	return append(b, "\n        }"...)
}

// appendStringArray appends ss as an indented JSON array whose closing
// bracket sits after indent (a newline plus the enclosing indentation):
// null for a nil slice, [] for an empty one.
func appendStringArray(b []byte, ss []string, indent string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	if len(ss) == 0 {
		return append(b, "[]"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, indent...)
		b = append(b, "  "...)
		b = appendString(b, s)
	}
	b = append(b, indent...)
	return append(b, ']')
}

// jsonSafe marks the ASCII bytes encoding/json writes verbatim inside an
// HTML-escaped string: everything from space up, except '"', '\\', '<',
// '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string exactly as encoding/json
// escapes it with HTML escaping on (the Marshal default): short escapes
// for '"', '\\', \b, \f, \n, \r and \t; \u00XX for the other control
// bytes and for '<', '>' and '&'; \u2028 and \u2029 for the JavaScript
// line separators; and \ufffd for each byte of invalid UTF-8.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendBatchItem appends one batch item exactly as json.Marshal writes
// batchItemResult, except that a 200 item's result body is spliced in as
// /extract wrote it (indented, trailing newline dropped) instead of being
// re-tokenized and compacted.
func appendBatchItem(b []byte, res *batchItemResult) []byte {
	b = append(b, '{')
	if res.Engine != "" {
		b = append(b, `"engine":`...)
		b = appendString(b, res.Engine)
		b = append(b, ',')
	}
	b = append(b, `"status":`...)
	b = strconv.AppendInt(b, int64(res.Status), 10)
	if res.Cached {
		b = append(b, `,"cached":true`...)
	}
	if res.OwnerShard != nil {
		b = append(b, `,"owner_shard":`...)
		b = strconv.AppendInt(b, int64(*res.OwnerShard), 10)
	}
	if res.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, res.Error)
	}
	if body := res.Result; len(body) > 0 {
		b = append(b, `,"result":`...)
		b = append(b, bytes.TrimRight(body, "\n")...)
	}
	return append(b, '}')
}
