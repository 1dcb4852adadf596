package serve

// The /extract/batch body decoder: one pass over the request bytes that
// validates the whole JSON grammar and fills []batchItem as json.Unmarshal
// would, without reflection.  decodeBatchReference in decode_test.go
// decodes with json.Unmarshal and is its oracle:
// TestDecodeBatchMatchesReference and FuzzDecodeBatch hold the two to the
// same accept/reject decision and the same items.  The encoding/json behaviours it reproduces:
//
//   - Keys match exactly, else by bytes.EqualFold after unescaping, so
//     "HTML" and "itemſ" (U+017F) match.  Unknown keys are skipped, and
//     a duplicate key overwrites the earlier value.
//   - null leaves a field unchanged, and a null item leaves its slot as it
//     was: zero, or what an earlier duplicate "items" array decoded there.
//     A second "items" array decodes into the first one's elements, slice
//     capacity included, as the reflective decoder does.
//   - A value of the wrong type is an error.
//   - \uXXXX escapes and surrogate pairs are decoded; a lone surrogate and
//     each invalid UTF-8 byte become U+FFFD; a raw control byte is an
//     error.
//   - Nesting deeper than maxNestingDepth is an error.  Skipped values are
//     walked with an explicit stack, not by recursion, so no body can
//     overflow the goroutine stack.
//
// Every decoded string is its own allocation: the relearn reservoir keeps
// html, and extracted lines slice into it, so nothing may alias the
// pooled read buffer.

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxNestingDepth is encoding/json's nesting limit: a body nested deeper
// is a syntax error there, so it is one here.
const maxNestingDepth = 10000

// batchDecoder holds one decode's cursor and its reusable scratch.
type batchDecoder struct {
	data  []byte
	off   int
	buf   []byte // unescaped bytes of the current string
	stack []byte // open containers of the value being skipped
}

var decoderPool = sync.Pool{New: func() any { return new(batchDecoder) }}

// decodeBatch accepts either {"items":[...]} or a bare JSON array.
func decodeBatch(body []byte) ([]batchItem, error) {
	d := decoderPool.Get().(*batchDecoder)
	d.data, d.off = body, 0
	items, err := d.decode()
	d.data = nil
	if cap(d.buf) > maxPooledBody {
		d.buf = nil
	}
	decoderPool.Put(d)
	return items, err
}

func (d *batchDecoder) decode() ([]batchItem, error) {
	d.space()
	var items []batchItem
	var err error
	switch d.peek() {
	case '[':
		items, err = d.array(nil, 1)
	case '{':
		items, err = d.wrapper()
	case 'n':
		err = d.literal("null")
	default:
		err = d.wrongType("batch")
	}
	if err != nil {
		return nil, err
	}
	d.space()
	if d.off < len(d.data) {
		return nil, d.syntax("after top-level value")
	}
	return items, nil
}

// wrapper decodes {"items":[...]}: the object at depth 1.
func (d *batchDecoder) wrapper() (items []batchItem, err error) {
	err = d.object(1, func(key []byte) error {
		if !keyIs(key, "items") {
			return d.skip(1)
		}
		switch d.peek() {
		case 'n':
			items = nil
			return d.literal("null")
		case '[':
			var err error
			items, err = d.array(items, 2)
			return err
		}
		return d.wrongType("items array")
	})
	return items, err
}

// array decodes a JSON array of items, at the given depth, into items:
// elements within the slice's capacity are decoded in place, so a
// duplicate "items" key merges into what the earlier one decoded.
func (d *batchDecoder) array(items []batchItem, depth int) ([]batchItem, error) {
	d.off++ // '['
	d.space()
	if d.peek() == ']' {
		d.off++
		return []batchItem{}, nil
	}
	for i := 0; ; {
		if i < cap(items) {
			if i >= len(items) {
				items = items[:i+1]
			}
		} else {
			items = append(items, batchItem{})
		}
		if err := d.item(&items[i], depth); err != nil {
			return nil, err
		}
		i++
		d.space()
		switch d.peek() {
		case ',':
			d.off++
			d.space()
			continue
		case ']':
			d.off++
			return items[:i], nil
		}
		return nil, d.syntax("after array element")
	}
}

// item decodes one element of an array at depth into it.
func (d *batchDecoder) item(it *batchItem, depth int) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
		return d.object(depth+1, func(key []byte) error {
			var dst *string
			switch {
			case keyIs(key, "html"):
				dst = &it.HTML
			case keyIs(key, "q"):
				dst = &it.Query
			case keyIs(key, "engine"):
				dst = &it.Engine
			default:
				return d.skip(depth + 1)
			}
			switch d.peek() {
			case '"':
				s, err := d.str()
				if err != nil {
					return err
				}
				*dst = string(s)
				return nil
			case 'n':
				return d.literal("null")
			}
			return d.wrongType("string field")
		})
	}
	return d.wrongType("batch item")
}

// keyIs matches an unescaped object key to a field name as encoding/json
// does: exactly, else under Unicode case folding, which for these
// distinct names comes to the same as folding alone.
func keyIs(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// object walks the object at d.off, which sits at the given depth, and
// calls field with each unescaped key once the cursor is on its value;
// field must consume the value.  The key bytes are valid until field
// decodes a string.
func (d *batchDecoder) object(depth int, field func(key []byte) error) error {
	d.off++ // '{'
	d.space()
	if d.peek() == '}' {
		d.off++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		if err := field(key); err != nil {
			return err
		}
		d.space()
		switch d.peek() {
		case ',':
			d.off++
			d.space()
			continue
		case '}':
			d.off++
			return nil
		}
		return d.syntax("after object key:value pair")
	}
}

// key reads an object key and its colon, leaving the cursor on the value.
func (d *batchDecoder) key() ([]byte, error) {
	if d.peek() != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	d.space()
	if d.peek() != ':' {
		return nil, d.syntax("after object key")
	}
	d.off++
	d.space()
	return key, nil
}

// skip validates and steps over the value at d.off, inside containers
// open to the given depth.  It keeps its own stack of open containers
// instead of recursing.
func (d *batchDecoder) skip(depth int) error {
	stack := d.stack[:0]
	defer func() { d.stack = stack }()
	for {
		// A value starts at d.off.
		switch c := d.peek(); c {
		case '{', '[':
			if depth+len(stack) >= maxNestingDepth {
				return fmt.Errorf("exceeded max depth at offset %d", d.off)
			}
			d.off++
			d.space()
			if d.peek() == c+2 { // '}' or ']'
				d.off++
				break
			}
			stack = append(stack, c)
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, err := d.str(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if err := d.number(); err != nil {
				return err
			}
		}
		// The value ended: close the containers it completes, then step
		// to the next value of the innermost one still open.
		for {
			if len(stack) == 0 {
				return nil
			}
			d.space()
			top := stack[len(stack)-1]
			c := d.peek()
			if c == top+2 {
				d.off++
				stack = stack[:len(stack)-1]
				continue
			}
			if c != ',' {
				return d.syntax("after container element")
			}
			d.off++
			d.space()
			if top == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// str decodes the string literal at d.off.  The result aliases the body
// (no escapes, valid UTF-8) or the decoder's scratch, so callers copy it.
func (d *batchDecoder) str() ([]byte, error) {
	data := d.data
	start := d.off + 1
	i := start
	for i < len(data) {
		c := data[i]
		if c == '"' {
			d.off = i + 1
			return data[start:i], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b := append(d.buf[:0], data[start:i]...)
	defer func() { d.buf = b }()
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return b, nil
		case c == '\\':
			if i+1 >= len(data) {
				d.off = len(data)
				return nil, d.syntax("")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := hex4(data, i+2)
				if r < 0 {
					d.off = i + 2
					for d.off < len(data) && isHex(data[d.off]) {
						d.off++
					}
					return nil, d.syntax("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if i+1 < len(data) && data[i] == '\\' && data[i+1] == 'u' {
						if dec := utf16.DecodeRune(r, hex4(data, i+2)); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i + 1
				return nil, d.syntax("in string escape code")
			}
			i += 2
		case c < ' ':
			d.off = i
			return nil, d.syntax("in string literal")
		case c < utf8.RuneSelf:
			j := i + 1
			for j < len(data) && data[j] >= ' ' && data[j] < utf8.RuneSelf && data[j] != '"' && data[j] != '\\' {
				j++
			}
			b = append(b, data[i:j]...)
			i = j
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, data[i:i+size]...)
			}
			i += size
		}
	}
	d.off = len(data)
	return nil, d.syntax("")
}

// hex4 parses the four hex digits at data[i:], or returns -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		switch {
		case isDigit(c):
			c -= '0'
		case 'a' <= c|0x20 && c|0x20 <= 'f':
			c = (c | 0x20) - 'a' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func isHex(c byte) bool { return isDigit(c) || 'a' <= c|0x20 && c|0x20 <= 'f' }

// literal steps over true, false or null.
func (d *batchDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.off++
	}
	return nil
}

// number validates and steps over a JSON number.
func (d *batchDecoder) number() error {
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.off++
		d.digits()
	default:
		return d.syntax("looking for beginning of value")
	}
	if d.peek() == '.' {
		d.off++
		if !isDigit(d.peek()) {
			return d.syntax("after decimal point in numeric literal")
		}
		d.digits()
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !isDigit(d.peek()) {
			return d.syntax("in exponent of numeric literal")
		}
		d.digits()
	}
	return nil
}

func (d *batchDecoder) digits() {
	for isDigit(d.peek()) {
		d.off++
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// peek returns the byte at the cursor, or 0 at the end of the body (0 is
// never valid there, so every caller rejects it).
func (d *batchDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *batchDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\r', '\n':
			d.off++
			continue
		}
		return
	}
}

// syntax reports the byte at the cursor as invalid in context.
func (d *batchDecoder) syntax(context string) error {
	if d.off >= len(d.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], context, d.off)
}

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// wrongType reports a value that cannot decode into want, or a syntax
// error when no value starts at the cursor.
func (d *batchDecoder) wrongType(want string) error {
	var got string
	switch c := d.peek(); {
	case c == '"':
		got = "string"
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || isDigit(c):
		got = "number"
	default:
		return d.syntax("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into %s at offset %d", got, want, d.off)
}
