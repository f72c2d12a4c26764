package record

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"unicode/utf16"
	"unicode/utf8"
)

// The row decoder: one hand-written pass over the row wire shape
// {"entity":N,"attrs":{...}} (JSONLRecord), for every record that enters
// the process — HTTP ingest bodies, segment restore and JSONL dataset
// files. It accepts exactly what encoding/json accepts when unmarshalling
// into JSONLRecord, which FuzzDecodeRows pins against encoding/json itself:
//
//   - keys match "entity" and "attrs" by bytes.EqualFold; any other key is
//     skipped, its value still fully validated;
//   - entity is an int32 or null (a number with a fraction or exponent, or
//     out of range, is a type error);
//   - attrs is an object or null; a repeated attrs key merges into one map,
//     a null one empties it; an attribute value is a string, or null,
//     which stores "";
//   - strings decode \u escapes and surrogate pairs; invalid UTF-8 and lone
//     surrogates become U+FFFD; raw control characters are rejected;
//   - a null row is a zero row (unknown entity, no attributes);
//   - any type error rejects the whole input, as do trailing bytes.
//
// Attribute names are interned per decoder (a dataset has a handful of
// distinct names), and each row's values are copied out of the input into
// one string of their own, so no decoded record keeps the request body or
// the scanner buffer alive.

const (
	// maxDepth is encoding/json's nesting limit: a container nested deeper
	// than this, even inside a skipped value, rejects the input.
	maxDepth = 10000
	// maxLine caps one JSONL line.
	maxLine = 16 << 20
	// maxInterned bounds a decoder's table of attribute names; names past
	// it are still decoded, just not shared.
	maxInterned = 256
)

var (
	entityKey = []byte("entity")
	attrsKey  = []byte("attrs")

	// plain marks the bytes a string literal copies verbatim without a
	// second look: printable ASCII other than '"' and '\\'.
	plain = func() (t [256]bool) {
		for c := 0x20; c < utf8.RuneSelf; c++ {
			t[c] = c != '"' && c != '\\'
		}
		return t
	}()
)

// DecodeRows decodes an ingest body — one row, or a JSON array of rows —
// after trimming surrounding whitespace, and calls fn once per row in
// order. fn owns the map it is handed. On error, fn may already have been
// called for rows before the bad one; callers commit rows only on a nil
// error, as the whole body is rejected.
func DecodeRows(body []byte, fn func(EntityID, map[string]string)) error {
	d := decoder{buf: bytes.TrimSpace(body)}
	if len(d.buf) > 0 && d.buf[0] == '[' {
		if err := d.array(fn); err != nil {
			return fmt.Errorf("record: row array: %w", err)
		}
		return nil
	}
	if err := d.single(fn); err != nil {
		return fmt.Errorf("record: row: %w", err)
	}
	return nil
}

// ScanJSONL decodes a JSON Lines stream: one row per line, surrounding
// whitespace trimmed, blank lines skipped, lines capped at 16 MiB. fn is
// called once per row in line order and owns the map it is handed; errors
// name the offending line. As with DecodeRows, fn may already have been
// called for earlier lines when an error is returned.
func ScanJSONL(r io.Reader, fn func(EntityID, map[string]string)) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	var d decoder
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		d.buf, d.pos = raw, 0
		if err := d.single(fn); err != nil {
			return fmt.Errorf("record: jsonl line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("record: read jsonl: %w", err)
	}
	return nil
}

// decoder holds one input plus the scratch state reused across its rows.
type decoder struct {
	buf  []byte
	pos  int
	rows int // array elements handed to fn so far

	key   []byte            // the current decoded key
	vals  []byte            // the current row's decoded values, back to back
	ents  []attrEnt         // the current row's attributes, in input order
	names map[string]string // interned attribute names
}

// attrEnt is one decoded attribute: its name and its value's span in vals.
type attrEnt struct {
	name   string
	lo, hi int
}

// single decodes the whole input as one row.
func (d *decoder) single(fn func(EntityID, map[string]string)) error {
	entity, attrs, err := d.row(1)
	if err != nil {
		return err
	}
	if d.pos != len(d.buf) {
		return d.unexpected("end of input")
	}
	fn(entity, attrs)
	return nil
}

// array decodes the whole input as a JSON array of rows.
func (d *decoder) array(fn func(EntityID, map[string]string)) error {
	d.pos++ // '['
	d.ws()
	if d.peek() == ']' {
		d.pos++
		return d.end()
	}
	for {
		entity, attrs, err := d.row(2)
		if err != nil {
			return fmt.Errorf("element %d: %w", d.rows, err)
		}
		fn(entity, attrs)
		d.rows++
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case ']':
			d.pos++
			return d.end()
		default:
			return d.unexpected("',' or ']'")
		}
	}
}

// end rejects anything after the top-level value.
func (d *decoder) end() error {
	if d.pos != len(d.buf) {
		return d.unexpected("end of input")
	}
	return nil
}

// row decodes one row object (or null) nested at depth.
func (d *decoder) row(depth int) (EntityID, map[string]string, error) {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return 0, nil, err
		}
		return UnknownEntity, map[string]string{}, nil
	case '{':
	default:
		return 0, nil, d.unexpected("a row object")
	}
	d.pos++
	entity := UnknownEntity
	d.ents, d.vals = d.ents[:0], d.vals[:0]
	d.ws()
	if d.peek() == '}' {
		d.pos++
		return entity, d.attrMap(), nil
	}
	for {
		if d.peek() != '"' {
			return 0, nil, d.unexpected("an object key")
		}
		var err error
		if d.key, err = d.str(d.key[:0]); err != nil {
			return 0, nil, err
		}
		if err := d.colon(); err != nil {
			return 0, nil, err
		}
		// encoding/json matches field names case-insensitively, by Unicode
		// simple folding.
		switch {
		case bytes.EqualFold(d.key, entityKey):
			entity, err = d.entity()
		case bytes.EqualFold(d.key, attrsKey):
			err = d.attrs()
		default:
			err = d.skip(depth + 1)
		}
		if err != nil {
			return 0, nil, err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			return entity, d.attrMap(), nil
		default:
			return 0, nil, d.unexpected("',' or '}'")
		}
	}
}

// entity decodes the entity value: an integer in int32 range, or null.
func (d *decoder) entity() (EntityID, error) {
	c := d.peek()
	if c == 'n' {
		return UnknownEntity, d.literal("null")
	}
	if c != '-' && (c < '0' || c > '9') {
		return 0, d.unexpected("an integer entity or null")
	}
	start := d.pos
	neg := c == '-'
	if neg {
		d.pos++
	}
	var n int64
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case c >= '1' && c <= '9':
		for d.pos < len(d.buf) && d.buf[d.pos] >= '0' && d.buf[d.pos] <= '9' {
			n = n*10 + int64(d.buf[d.pos]-'0')
			d.pos++
			if n > -math.MinInt32 {
				return 0, d.errorf("entity %s... is out of int32 range", d.buf[start:d.pos])
			}
		}
	default:
		return 0, d.unexpected("a digit")
	}
	if c := d.peek(); c == '.' || c == 'e' || c == 'E' {
		return 0, d.errorf("entity %s%c... is not an integer", d.buf[start:d.pos], c)
	}
	if neg {
		n = -n
	}
	if n > math.MaxInt32 {
		return 0, d.errorf("entity %s is out of int32 range", d.buf[start:d.pos])
	}
	return EntityID(n), nil
}

// attrs decodes an attrs value into the current row: an object of string
// (or null) values merges into the attributes decoded so far, null clears
// them.
func (d *decoder) attrs() error {
	switch d.peek() {
	case 'n':
		d.ents, d.vals = d.ents[:0], d.vals[:0]
		return d.literal("null")
	case '{':
	default:
		return d.unexpected("an attrs object or null")
	}
	d.pos++
	d.ws()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.unexpected("an attribute name")
		}
		var err error
		if d.key, err = d.str(d.key[:0]); err != nil {
			return err
		}
		name := d.intern(d.key)
		if err := d.colon(); err != nil {
			return err
		}
		lo := len(d.vals)
		switch d.peek() {
		case '"':
			if d.vals, err = d.str(d.vals); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.unexpected(fmt.Sprintf("a string or null value for attribute %q", name))
		}
		d.ents = append(d.ents, attrEnt{name: name, lo: lo, hi: len(d.vals)})
		d.ws()
		switch d.peek() {
		case ',':
			d.pos++
			d.ws()
		case '}':
			d.pos++
			return nil
		default:
			return d.unexpected("',' or '}'")
		}
	}
}

// attrMap builds the current row's attribute map. All its values share
// one string copied out of the input; a later repeat of a name wins.
func (d *decoder) attrMap() map[string]string {
	m := make(map[string]string, len(d.ents))
	vals := string(d.vals)
	for _, e := range d.ents {
		m[e.name] = vals[e.lo:e.hi]
	}
	return m
}

// intern returns the decoder's shared string for an attribute name.
func (d *decoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(d.names) < maxInterned {
		if d.names == nil {
			d.names = make(map[string]string)
		}
		d.names[s] = s
	}
	return s
}

// str decodes the string literal at d.pos and appends its value to dst.
func (d *decoder) str(dst []byte) ([]byte, error) {
	buf := d.buf
	i := d.pos + 1
	run := i // start of the pending run of bytes copied verbatim
	for i < len(buf) {
		c := buf[i]
		if plain[c] {
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRune(buf[i:])
			if r == utf8.RuneError && size == 1 {
				dst = append(dst, buf[run:i]...)
				dst = utf8.AppendRune(dst, utf8.RuneError)
				run = i + 1
			}
			i += size
			continue
		}
		dst = append(dst, buf[run:i]...)
		switch c {
		case '"':
			d.pos = i + 1
			return dst, nil
		case '\\':
			var err error
			if dst, i, err = d.escape(dst, i); err != nil {
				return dst, err
			}
			run = i
		default:
			d.pos = i
			return dst, d.errorf("invalid control character %#02x in string", c)
		}
	}
	d.pos = len(buf)
	return dst, d.unexpected("the end of a string")
}

// escape decodes the escape sequence at buf[i] == '\\', appends it to dst
// and returns the index just past it. A \u surrogate half pairs with an
// immediately following \u low half; unpaired, it decodes as U+FFFD.
func (d *decoder) escape(dst []byte, i int) ([]byte, int, error) {
	buf := d.buf
	if i+1 >= len(buf) {
		d.pos = len(buf)
		return dst, i, d.unexpected("an escape sequence")
	}
	switch c := buf[i+1]; c {
	case '"', '\\', '/':
		return append(dst, c), i + 2, nil
	case 'b':
		return append(dst, '\b'), i + 2, nil
	case 'f':
		return append(dst, '\f'), i + 2, nil
	case 'n':
		return append(dst, '\n'), i + 2, nil
	case 'r':
		return append(dst, '\r'), i + 2, nil
	case 't':
		return append(dst, '\t'), i + 2, nil
	case 'u':
		r, ok := hex4(buf, i+2)
		if !ok {
			d.pos = i
			return dst, i, d.errorf(`invalid \u escape`)
		}
		i += 6
		if utf16.IsSurrogate(r) {
			if i+1 < len(buf) && buf[i] == '\\' && buf[i+1] == 'u' {
				if r2, ok := hex4(buf, i+2); ok {
					if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
						return utf8.AppendRune(dst, dec), i + 6, nil
					}
				}
			}
			r = utf8.RuneError
		}
		return utf8.AppendRune(dst, r), i, nil
	default:
		d.pos = i
		return dst, i, d.errorf("invalid escape %q", buf[i:i+2])
	}
}

// hex4 parses the four hex digits at buf[i:].
func hex4(buf []byte, i int) (rune, bool) {
	if i+4 > len(buf) {
		return 0, false
	}
	var r rune
	for _, c := range buf[i : i+4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// skip validates and steps over any JSON value; a container it meets sits
// at nesting depth.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '"':
		return d.skipString()
	case c == '{', c == '[':
		if depth > maxDepth {
			return d.errorf("exceeded max nesting depth %d", maxDepth)
		}
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		d.pos++
		d.ws()
		if d.peek() == closer {
			d.pos++
			return nil
		}
		for {
			if c == '{' {
				if d.peek() != '"' {
					return d.unexpected("an object key")
				}
				if err := d.skipString(); err != nil {
					return err
				}
				if err := d.colon(); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			d.ws()
			switch d.peek() {
			case ',':
				d.pos++
				d.ws()
			case closer:
				d.pos++
				return nil
			default:
				return d.unexpected(fmt.Sprintf("',' or '%c'", closer))
			}
		}
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-', c >= '0' && c <= '9':
		return d.skipNumber()
	default:
		return d.unexpected("a value")
	}
}

// skipString validates the string literal at d.pos. It decodes it into the
// key scratch buffer, which its callers are done with: skipped values are
// rare enough that a second, validate-only string scanner is not worth it.
func (d *decoder) skipString() error {
	var err error
	d.key, err = d.str(d.key[:0])
	return err
}

// skipNumber validates the JSON number at d.pos:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *decoder) skipNumber() error {
	if d.peek() == '-' {
		d.pos++
	}
	switch c := d.peek(); {
	case c == '0':
		d.pos++
	case c >= '1' && c <= '9':
		d.digits()
	default:
		return d.unexpected("a digit")
	}
	if d.peek() == '.' {
		d.pos++
		if !d.digits() {
			return d.unexpected("a digit")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !d.digits() {
			return d.unexpected("a digit")
		}
	}
	return nil
}

// digits steps over a run of decimal digits and reports whether it was
// non-empty.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.buf) && d.buf[d.pos] >= '0' && d.buf[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// literal consumes the literal word (true, false or null) at d.pos.
func (d *decoder) literal(word string) error {
	if len(d.buf)-d.pos < len(word) || string(d.buf[d.pos:d.pos+len(word)]) != word {
		return d.unexpected(word)
	}
	d.pos += len(word)
	return nil
}

// colon consumes the ':' after an object key and the whitespace around it.
func (d *decoder) colon() error {
	d.ws()
	if d.peek() != ':' {
		return d.unexpected("':'")
	}
	d.pos++
	d.ws()
	return nil
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.buf) {
		switch d.buf[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek returns the byte at d.pos, or 0 at the end of the input (0 is never
// valid where the decoder peeks).
func (d *decoder) peek() byte {
	if d.pos < len(d.buf) {
		return d.buf[d.pos]
	}
	return 0
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// unexpected reports what was found at d.pos where want was expected.
func (d *decoder) unexpected(want string) error {
	if d.pos >= len(d.buf) {
		return d.errorf("unexpected end of input, want %s", want)
	}
	return d.errorf("invalid character %q, want %s", d.buf[d.pos], want)
}
