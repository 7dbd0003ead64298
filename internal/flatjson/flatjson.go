// Package flatjson reads and writes the one JSON shape the write-ahead
// log's commonest frames take: an object whose keys come in a fixed order,
// whose strings need no escaping, whose numbers are unsigned integers and
// whose times are RFC 3339 strings — exactly the bytes encoding/json writes
// for such a struct.
//
// It is a fast path and nothing more. A Reader that meets any byte outside
// that shape fails, a Writer asked for a value encoding/json would escape
// fails, and the caller then hands the value to encoding/json, which stays
// the reference for every shape.
package flatjson

import (
	"math"
	"strconv"
	"time"
)

// Reader reads one JSON object from the front of p, a piece at a time. The
// first mismatch makes it fail; every read after that returns the zero
// value, so a caller reads the whole shape and asks End once.
type Reader struct {
	p      []byte
	i      int
	failed bool
}

// NewReader returns a Reader over p.
func NewReader(p []byte) Reader { return Reader{p: p} }

// End reports whether every read matched and consumed all of the input.
func (r *Reader) End() bool { return !r.failed && r.i == len(r.p) }

// Literal consumes lit, which must come next.
func (r *Reader) Literal(lit string) {
	if !r.Optional(lit) {
		r.failed = true
	}
}

// Optional consumes lit if it comes next and reports whether it did: the
// key of a field encoding/json omits when it is empty.
func (r *Reader) Optional(lit string) bool {
	if r.failed || len(r.p)-r.i < len(lit) || string(r.p[r.i:r.i+len(lit)]) != lit {
		return false
	}
	r.i += len(lit)
	return true
}

// String reads a string that needs no unescaping: a quote, printable ASCII
// other than `"` and `\`, a quote.
func (r *Reader) String() string { return string(r.quoted()) }

// quoted reads what String does and returns the bytes between the quotes.
func (r *Reader) quoted() []byte {
	if r.failed || r.i == len(r.p) || r.p[r.i] != '"' {
		r.failed = true
		return nil
	}
	for j := r.i + 1; j < len(r.p); j++ {
		switch c := r.p[j]; {
		case c == '"':
			s := r.p[r.i+1 : j]
			r.i = j + 1
			return s
		case c < 0x20 || c > 0x7e || c == '\\':
			r.failed = true
			return nil
		}
	}
	r.failed = true
	return nil
}

// Uint reads an unsigned integer written the one way encoding/json writes
// it: 0, or a non-zero digit and more digits, at most math.MaxUint64.
func (r *Reader) Uint() uint64 {
	var v uint64
	j := r.i
	for ; j < len(r.p) && '0' <= r.p[j] && r.p[j] <= '9'; j++ {
		d := uint64(r.p[j] - '0')
		if v > (math.MaxUint64-d)/10 {
			r.failed = true
			return 0
		}
		v = v*10 + d
	}
	if r.failed || j == r.i || (r.p[r.i] == '0' && j > r.i+1) {
		r.failed = true
		return 0
	}
	r.i = j
	return v
}

// Time reads a string holding an RFC 3339 time, parsed by
// time.Time.UnmarshalText: the strict parser time.Time.UnmarshalJSON uses.
func (r *Reader) Time() time.Time {
	var t time.Time
	if s := r.quoted(); r.failed || t.UnmarshalText(s) != nil {
		r.failed = true
		return time.Time{}
	}
	return t
}

// RawLast reads the value of an object's last field, which runs to the
// input's final byte (the object's close, read next with Literal). The
// value must have no white space at either end, as encoding/json writes
// it; whether it is JSON is not checked here, because the caller decodes
// it and must refuse a value that does not decode. The result aliases the
// input and its capacity ends where it does, so an append to it copies
// instead of writing over the bytes that follow.
func (r *Reader) RawLast() []byte {
	end := len(r.p) - 1
	if r.failed || end <= r.i || isSpace(r.p[r.i]) || isSpace(r.p[end-1]) {
		r.failed = true
		return nil
	}
	v := r.p[r.i:end:end]
	r.i = end
	return v
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// Writer appends one JSON object to a buffer, a piece at a time. A value
// encoding/json would write differently makes it fail; the caller reads
// the result once, with Bytes.
type Writer struct {
	b      []byte
	failed bool
}

// NewWriter returns a Writer that appends to dst.
func NewWriter(dst []byte) Writer { return Writer{b: dst} }

// Bytes returns the buffer and reports whether every piece was written as
// encoding/json would have written it.
func (w *Writer) Bytes() ([]byte, bool) { return w.b, !w.failed }

// Literal appends lit as it is.
func (w *Writer) Literal(lit string) { w.b = append(w.b, lit...) }

// String appends s in quotes. It fails unless s is printable ASCII other
// than `"` and `\`, which would need escaping, and `<`, `>` and `&`, which
// encoding/json escapes for HTML.
func (w *Writer) String(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.failed = true
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// Uint appends v in decimal.
func (w *Writer) Uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }

// Time appends t as a quoted RFC 3339 time with time.Time.AppendText, the
// format time.Time.MarshalJSON writes. It fails where AppendText does: a
// year outside 0–9999, or a zone offset of a day or more.
func (w *Writer) Time(t time.Time) {
	b, err := t.AppendText(append(w.b, '"'))
	if err != nil {
		w.failed = true
		return
	}
	w.b = append(b, '"')
}
