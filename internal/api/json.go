package api

import (
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/patternsoflife/pol/internal/hexgrid"
)

// jsonBody is the API's one JSON encoder: without reflection it appends the
// bytes of a json.Encoder indenting by two spaces, for members written in
// the old response structs' order (sorted where a body was a map).
type jsonBody struct {
	b     []byte
	depth int // containers open; at most 4 (the deepest body holds 3)
}

// bodyInitCap fits a /v1/cell body (~0.8 KB), so only lists grow a buffer.
const bodyInitCap = 2 << 10

// pooledBodyCap is the largest buffer the pool keeps (a /v1/odcells body is
// 72 KB at the median on the benchmark's fleet); sync.Pool holds one spare
// per P and drops the extras concurrent requests leave within two GCs.
const pooledBodyCap = 1 << 20

var bodies = sync.Pool{New: func() any { return &jsonBody{b: make([]byte, 0, bodyInitCap)} }}

func newBody() *jsonBody { return bodies.Get().(*jsonBody) }

// send answers status with the finished document, its length known before
// the header goes out, and returns the emptied buffer to the pool.
func (j *jsonBody) send(w http.ResponseWriter, status int) {
	j.b = append(j.b, '\n')
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(j.b)))
	w.WriteHeader(status)
	_, _ = w.Write(j.b) // a failed write is the client gone; nothing to answer
	if cap(j.b) <= pooledBodyCap {
		j.b = j.b[:0]
		bodies.Put(j)
	}
}

const indent = "\n        " // a newline and two spaces a level

// member starts a value: inside a container a comma (unless it was just
// opened) and a fresh indented line, then the key inside an object. Keys
// are written verbatim: every key is a program constant (a literal, or a
// group set's name in /v1/info) with nothing to escape. Value methods
// return j, so related members chain on one line.
func (j *jsonBody) member(key string) {
	if j.depth > 0 {
		if c := j.b[len(j.b)-1]; c != '[' && c != '{' {
			j.b = append(j.b, ',')
		}
		j.b = append(j.b, indent[:1+2*j.depth]...)
	}
	if key != "" {
		j.b = append(append(append(j.b, '"'), key...), '"', ':', ' ')
	}
}

func (j *jsonBody) open(key string, bracket byte) *jsonBody {
	j.member(key)
	j.b = append(j.b, bracket)
	j.depth++
	return j
}

// close ends the innermost container, on its own line unless it is empty.
func (j *jsonBody) close(bracket byte) *jsonBody {
	if j.depth--; j.b[len(j.b)-1] != bracket-2 { // '[' and '{' are ']' and '}' less two
		j.b = append(j.b, indent[:1+2*j.depth]...)
	}
	j.b = append(j.b, bracket)
	return j
}

func (j *jsonBody) str(key, v string) *jsonBody {
	j.member(key)
	j.b = appendJSONString(j.b, v)
	return j
}

func (j *jsonBody) u64(key string, v uint64) *jsonBody {
	j.member(key)
	j.b = strconv.AppendUint(j.b, v, 10)
	return j
}

func (j *jsonBody) i64(key string, v int64) *jsonBody {
	j.member(key)
	j.b = strconv.AppendInt(j.b, v, 10)
	return j
}

// f64 writes v as appendF64 spells it.
func (j *jsonBody) f64(key string, v float64) *jsonBody {
	j.member(key)
	j.b = appendF64(j.b, v)
	return j
}

// appendF64 appends v as encoding/json spells it ('e' outside [1e-6,
// 1e21), no leading exponent zero), or null for NaN and ±Inf, which JSON
// cannot carry: an empty accumulator (no heading, ATA or ETO sample in a
// cell) reports NaN.
func appendF64(b []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	format := byte('f')
	if a := math.Abs(v); a != 0 && (a < 1e-6 || a >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b = append(b[:n-2], b[n-1]) // e-07 → e-7
	}
	return b
}

func (j *jsonBody) null(key string) *jsonBody {
	j.member(key)
	j.b = append(j.b, "null"...)
	return j
}

// cell writes a cell id as appendCellID spells it.
func (j *jsonBody) cell(key string, c hexgrid.Cell) *jsonBody {
	j.member(key)
	j.b = appendCellID(j.b, c)
	return j
}

// appendCellID appends a cell id, quoted, through the append routine
// Cell.String uses: a valid id's 16 hex digits need no escaping, and only
// InvalidCell's spelling goes through appendJSONString.
func appendCellID(b []byte, c hexgrid.Cell) []byte {
	if c == hexgrid.InvalidCell {
		return appendJSONString(b, c.String())
	}
	return append(c.AppendString(append(b, '"')), '"')
}

// appendJSONString appends s quoted as encoding/json quotes with HTML
// escaping on: \" \\ \b \f \n \r \t, \u escapes for other control bytes,
// < > & U+2028 U+2029, and an escaped U+FFFD per byte of invalid UTF-8.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := rune(s[i]), 1
		if c >= utf8.RuneSelf {
			c, size = utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		} else if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		i += size
		switch k := strings.IndexRune("\"\\\b\f\n\r\t", c); {
		case c >= utf8.RuneSelf && c != 0x2028 && c != 0x2029 && (c != utf8.RuneError || size > 1):
			continue
		case k >= 0:
			dst = append(append(dst, s[start:i-size]...), '\\', "\"\\bfnrt"[k])
		case c == utf8.RuneError:
			dst = append(append(dst, s[start:i-size]...), '\\', 'u', 'f', 'f', 'f', 'd')
		default:
			dst = append(append(dst, s[start:i-size]...), '\\', 'u', hex[c>>12], hex[c>>8&0xF], hex[c>>4&0xF], hex[c&0xF])
		}
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
