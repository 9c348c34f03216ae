package ais

import (
	"bytes"
	"encoding/binary"
)

// bitBuf is a big-endian bit vector backed by bytes, the wire representation
// of AIS message payloads before 6-bit armoring. Bit 0 is the most
// significant bit of byte 0, as in ITU-R M.1371 field tables.
//
// bits extends at least bitPad bytes past the last payload byte, so a field
// starting anywhere inside the payload is one 64-bit load or store. One
// access carries a field of up to 57 bits at any bit offset (7 + 57 = 64);
// the widest AIS field is 30.
type bitBuf struct {
	bits []byte
	n    int // length in bits
}

const bitPad = 8

// newBitBuf allocates a buffer of n bits, all zero.
func newBitBuf(n int) *bitBuf {
	return &bitBuf{bits: make([]byte, (n+7)/8+bitPad), n: n}
}

// Len returns the length in bits.
func (b *bitBuf) Len() int { return b.n }

// setUint writes the width low bits of v at bit offset start, MSB first.
// The field must lie inside the buffer.
func (b *bitBuf) setUint(start, width int, v uint64) {
	if start+width > b.n {
		panic("ais: bit field written past the end of the buffer")
	}
	word := b.bits[start>>3:]
	shift := uint(64 - start&7 - width)
	mask := (uint64(1)<<uint(width) - 1) << shift
	binary.BigEndian.PutUint64(word, binary.BigEndian.Uint64(word)&^mask|v<<shift&mask)
}

// uint reads width bits at offset start as an unsigned integer. Reads past
// the end return the available bits zero-padded (per the AIS convention that
// truncated trailing fields read as zero).
func (b *bitBuf) uint(start, width int) uint64 {
	if start >= b.n {
		return 0
	}
	v := binary.BigEndian.Uint64(b.bits[start>>3:]) << uint(start&7) >> uint(64-width)
	if over := start + width - b.n; over > 0 {
		v &^= uint64(1)<<uint(over) - 1
	}
	return v
}

// setInt writes a two's-complement signed value of the given width.
func (b *bitBuf) setInt(start, width int, v int64) {
	b.setUint(start, width, uint64(v)&(1<<width-1))
}

// int reads width bits as a two's-complement signed integer.
func (b *bitBuf) int(start, width int) int64 {
	v := b.uint(start, width)
	if v&(1<<(width-1)) != 0 {
		return int64(v) - (1 << width)
	}
	return int64(v)
}

// sixBitChars is the AIS 6-bit text alphabet indexed by field value:
// values 0-31 map to '@' + v, values 32-63 map to ' ' + (v - 32).
func sixBitChar(v byte) byte {
	if v < 32 {
		return '@' + v
	}
	return v // 32..63 are ASCII space..'?'
}

// sixBitValue inverts sixBitChar; it reports ok=false for characters outside
// the AIS text alphabet. Lowercase letters are folded to uppercase.
func sixBitValue(c byte) (byte, bool) {
	if c >= 'a' && c <= 'z' {
		c -= 32
	}
	switch {
	case c >= '@' && c <= '_':
		return c - '@', true
	case c >= ' ' && c <= '?':
		return c, true
	default:
		return 0, false
	}
}

// setText writes a fixed-length 6-bit text field, padding with '@'.
// Characters outside the alphabet are replaced by '@'.
func (b *bitBuf) setText(start, chars int, s string) {
	for i := 0; i < chars; i++ {
		var v byte // '@' padding
		if i < len(s) {
			if sv, ok := sixBitValue(s[i]); ok {
				v = sv
			}
		}
		b.setUint(start+6*i, 6, uint64(v))
	}
}

// text reads a fixed-length 6-bit text field, trimming trailing '@' padding
// and spaces.
func (b *bitBuf) text(start, chars int) string {
	out := make([]byte, 0, chars)
	for i := 0; i < chars; i++ {
		v := byte(b.uint(start+6*i, 6))
		out = append(out, sixBitChar(v))
	}
	if i := bytes.IndexByte(out, '@'); i >= 0 {
		out = out[:i]
	}
	return string(bytes.TrimRight(out, " "))
}

// armorAlphabet is the printable payload alphabet indexed by 6-bit value:
// '0'..'W' carry 0-39 and '`'..'w' carry 40-63.
const armorAlphabet = "0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVW`abcdefghijklmnopqrstuvw"

// armorValue inverts armorAlphabet; characters outside it map to badArmor.
var armorValue = func() (t [256]byte) {
	for i := range t {
		t[i] = badArmor
	}
	for v := 0; v < len(armorAlphabet); v++ {
		t[armorAlphabet[v]] = byte(v)
	}
	return t
}()

const badArmor = 0xFF

// armor encodes the bit buffer into the printable 6-bit payload alphabet,
// returning the payload and the number of fill bits appended to pad to a
// 6-bit boundary.
func (b *bitBuf) armor() (payload []byte, fillBits int) {
	nChars := (b.n + 5) / 6
	fillBits = nChars*6 - b.n
	payload = make([]byte, nChars)
	for i := range payload {
		payload[i] = armorAlphabet[b.uint(i*6, 6)]
	}
	return payload, fillBits
}

// unarmor resets the buffer to the bits of a printable payload (with fill
// bits), reusing its storage; after an error it is empty. The final
// character's fill bits stay in storage past Len, where uint masks them.
func (b *bitBuf) unarmor(payload []byte, fillBits int) error {
	b.n = 0
	n := len(payload)*6 - fillBits
	if fillBits < 0 || fillBits > 5 || n < 0 {
		return ErrBadPayload
	}
	// Eight characters pack into six bytes; the low 48 bits of acc are
	// always the last eight characters.
	bits := b.bits[:0]
	var acc uint64
	for i, c := range payload {
		v := armorValue[c]
		if v == badArmor {
			return ErrBadPayload
		}
		acc = acc<<6 | uint64(v)
		if i&7 == 7 {
			bits = append(bits, byte(acc>>40), byte(acc>>32), byte(acc>>24), byte(acc>>16), byte(acc>>8), byte(acc))
		}
	}
	// The characters left over go out left-aligned in one word, then the pad.
	bits = binary.BigEndian.AppendUint64(bits, acc<<uint(64-6*(len(payload)&7)))
	b.bits, b.n = binary.BigEndian.AppendUint64(bits, 0), n
	return nil
}
