package deflate

import (
	"encoding/binary"
	"errors"
	"math/bits"
	"sync"
)

var (
	errCorrupt = errors.New("inflate: invalid deflate stream")
	errEOF     = errors.New("inflate: stream ends early")
	errLong    = errors.New("inflate: stream inflates past the destination's length")
	errShort   = errors.New("inflate: stream ends short of the destination's length")
	errStop    = errors.New("inflate: the need is met") // codes' signal to run, never returned
)

// build fills t with the decode table of the canonical code whose symbol
// s has length lengths[s] (0: unused): root entries indexed by the next
// rootBits input bits, subtables after them. Like compress/flate it
// refuses an over-subscribed code and an incomplete one other than a
// single one-bit code; an empty code builds a table of refusals.
func build(t []uint32, lengths []uint8, syms []uint32, rootBits uint) bool {
	var count, offs [16]int
	for _, l := range lengths {
		count[l]++
	}
	count[0] = 0
	left, total := 1, 0
	for l := 1; l < 16; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return false
		}
		offs[l], total = total, total+count[l]
	}
	root := t[:1<<rootBits]
	if left != 0 {
		if total > 1 || total == 1 && count[1] != 1 {
			return false
		}
		clear(root)
	}
	var sorted [288]uint16 // symbols in canonical order
	for s, l := range lengths {
		if l != 0 {
			sorted[offs[l]], offs[l] = uint16(s), offs[l]+1
		}
	}
	remain := count
	code, next, i := 0, len(root), 0
	subPrefix, subBase, subBits := -1, 0, uint(0)
	for l := uint(1); l < 16; l, code = l+1, code<<1 {
		for ; remain[l] > 0; remain[l], code, i = remain[l]-1, code+1, i+1 {
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			e := syms[sorted[i]] | uint32(l)
			if l <= rootBits {
				for j := rev; j < len(root); j += 1 << l {
					t[j] = e
				}
				continue
			}
			if p := rev & (len(root) - 1); p != subPrefix {
				// A subtable just wide enough for the codes left under
				// this prefix: canonical order keeps them together.
				subBits = l - rootBits
				for left := 1 << subBits; ; left <<= 1 {
					if left -= remain[rootBits+subBits]; left <= 0 || rootBits+subBits == 15 {
						break
					}
					subBits++
				}
				if next+1<<subBits > len(t) {
					return false
				}
				subPrefix, subBase, next = p, next, next+1<<subBits
				t[p] = uint32(subBase)<<16 | uint32(subBits)<<8 | fSub | uint32(rootBits)
			}
			for j := rev >> rootBits; j < 1<<subBits; j += 1 << (l - rootBits) {
				t[subBase+j] = e
			}
		}
	}
	return true
}

// bitReader feeds bits off a source, lowest first, a word at a time. Past
// the end of src it loads zero bytes and counts them in over; a stream
// that ends cleanly never consumes one. Decoding zeros ends soon anyway:
// they can only continue a block, or start a stored one, which is refused.
type bitReader struct {
	src  []byte
	pos  int    // next byte of src to load
	over int    // zero bytes loaded past the end of src
	b    uint64 // buffered bits, the next one lowest
	nb   uint   // bits in b
}

// refill tops b up to at least 56 bits.
func (r *bitReader) refill() {
	if r.pos+8 <= len(r.src) {
		r.b |= binary.LittleEndian.Uint64(r.src[r.pos:]) << r.nb
		r.pos += int(63-r.nb) >> 3
		r.nb |= 56
		return
	}
	for ; r.nb <= 56; r.nb += 8 {
		if r.pos < len(r.src) {
			r.b |= uint64(r.src[r.pos]) << r.nb
			r.pos++
		} else {
			r.over++
		}
	}
}

// take consumes n ≤ 32 bits.
func (r *bitReader) take(n uint) uint32 {
	if r.nb < n {
		r.refill()
	}
	v := uint32(r.b & (1<<n - 1))
	r.b, r.nb = r.b>>n, r.nb-n
	return v
}

// decoder is one InflatePrefix call's state, pooled: the dynamic tables (the
// literal/length one holds the code-length code while a header is read)
// and the code lengths.
type decoder struct {
	r    bitReader
	lit  [litSize]uint32
	dist [distSize]uint32
	lens [286 + 30]uint8
}

var decoders = sync.Pool{New: func() any { return new(decoder) }}

// InflatePrefix decodes the DEFLATE stream src into dst as far as need
// asks. need, given the bytes written so far (none at first), returns how
// many the caller needs; once they are, at a symbol boundary, need is
// asked again, and the decode stops when it asks for no more, returning
// the bytes written. A nil need, or a need of len(dst) or more, decodes
// the whole stream: dst must be exactly as long as its output, and the
// call fails when the stream is invalid, ends early, or inflates to more
// or fewer than len(dst) bytes; dst's contents are then unspecified.
func InflatePrefix(dst, src []byte, need func(prefix []byte) int) (int, error) {
	d := decoders.Get().(*decoder)
	d.r = bitReader{src: src}
	n, err := d.run(dst, need)
	d.r.src = nil // do not pin the caller's bytes from the pool
	decoders.Put(d)
	return n, err
}

func (d *decoder) run(dst []byte, need func([]byte) int) (int, error) {
	stop := len(dst)
	if need != nil {
		stop = 0
	}
	var lt *[litSize]uint32 // the tables of the block in progress, nil between blocks
	var dt *[distSize]uint32
	for out, final := 0, false; ; {
		for out >= stop && out < len(dst) { // the need is met short of the end
			if stop = min(need(dst[:out]), len(dst)); stop <= out {
				return out, d.r.clean()
			}
		}
		var err error
		if lt != nil {
			if out, err = d.codes(dst[:stop:len(dst)], out, lt, dt); err == errStop {
				continue
			}
			lt = nil
		} else {
			h := d.r.take(3)
			switch final = h&1 != 0; h >> 1 {
			case 0:
				out, err = d.stored(dst, out)
			case 1:
				lt, dt = &fixedLit, &fixedDist
			case 2:
				err = d.header()
				lt, dt = &d.lit, &d.dist
			default:
				err = errCorrupt
			}
		}
		switch {
		case err != nil:
			return out, err
		case !final || lt != nil:
		case out != len(dst):
			return out, errShort
		default: // the final block ended
			return out, d.r.clean()
		}
	}
}

// clean fails when the bits consumed so far ran past the end of src.
func (r *bitReader) clean() error {
	if r.nb < 8*uint(r.over) {
		return errEOF
	}
	return nil
}

// stored copies a stored block: aligned to a byte, LEN, NLEN, LEN bytes.
func (d *decoder) stored(dst []byte, out int) (int, error) {
	r := &d.r
	unread := int(r.nb>>3) - r.over // whole bytes still buffered, less the zeros
	if unread < 0 {
		return out, errEOF
	}
	pos := r.pos - unread
	if r.b, r.nb, r.over = 0, 0, 0; len(r.src)-pos < 4 {
		return out, errEOF
	}
	n := int(binary.LittleEndian.Uint16(r.src[pos:]))
	switch pos += 4; {
	case uint16(n) != ^binary.LittleEndian.Uint16(r.src[pos-2:]):
		return out, errCorrupt
	case len(r.src)-pos < n:
		return out, errEOF
	case len(dst)-out < n:
		return out, errLong
	}
	r.pos = pos + n
	return out + copy(dst[out:], r.src[pos:r.pos]), nil
}

// header reads a dynamic block's code lengths and builds its tables.
func (d *decoder) header() error {
	r := &d.r
	h := r.take(14)
	nlit, ndist, nclen := int(h&31)+257, int(h>>5&31)+1, int(h>>10)+4
	if nlit > 286 || ndist > 30 {
		return errCorrupt
	}
	var cl [19]uint8
	for _, s := range clOrder[:nclen] {
		cl[s] = uint8(r.take(3))
	}
	if !build(d.lit[:], cl[:], clSyms[:], 7) {
		return errCorrupt
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if r.nb < 14 { // a code (≤ 7 bits) and its repeat count (≤ 7)
			r.refill()
		}
		e := d.lit[r.b&127]
		if e&15 == 0 {
			return errCorrupt
		}
		r.b, r.nb = r.b>>(e&15), r.nb-uint(e&15)
		if sym := uint8(e >> 16); sym < 16 {
			lens[i], i = sym, i+1
			continue
		}
		// 16: the previous length 3–6 times; 17, 18: zero 3–10, 11–138 times.
		sym, v := e>>16-16, uint8(0)
		rep := int(r.take(uint(repBits[sym])) + repBase[sym])
		if sym == 0 {
			if i == 0 {
				return errCorrupt
			}
			v = lens[i-1]
		}
		if i+rep > len(lens) {
			return errCorrupt
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if !build(d.lit[:], lens[:nlit], litSyms[:], litBits) || !build(d.dist[:], lens[nlit:], distSyms[:], distBits) {
		return errCorrupt
	}
	return nil
}

// codes decodes one Huffman-coded block through the given tables, with the
// bit state in locals: to its end, or until a symbol takes out past
// len(win), writing on to at most cap(win), the stream's end; it then
// returns errStop, the bit state saved to go on from. One refill covers
// the longest length/distance pair (15+5+15+13 bits).
func (d *decoder) codes(win []byte, out int, lt *[litSize]uint32, dt *[distSize]uint32) (int, error) {
	r := &d.r
	src, pos, b, nb := r.src, r.pos, r.b, r.nb
	for {
		if nb < 48 {
			if pos+8 <= len(src) {
				b |= binary.LittleEndian.Uint64(src[pos:]) << nb
				pos += int(63-nb) >> 3
				nb |= 56
			} else {
				r.pos, r.b, r.nb = pos, b, nb
				r.refill()
				pos, b, nb = r.pos, r.b, r.nb
			}
		}
		e := lt[b&(1<<litBits-1)]
		if e&fSub != 0 {
			e = lt[e>>16+uint32(b>>litBits)&(1<<(e>>8&15)-1)]
		}
		b, nb = b>>(e&15), nb-uint(e&15)
		if e&fLit != 0 {
			if uint(out) >= uint(len(win)) { // at the need, or the end
				if out >= cap(win) {
					return out, errLong
				}
				win[:out+1][out] = byte(e >> 16)
				r.pos, r.b, r.nb = pos, b, nb
				return out + 1, errStop
			}
			win[out] = byte(e >> 16)
			out++
			continue
		}
		if e&fLen == 0 {
			if e&fEOB == 0 {
				return out, errCorrupt
			}
			r.pos, r.b, r.nb = pos, b, nb
			return out, nil
		}
		x := e >> 8 & 15
		length := int(e>>16) + int(b&(1<<x-1))
		b, nb = b>>x, nb-uint(x)

		if e = dt[b&(1<<distBits-1)]; e&fSub != 0 {
			e = dt[e>>16+uint32(b>>distBits)&(1<<(e>>8&15)-1)]
		}
		if e&fLen == 0 {
			return out, errCorrupt
		}
		b, nb = b>>(e&15), nb-uint(e&15)
		x = e >> 8 & 15
		dist := int(e>>16) + int(b&(1<<x-1))
		b, nb = b>>x, nb-uint(x)
		switch {
		case dist > out:
			return out, errCorrupt
		case cap(win)-out < length:
			return out, errLong
		}
		// A match no longer than its distance is one copy; a longer one
		// repeats the last dist bytes, doubling what each copy can take.
		for end, from := out+length, out-dist; out < end; {
			out += copy(win[out:end], win[from:out])
		}
		if out > len(win) { // past the need
			r.pos, r.b, r.nb = pos, b, nb
			return out, errStop
		}
	}
}
