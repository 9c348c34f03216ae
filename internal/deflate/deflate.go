// Package deflate is the repository's one DEFLATE codec (RFC 1951): both
// directions over a buffer held whole in memory, and one copy of the
// format's length, distance and code-length tables.
//
// Deflate(dst, src) appends one stream holding src, whose final block
// carries BFINAL. It has one setting: a lazy hash-chain match finder over
// the whole of src (no window copy, no sliding), then per block of at most
// blockTokens tokens the cheapest of a dynamic Huffman block, a fixed one
// or stored bytes, by exact bit count. Its output depends on src alone —
// the scratch it pools carries nothing from one call into the next — and
// is never longer than len(src) + len(src)/1000 + 10 bytes. FuzzDeflate
// holds it to both, and every stream it writes to both decoders below.
//
// InflatePrefix(dst, src, need) decodes a stream into a buffer whose
// length the caller already knows (a segment block's RawLen), whole or
// stopped once it holds the bytes need asks for. Bits come off the source
// a word at a time and symbols out of two-level tables; there is no
// io.Reader, window ring or per-byte interface call. Whole, it succeeds
// exactly when compress/flate's reader would yield len(dst) bytes
// equal to dst's and then end its final block without error, so it refuses
// what that reader refuses: over-subscribed or incomplete codes other than
// a single one-bit code, length symbols 286–287, distance symbols 30–31, a
// distance past the output so far, a stored block whose NLEN is not LEN's
// complement, input that ends early. FuzzInflate holds it to that. Hostile
// input cannot make it panic, read past src or write past dst, and it runs
// in O(len(src) + len(dst)).
package deflate

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sync"
)

// MaxRatio bounds how far DEFLATE expands: a 258-byte match costs at
// least two bits, so a stream inflates at most ~1032:1. A caller holds a
// claimed length to it before allocating the destination.
const MaxRatio = 1032

// A table entry holds the code length in bits 0–3 (0: no such code), a
// flag in bits 4–7, an extra-bit count (a subtable's index width) in bits
// 8–15 and a value in bits 16–31. An entry without a flag is refused: no
// code, or a symbol no stream may use (lengths 286–287, distances 30–31).
const (
	fLit = 1 << 4 // value: a literal byte
	fLen = 1 << 5 // value: a length or distance base
	fEOB = 1 << 6
	fSub = 1 << 7 // value: a subtable's offset

	litBits, distBits = 10, 8
	// Root plus subtables, with room to spare over the most a complete
	// code can need (zlib's "enough": 1334 and 402).
	litSize, distSize = 2048, 1024
)

var (
	// clOrder is the order code-length code lengths are sent in; the
	// repeat codes 16, 17 and 18 take repBits extra bits added to repBase.
	clOrder          = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	repBits, repBase = [3]uint8{2, 3, 7}, [3]uint32{3, 3, 11}

	// Per-symbol entries, without the code length: literal/length symbols
	// carry a length's base and extra bits, distance symbols a distance's.
	litSyms, distSyms, clSyms [288]uint32
	fixedLit                  [litSize]uint32
	fixedDist                 [distSize]uint32

	// The encoder's views of the same tables: the symbol of a match length
	// less 3, of a distance d+1 at min(d, 256+d>>7) (d itself below 256;
	// the distances that share an index above it share a symbol), and the
	// fixed codes.
	lenSym         [256]uint16
	distSym        [512]uint8
	fixedLens      [nLit]uint8
	fixedCodes     [nLit]uint16
	fixedDistLens  [nDist]uint8
	fixedDistCodes [nDist]uint16
)

func init() {
	var lens [288]uint8
	lbase, dbase := uint32(3), uint32(1)
	for s := range litSyms {
		clSyms[s] = uint32(s) << 16
		lens[s] = 8 + uint8(s/144) - uint8(s/256)*2 + uint8(s/280)
		switch x := uint32(max(s-261, 0) / 4); {
		case s < 256:
			litSyms[s] = uint32(s)<<16 | fLit
		case s == 256:
			litSyms[s] = fEOB
		case s < 285:
			litSyms[s], lbase = lbase<<16|x<<8|fLen, lbase+1<<x
		case s == 285:
			litSyms[s] = 258<<16 | fLen
		}
		if x := uint32(max(s/2-1, 0)); s < 30 {
			distSyms[s], dbase = dbase<<16|x<<8|fLen, dbase+1<<x
		}
	}
	build(fixedLit[:], lens[:], litSyms[:], litBits) // 8, 9, 7 and 8 bits
	var codes [288]uint16                            // over all 288 symbols, or 144–255 come out wrong
	canonical(lens[:], codes[:])
	copy(fixedLens[:], lens[:])
	copy(fixedCodes[:], codes[:])
	for s := range 32 {
		lens[s] = 5
	}
	build(fixedDist[:], lens[:32], distSyms[:], distBits)

	for s := 257; s < nLit; s++ { // 285 last: 258 is its, not 284's
		base, x := litSyms[s]>>16, litSyms[s]>>8&15
		for l := base; l < base+1<<x && l <= maxMatch; l++ {
			lenSym[l-3] = uint16(s)
		}
	}
	for s := range nDist {
		base, x := distSyms[s]>>16-1, distSyms[s]>>8&15
		for d := base; d < base+1<<x; d++ {
			distSym[min(d, 256+d>>7)] = uint8(s)
		}
		fixedDistLens[s] = 5
	}
	canonical(fixedDistLens[:], fixedDistCodes[:])
}

// The encoder's one setting. A match is looked for along at most maxChain
// earlier positions with the same 4-byte hash (a quarter of them once the
// previous position's match reaches goodLen); one of niceLen ends the
// search, and one of lazyLen is taken without looking a byte further. A
// 4-byte match is kept only within far4 bytes, where its distance costs
// less than the literals it replaces.
const (
	maxChain, goodLen, lazyLen, niceLen = 32, 8, 16, 128

	hashBits                   = 15
	minMatch, maxMatch, window = 4, 258, 1 << 15
	far4                       = 4096
	// blockTokens ends a block, so that its codes follow the input.
	blockTokens = 1 << 14
	// maxInput keeps every position plus the hash generation in a uint32.
	maxInput = 1 << 30

	nLit, nDist, nCL = 286, 30, 19
	endBlock         = 256
	matchTok         = 1 << 31 // a token with it: (dist-1)<<8 | (length-3); without: a literal
)

// encoder is one Deflate call's state, pooled. head holds, per 4-byte
// hash, the latest position plus gen; gen moves past every position a
// call used, so an entry below it is from an earlier call. prev holds,
// per position, the distance back to the previous one with its hash (0:
// none within the window); it is written before it is read. So the head
// is never cleared and nothing carries from one call into the next.
type encoder struct {
	head   [1 << hashBits]uint32
	prev   []uint16
	gen    uint32
	tokens []uint32

	litFreq   [nLit]uint32
	distFreq  [nDist]uint32
	clFreq    [nCL]uint32
	litLens   [nLit]uint8
	distLens  [nDist]uint8
	clLens    [nCL]uint8
	litCodes  [nLit]uint16
	distCodes [nDist]uint16
	clCodes   [nCL]uint16
	tab       [512]uint32 // the token writer's: code | bit count << 24
	distTab   [nDist]uint32
	cl        []uint16 // code-length code: symbol | repeat extra << 5
	keys      []uint32 // huffman's sort scratch
	w         bitWriter
}

var encoders = sync.Pool{New: func() any { return new(encoder) }}

// Deflate appends to dst one DEFLATE stream whose output is src, and
// returns the extended buffer. src must be shorter than 1 GiB.
func Deflate(dst, src []byte) []byte {
	if len(src) >= maxInput {
		panic("deflate: input of 1 GiB or more")
	}
	e := encoders.Get().(*encoder)
	dst = e.run(dst, src)
	e.w.dst = nil // do not pin the caller's buffer from the pool
	encoders.Put(e)
	return dst
}

func (e *encoder) run(dst, src []byte) []byte {
	n := len(src)
	if e.gen == 0 || uint64(e.gen)+uint64(n) >= 1<<32 {
		clear(e.head[:])
		e.gen = 1
	}
	gen := e.gen
	e.gen += uint32(n)
	if cap(e.prev) < n {
		e.prev = make([]uint16, n)
	}
	prev := e.prev[:n]
	e.w = bitWriter{dst: dst}
	tokens := e.tokens[:0]

	// insert chains pos and returns the distance back to the previous
	// position with its hash, 0 if that is not within the window. From an
	// entry of an earlier call the distance is over pos, and find refuses
	// the negative position.
	insert := func(pos int) int {
		h := hash4(src[pos:])
		d := uint32(pos) + gen - e.head[h]
		if e.head[h] = uint32(pos) + gen; d > window {
			d = 0
		}
		prev[pos] = uint16(d)
		return int(d)
	}

	// Lazy matching: the match found at pos-1 (prevLen, prevDist) is taken
	// unless pos has a longer one; then pos-1 is a literal.
	start := 0 // first input byte of the current block
	pending := false
	prevLen, prevDist := minMatch-1, 0
	for pos := 0; pos < n; {
		if len(tokens) >= blockTokens {
			end := pos
			if pending {
				end--
			}
			e.block(tokens, src[start:end], false)
			tokens, start = tokens[:0], end
		}
		length, dist := minMatch-1, 0
		if pos+minMatch <= n {
			if d := insert(pos); d != 0 && prevLen < lazyLen && prevLen < n-pos {
				length, dist = e.find(src, pos, pos-d, prevLen)
			}
		}
		if prevLen >= minMatch && length <= prevLen {
			d := uint32(prevDist - 1)
			tokens = append(tokens, matchTok|d<<8|uint32(prevLen-3))
			e.litFreq[lenSym[prevLen-3]]++
			e.distFreq[distSym[min(d, 256+d>>7)]]++
			// Chain every position the match covers.
			end := pos - 1 + prevLen
			for pos++; pos < min(end, n-minMatch+1); pos++ {
				insert(pos)
			}
			pos, pending, prevLen = end, false, minMatch-1
			continue
		}
		if pending {
			tokens = append(tokens, uint32(src[pos-1]))
			e.litFreq[src[pos-1]]++
		}
		pending, prevLen, prevDist = true, length, dist
		pos++
	}
	if pending {
		tokens = append(tokens, uint32(src[n-1]))
		e.litFreq[src[n-1]]++
	}
	e.block(tokens, src[start:], true)
	e.tokens = tokens
	return e.w.flush()
}

func hash4(b []byte) uint32 {
	return binary.LittleEndian.Uint32(b) * 0x1e35a7bd >> (32 - hashBits)
}

// find returns the longest match for src[pos:] longer than best along the
// chain from the earlier position c, with its distance; best and 0 if
// there is none. best is shorter than what is left of src.
func (e *encoder) find(src []byte, pos, c, best int) (int, int) {
	chain := maxChain
	if best >= goodLen {
		chain >>= 2
	}
	end := min(pos+maxMatch, len(src))
	nice := min(niceLen, end-pos)
	lo := max(pos-window, 0)
	prev := e.prev[:pos]
	dist := 0
	for c >= lo {
		// A longer match agrees on the four bytes that end at src[pos+best]:
		// skip the candidates that do not.
		tail := binary.LittleEndian.Uint32(src[pos+best-3:])
		for binary.LittleEndian.Uint32(src[c+best-3:]) != tail {
			d := int(prev[c])
			if chain--; chain == 0 || d == 0 || c-d < lo {
				return best, dist
			}
			c -= d
		}
		if l := matchLen(src[c:], src[pos:end]); l > best && (l > minMatch || pos-c <= far4) {
			best, dist = l, pos-c
			if l >= nice {
				break
			}
		}
		d := int(prev[c])
		if chain--; chain == 0 || d == 0 {
			break
		}
		c -= d
	}
	return best, dist
}

// matchLen is the length of the common prefix of a and b, where a is at
// least as long as b.
func matchLen(a, b []byte) int {
	a = a[:len(b)]
	n := 0
	for ; len(b)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// block writes tokens, which code in, as one block — dynamic, fixed or
// stored, whichever takes the fewest bits — and clears the frequencies.
func (e *encoder) block(tokens []uint32, in []byte, final bool) {
	e.litFreq[endBlock]++
	huffman(e.litFreq[:], e.litLens[:], e.litCodes[:], 15, &e.keys)
	huffman(e.distFreq[:], e.distLens[:], e.distCodes[:], 15, &e.keys)
	nlit, ndist := nLit, nDist
	for nlit > 257 && e.litLens[nlit-1] == 0 {
		nlit--
	}
	for ndist > 1 && e.distLens[ndist-1] == 0 {
		ndist--
	}
	e.codeLengths(nlit, ndist)
	huffman(e.clFreq[:], e.clLens[:], e.clCodes[:], 7, &e.keys)
	ncl := nCL
	for ncl > 4 && e.clLens[clOrder[ncl-1]] == 0 {
		ncl--
	}

	// Bits after the 3-bit block header. Extra bits cost the same in a
	// fixed or a dynamic block.
	dyn, fixed := 14+3*ncl, 0
	for s, f := range e.clFreq {
		dyn += int(f) * int(e.clLens[s])
	}
	for i, f := range e.clFreq[16:] {
		dyn += int(f) * int(repBits[i])
	}
	for s, f := range e.litFreq {
		x := int(litSyms[s] >> 8 & 15)
		dyn += int(f) * (int(e.litLens[s]) + x)
		fixed += int(f) * (int(fixedLens[s]) + x)
	}
	for s, f := range e.distFreq {
		x := int(distSyms[s] >> 8 & 15)
		dyn += int(f) * (int(e.distLens[s]) + x)
		fixed += int(f) * (5 + x)
	}
	chunks := max(1, (len(in)+0xfffe)/0xffff)
	stored := 8*len(in) + 40*chunks - 8 + (5-int(e.w.n))&7 // byte-aligned after the first header

	switch {
	case stored < min(dyn, fixed):
		e.stored(in, final)
	case dyn < fixed:
		e.w.put(b2u(final)|2<<1, 3)
		e.w.put(uint64(nlit-257)|uint64(ndist-1)<<5|uint64(ncl-4)<<10, 14)
		for _, s := range clOrder[:ncl] {
			e.w.put(uint64(e.clLens[s]), 3)
		}
		for _, c := range e.cl {
			s, x := c&31, uint(0)
			if s >= 16 {
				x = uint(repBits[s-16])
			}
			e.w.put(uint64(e.clCodes[s])|uint64(c>>5)<<e.clLens[s], uint(e.clLens[s])+x)
		}
		e.writeTokens(tokens, &e.litLens, &e.litCodes, &e.distLens, &e.distCodes)
	default:
		e.w.put(b2u(final)|1<<1, 3)
		e.writeTokens(tokens, &fixedLens, &fixedCodes, &fixedDistLens, &fixedDistCodes)
	}
	clear(e.litFreq[:])
	clear(e.distFreq[:])
}

// stored writes in as stored blocks of at most 65 535 bytes.
func (e *encoder) stored(in []byte, final bool) {
	for first := true; first || len(in) > 0; first = false {
		n := min(len(in), 0xffff)
		e.w.put(b2u(final && n == len(in)), 3)
		e.w.dst = binary.LittleEndian.AppendUint32(e.w.flush(), uint32(n)|uint32(^uint16(n))<<16)
		e.w.dst = append(e.w.dst, in[:n]...)
		in = in[n:]
	}
}

// codeLengths run-length codes the literal/length and distance code
// lengths into e.cl (RFC 1951 §3.2.7: 16 repeats the previous length 3–6
// times, 17 and 18 a zero 3–10 and 11–138 times) and counts its symbols.
func (e *encoder) codeLengths(nlit, ndist int) {
	var all [nLit + nDist]uint8
	lens := append(append(all[:0], e.litLens[:nlit]...), e.distLens[:ndist]...)
	clear(e.clFreq[:])
	cl := e.cl[:0]
	emit := func(sym, extra int) {
		cl = append(cl, uint16(sym|extra<<5))
		e.clFreq[sym]++
	}
	for i := 0; i < len(lens); {
		v, run := int(lens[i]), 1
		for i+run < len(lens) && int(lens[i+run]) == v {
			run++
		}
		i += run
		if v == 0 {
			for ; run >= 11; run -= min(run, 138) {
				emit(18, min(run, 138)-11)
			}
			if run >= 3 {
				emit(17, run-3)
				run = 0
			}
		} else {
			emit(v, 0)
			for run--; run >= 3; run -= min(run, 6) {
				emit(16, min(run, 6)-3)
			}
		}
		for ; run > 0; run-- {
			emit(v, 0)
		}
	}
	e.cl = cl
}

// huffman sets lens[s] to the length of symbol s in a prefix code for
// freq no longer than maxBits (0 where freq[s] is 0; a lone symbol gets
// one bit), and codes[s] to its canonical code, bit-reversed for the
// writer. Lengths come from an optimal code (Moffat and Katajainen's
// in-place construction over the sorted frequencies); any over maxBits
// are cut to it and the code made complete again by lengthening the
// longest codes under it, as miniz does.
func huffman(freq []uint32, lens []uint8, codes []uint16, maxBits int, scratch *[]uint32) {
	keys := (*scratch)[:0]
	for s, f := range freq {
		if f != 0 {
			keys = append(keys, f<<9|uint32(s))
		}
	}
	*scratch = keys
	clear(lens)
	if len(keys) <= 1 {
		for _, k := range keys {
			lens[k&511], codes[k&511] = 1, 0
		}
		return
	}
	slices.Sort(keys)

	// a[i] is the i-th lightest weight, then a parent index, then a depth.
	var buf [nLit]uint32
	a := buf[:len(keys)]
	n := len(a)
	for i, k := range keys {
		a[i] = k >> 9
	}
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next], a[root] = a[root], uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || root < next && a[root] < a[leaf] {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint32(0)
	for root, next := n-2, n-1; avail > 0; depth++ {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used = 2*used, 0
	}

	var count [16]int
	for _, d := range a {
		count[min(int(d), maxBits)]++
	}
	total := 0
	for l := 1; l <= maxBits; l++ {
		total += count[l] << (maxBits - l)
	}
	for ; total > 1<<maxBits; total-- {
		count[maxBits]--
		for l := maxBits - 1; l > 0; l-- {
			if count[l] != 0 {
				count[l]--
				count[l+1] += 2
				break
			}
		}
	}
	j := n
	for l := 1; l <= maxBits; l++ {
		for range count[l] {
			j--
			lens[keys[j]&511] = uint8(l)
		}
	}
	canonical(lens, codes)
}

// canonical sets codes[s] to symbol s's canonical code for lens,
// bit-reversed for a writer that sends the lowest bit first.
func canonical(lens []uint8, codes []uint16) {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		if l != 0 {
			codes[s], next[l] = bits.Reverse16(next[l])>>(16-l), next[l]+1
		}
	}
}

// bitWriter appends bits to dst, the lowest first, through a 64-bit
// buffer holding fewer than 32 of them between calls.
type bitWriter struct {
	dst []byte
	b   uint64
	n   uint
}

// put writes the low n ≤ 32 bits of v, which has no others set.
func (w *bitWriter) put(v uint64, n uint) {
	w.b |= v << w.n
	if w.n += n; w.n >= 32 {
		w.dst = binary.LittleEndian.AppendUint32(w.dst, uint32(w.b))
		w.b >>= 32
		w.n -= 32
	}
}

// flush empties the buffer into dst, padded to a byte, and returns dst.
func (w *bitWriter) flush() []byte {
	for ; w.n > 0; w.b, w.n = w.b>>8, w.n-min(w.n, 8) {
		w.dst = append(w.dst, byte(w.b))
	}
	return w.dst
}

// writeTokens writes tokens through the given code and then the end of
// the block, without a branch per token: a literal and a match length
// come out of one table, and a literal's distance bits are masked to
// none. The whole bytes a header left (up to 31 bits) go out first; then
// each token's bits go in as one value — at most 48 on fewer than 8, so
// never past 55 — and whole bytes leave by one 8-byte store.
func (e *encoder) writeTokens(tokens []uint32, ll *[nLit]uint8, lc *[nLit]uint16, dl *[nDist]uint8, dc *[nDist]uint16) {
	// Per block: each code with its bit count in the top byte; literals
	// first, then match lengths with their extra bits appended.
	for s := range 256 {
		e.tab[s] = uint32(lc[s]) | uint32(ll[s])<<24
	}
	for l := range 256 {
		s := lenSym[l]
		e.tab[256+l] = uint32(lc[s]) | (uint32(l)+3-litSyms[s]>>16)<<ll[s] | (uint32(ll[s])+litSyms[s]>>8&15)<<24
	}
	for s := range nDist {
		e.distTab[s] = uint32(dc[s]) | (uint32(dl[s])+distSyms[s]>>8&15)<<24
	}
	w := &e.w
	out := binary.LittleEndian.AppendUint64(slices.Grow(w.dst, 6*len(tokens)+8), w.b)
	i, b, n := len(w.dst)+int(w.n>>3), w.b>>(w.n&^7), w.n&7
	out = out[:cap(out)]
	for _, t := range tokens {
		c := e.tab[t>>31<<8|t&255]
		b |= uint64(c&0xffffff) << n
		n += uint(c >> 24)
		d := t >> 8 & (window - 1)
		s := distSym[min(d, 256+d>>7)]
		c = e.distTab[s]
		m := 0 - t>>31 // all ones for a match
		b |= uint64((c&0xffffff|(d+1-distSyms[s]>>16)<<dl[s])&m) << n
		n += uint(c >> 24 & m)
		binary.LittleEndian.PutUint64(out[i:], b)
		i += int(n >> 3)
		b >>= n &^ 7
		n &= 7
	}
	w.dst, w.b, w.n = out[:i], b, n
	w.put(uint64(lc[endBlock]), uint(ll[endBlock]))
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
