package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// HLLPrecision is the register-count exponent used throughout the inventory:
// 2^11 = 2048 registers ≈ 2 KiB per dense sketch, standard error ≈ 2.3%.
const HLLPrecision = 11

// sparseLimit is the number of occupied registers beyond which a sketch
// switches from the sparse to the dense representation.
const sparseLimit = 128

// HyperLogLog estimates the number of distinct 64-bit hashed values observed
// (Flajolet et al., with linear-counting small-range correction). It is used
// for the paper's distinct-ship and distinct-trip statistics (Table 3).
//
// Most grid cells see only a handful of distinct vessels, so the sketch
// starts in a sparse representation — a small array of (register, rank)
// entries sorted by register — and promotes itself to the dense 2^p
// register array only past sparseLimit occupied registers. Both live in
// one byte slice, so a sparse sketch costs three bytes an occupied register
// and an inventory of a hundred thousand cells stays hundreds of megabytes
// smaller, with identical estimates.
//
// Construct with NewHyperLogLog; sketches of equal precision merge by
// register-wise maximum.
type HyperLogLog struct {
	p     uint8
	dense bool
	// regs holds the 2^p registers when dense; while sparse, one 3-byte
	// entry per occupied register (index big-endian, then rank), ascending
	// by index. Ranks are never zero.
	regs []uint8
}

// NewHyperLogLog returns an empty sketch with 2^p registers. Precision is
// clamped to [4, 16].
func NewHyperLogLog(p uint8) *HyperLogLog {
	if p < 4 {
		p = 4
	}
	if p > 16 {
		p = 16
	}
	return &HyperLogLog{p: p}
}

// numRegisters returns 2^p.
func (h *HyperLogLog) numRegisters() int { return 1 << h.p }

// sparseLen returns the number of sparse entries.
func (h *HyperLogLog) sparseLen() int { return len(h.regs) / 3 }

// sparseAt returns sparse entry i.
func (h *HyperLogLog) sparseAt(i int) (idx uint32, rank uint8) {
	e := h.regs[3*i : 3*i+3]
	return uint32(e[0])<<8 | uint32(e[1]), e[2]
}

// AddHash records an already-hashed value. Use Mix64 or HashString to hash
// raw identifiers.
func (h *HyperLogLog) AddHash(hash uint64) {
	idx := uint32(hash >> (64 - h.p))
	rank := uint8(bits.LeadingZeros64(hash<<h.p|1)) + 1
	h.setRegister(idx, rank)
}

func (h *HyperLogLog) setRegister(idx uint32, rank uint8) {
	if h.dense {
		if rank > h.regs[idx] {
			h.regs[idx] = rank
		}
		return
	}
	// Sparse: binary search the index-sorted entries.
	i := sort.Search(h.sparseLen(), func(i int) bool { at, _ := h.sparseAt(i); return at >= idx })
	if i < h.sparseLen() {
		if at, r := h.sparseAt(i); at == idx {
			if rank > r {
				h.regs[3*i+2] = rank
			}
			return
		}
	}
	h.regs = append(h.regs, 0, 0, 0)
	copy(h.regs[3*i+3:], h.regs[3*i:])
	h.regs[3*i], h.regs[3*i+1], h.regs[3*i+2] = uint8(idx>>8), uint8(idx), rank
	if h.sparseLen() > sparseLimit {
		h.densify()
	}
}

// densify converts the sparse entries into the dense register file.
func (h *HyperLogLog) densify() {
	if h.dense {
		return
	}
	regs := make([]uint8, h.numRegisters())
	for i := range h.sparseLen() {
		idx, rank := h.sparseAt(i)
		regs[idx] = rank
	}
	h.regs, h.dense = regs, true
}

// AddUint64 hashes and records an integer identifier.
func (h *HyperLogLog) AddUint64(v uint64) { h.AddHash(Mix64(v)) }

// Merge folds another sketch into this one. Sketches must share precision;
// mismatched precision merges are ignored (callers construct all sketches
// with HLLPrecision). Into an empty sketch it is a copy, one exact-size
// allocation.
func (h *HyperLogLog) Merge(o *HyperLogLog) {
	if o == nil || o.p != h.p {
		return
	}
	if !h.dense && len(h.regs) == 0 {
		h.regs, h.dense = slices.Clone(o.regs), o.dense
		return
	}
	if o.dense {
		h.densify()
		for i, r := range o.regs {
			if r > h.regs[i] {
				h.regs[i] = r
			}
		}
		return
	}
	for i := range o.sparseLen() {
		h.setRegister(o.sparseAt(i))
	}
}

// Estimate returns the approximate distinct count.
func (h *HyperLogLog) Estimate() uint64 {
	m := float64(h.numRegisters())
	var sum float64
	var zeros int
	if h.dense {
		for _, r := range h.regs {
			sum += 1 / float64(uint64(1)<<r)
			if r == 0 {
				zeros++
			}
		}
	} else {
		zeros = h.numRegisters() - h.sparseLen()
		sum = float64(zeros)
		for i := range h.sparseLen() {
			_, rank := h.sparseAt(i)
			sum += 1 / float64(uint64(1)<<rank)
		}
	}
	alpha := 0.7213 / (1 + 1.079/m)
	e := alpha * m * m / sum
	if e <= 2.5*m && zeros > 0 {
		// Small-range correction: linear counting.
		e = m * math.Log(m/float64(zeros))
	}
	return uint64(e + 0.5)
}

// Encoding modes.
const (
	hllModeRLE uint8 = 0 // (zero-run varint, value u8) pairs — cheap when sparse
	hllModeRaw uint8 = 1 // all 2^p registers verbatim — cheap when dense
)

// AppendBinary appends the sketch's binary encoding to buf: the run-length
// layout unless it would take as many bytes as the raw one, decided on the
// bytes the runs actually encode to. It only reads the sketch: encoding a
// summary that other goroutines are querying is safe, and its cost follows
// the occupied registers, not 2^p, while the sketch is sparse.
func (h *HyperLogLog) AppendBinary(buf []byte) []byte {
	n := h.numRegisters()
	buf = append(buf, h.p, hllModeRLE)
	start := len(buf)
	// next is the first register no pair has covered yet; both
	// representations yield their occupied registers in ascending order
	// (sparse ranks are never zero: AddHash ranks start at 1 and decode
	// skips zeros).
	next := uint32(0)
	if h.dense {
		for i, r := range h.regs {
			if r != 0 {
				buf = append(appendU32(buf, uint32(i)-next), r)
				next = uint32(i) + 1
			}
		}
	} else {
		for i := range h.sparseLen() {
			idx, rank := h.sparseAt(i)
			buf = append(appendU32(buf, idx-next), rank)
			next = idx + 1
		}
	}
	if next < uint32(n) {
		// Trailing zero run, closed by a zero value.
		buf = append(appendU32(buf, uint32(n)-next), 0)
	}
	if len(buf)-start < n {
		return buf
	}
	buf[start-1] = hllModeRaw
	if h.dense {
		return append(buf[:start], h.regs...)
	}
	buf = append(buf[:start], make([]byte, n)...)
	for i := range h.sparseLen() {
		idx, rank := h.sparseAt(i)
		buf[start+int(idx)] = rank
	}
	return buf
}

// DecodeHyperLogLog decodes a sketch from the front of data and returns the
// remaining bytes. Sketches with few occupied registers decode into the
// sparse representation.
func DecodeHyperLogLog(data []byte) (HyperLogLog, []byte, error) {
	return decodeHyperLogLog(data, false)
}

// SkipHyperLogLog steps over the sketch at the front of data, refusing
// what DecodeHyperLogLog refuses, and returns the bytes after it without
// building the sketch.
func SkipHyperLogLog(data []byte) ([]byte, error) {
	_, rest, err := decodeHyperLogLog(data, true)
	return rest, err
}

// decodeHyperLogLog decodes a sketch, or with skip only checks it.
func decodeHyperLogLog(data []byte, skip bool) (HyperLogLog, []byte, error) {
	if len(data) < 2 || data[0] < 4 || data[0] > 16 {
		return HyperLogLog{}, nil, ErrCorrupt
	}
	h := HyperLogLog{p: data[0]}
	mode, n := data[1], uint32(h.numRegisters())
	data = data[2:]
	switch mode {
	case hllModeRaw:
		if uint32(len(data)) < n {
			return HyperLogLog{}, nil, ErrCorrupt
		}
		if !skip {
			h.regs, h.dense = slices.Clone(data[:n]), true
		}
		return h, data[n:], nil
	case hllModeRLE:
		// One pass checks the runs and counts the occupied registers, a
		// second writes them, already ascending, into their final form.
		occupied, rest := 0, data
		for i := uint32(0); i < n; {
			run, r, err := readU32(rest)
			if err != nil || len(r) < 1 {
				return HyperLogLog{}, nil, ErrCorrupt
			}
			v := r[0]
			rest = r[1:]
			if run > n-i || (v != 0 && run == n-i) {
				return HyperLogLog{}, nil, ErrCorrupt
			}
			i += run
			if v != 0 {
				occupied++
				i++
			} else if i != n {
				return HyperLogLog{}, nil, ErrCorrupt
			}
		}
		if skip || occupied == 0 {
			return h, rest, nil
		}
		if h.dense = occupied > sparseLimit; h.dense {
			h.regs = make([]uint8, n)
		} else {
			h.regs = make([]uint8, 0, 3*occupied)
		}
		for i := uint32(0); occupied > 0; occupied-- {
			run, r, _ := readU32(data)
			i, data = i+run, r[1:]
			if h.dense {
				h.regs[i] = r[0]
			} else {
				h.regs = append(h.regs, uint8(i>>8), uint8(i), r[0])
			}
			i++
		}
		return h, rest, nil
	default:
		return HyperLogLog{}, nil, ErrCorrupt
	}
}
