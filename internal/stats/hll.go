package stats

import (
	"math"
	"math/bits"
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
// starts in a sparse representation — a small sorted array of
// (register, rank) pairs — and promotes itself to the dense 2^p register
// array only past sparseLimit occupied registers. This keeps a
// hundred-thousand-cell inventory hundreds of megabytes smaller with
// identical estimates.
//
// Construct with NewHyperLogLog; sketches of equal precision merge by
// register-wise maximum.
type HyperLogLog struct {
	p         uint8
	registers []uint8  // dense representation; nil while sparse
	sparse    []uint32 // packed idx<<8|rank, sorted by idx; nil when dense
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

// AddHash records an already-hashed value. Use Mix64 or HashString to hash
// raw identifiers.
func (h *HyperLogLog) AddHash(hash uint64) {
	idx := uint32(hash >> (64 - h.p))
	rank := uint8(bits.LeadingZeros64(hash<<h.p|1)) + 1
	h.setRegister(idx, rank)
}

func (h *HyperLogLog) setRegister(idx uint32, rank uint8) {
	if h.registers != nil {
		if rank > h.registers[idx] {
			h.registers[idx] = rank
		}
		return
	}
	// Sparse: binary search the packed, idx-sorted array.
	i := sort.Search(len(h.sparse), func(i int) bool { return h.sparse[i]>>8 >= idx })
	if i < len(h.sparse) && h.sparse[i]>>8 == idx {
		if rank > uint8(h.sparse[i]) {
			h.sparse[i] = idx<<8 | uint32(rank)
		}
		return
	}
	h.sparse = append(h.sparse, 0)
	copy(h.sparse[i+1:], h.sparse[i:])
	h.sparse[i] = idx<<8 | uint32(rank)
	if len(h.sparse) > sparseLimit {
		h.densify()
	}
}

// densify converts the sparse array into the dense register file.
func (h *HyperLogLog) densify() {
	if h.registers != nil {
		return
	}
	h.registers = make([]uint8, h.numRegisters())
	for _, packed := range h.sparse {
		idx := packed >> 8
		rank := uint8(packed)
		if rank > h.registers[idx] {
			h.registers[idx] = rank
		}
	}
	h.sparse = nil
}

// AddUint64 hashes and records an integer identifier.
func (h *HyperLogLog) AddUint64(v uint64) { h.AddHash(Mix64(v)) }

// Merge folds another sketch into this one. Sketches must share precision;
// mismatched precision merges are ignored (callers construct all sketches
// with HLLPrecision).
func (h *HyperLogLog) Merge(o *HyperLogLog) {
	if o == nil || o.p != h.p {
		return
	}
	if o.registers != nil {
		h.densify()
		for i, r := range o.registers {
			if r > h.registers[i] {
				h.registers[i] = r
			}
		}
		return
	}
	for _, packed := range o.sparse {
		h.setRegister(packed>>8, uint8(packed))
	}
}

// Estimate returns the approximate distinct count.
func (h *HyperLogLog) Estimate() uint64 {
	m := float64(h.numRegisters())
	var sum float64
	var zeros int
	if h.registers != nil {
		for _, r := range h.registers {
			sum += 1 / float64(uint64(1)<<r)
			if r == 0 {
				zeros++
			}
		}
	} else {
		zeros = h.numRegisters() - len(h.sparse)
		sum = float64(zeros)
		for _, packed := range h.sparse {
			sum += 1 / float64(uint64(1)<<uint8(packed))
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
	if h.registers != nil {
		for i, r := range h.registers {
			if r != 0 {
				buf = append(appendU32(buf, uint32(i)-next), r)
				next = uint32(i) + 1
			}
		}
	} else {
		for _, packed := range h.sparse {
			buf = append(appendU32(buf, packed>>8-next), uint8(packed))
			next = packed>>8 + 1
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
	if h.registers != nil {
		return append(buf[:start], h.registers...)
	}
	buf = append(buf[:start], make([]byte, n)...)
	for _, packed := range h.sparse {
		buf[start+int(packed>>8)] = uint8(packed)
	}
	return buf
}

// DecodeHyperLogLog decodes a sketch from the front of data and returns the
// remaining bytes. Sketches with few occupied registers decode into the
// sparse representation.
func DecodeHyperLogLog(data []byte) (*HyperLogLog, []byte, error) {
	if len(data) < 2 {
		return nil, nil, ErrCorrupt
	}
	p := data[0]
	if p < 4 || p > 16 {
		return nil, nil, ErrCorrupt
	}
	mode := data[1]
	data = data[2:]
	h := NewHyperLogLog(p)
	n := uint32(h.numRegisters())
	switch mode {
	case hllModeRaw:
		if uint32(len(data)) < n {
			return nil, nil, ErrCorrupt
		}
		h.registers = make([]uint8, n)
		copy(h.registers, data[:n])
		return h, data[n:], nil
	case hllModeRLE:
		i := uint32(0)
		for i < n {
			run, rest, err := readU32(data)
			if err != nil || len(rest) < 1 {
				return nil, nil, ErrCorrupt
			}
			v := rest[0]
			data = rest[1:]
			if i+run > n || (v != 0 && i+run >= n) {
				return nil, nil, ErrCorrupt
			}
			i += run
			if v != 0 {
				h.setRegister(i, v)
				i++
			} else if i != n {
				return nil, nil, ErrCorrupt
			}
		}
		return h, data, nil
	default:
		return nil, nil, ErrCorrupt
	}
}
