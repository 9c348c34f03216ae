package pipeline

import (
	"encoding/binary"
	"errors"
	"math"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
)

// A record log holds position records as bytes, each one a header byte and
// the deltas from the record before it (the first from the zero record):
//
//	header  bit i (i < 5) set: field i is its 8 raw little-endian bytes
//	        bit 5 set: the MMSI changed; its uvarint follows
//	        bit 6 set: the navigational status changed; its byte follows
//	        bit 7: zero
//	time    zigzag uvarint of the delta, in seconds
//	fields  lat, lng, SOG, COG, heading: zigzag uvarint of the delta of
//	        k, the field in its AIS quantum (value = k / unit), or the raw
//	        bytes when the header says so
//
// A field is a quantum count exactly when float64(k)/unit gives back its
// bits, which every value the AIS decoder produces does; anything else
// (NaN, a simulator's raw float, −0) escapes, and the quantum base of the
// next delta stays where it was. Decoding refuses every byte string the
// encoder would not have written, so a log that decodes re-encodes to
// itself.
//
// The log only grows: a reader may hold a capacity-clipped prefix of its
// bytes while the owner appends, and an owner that is done with the
// records starts a new log rather than truncating this one.
type recordLog struct {
	buf []byte
	n   int    // records
	ref logRef // the last record, the base of the next deltas
}

// logUnits are the fields' quanta per unit: 1/600 000° for positions,
// 0.1 kn, 0.1°, 1°.
var logUnits = [logFields]float64{600000, 600000, 10, 10, 1}

const (
	logFields   = 5
	logMMSI     = 1 << 5
	logStatus   = 1 << 6
	logReserved = 1 << 7
)

type logRef struct {
	mmsi   uint32
	status ais.NavStatus
	time   int64
	k      [logFields]int64
}

func logValues(r *model.PositionRecord) [logFields]float64 {
	return [logFields]float64{r.Pos.Lat, r.Pos.Lng, r.SOG, r.COG, r.Heading}
}

// logMaxCount bounds the quantum counts a log holds. Below it the
// decoder need not re-quantize what it decodes: v = float64(k)/unit
// rounds twice on the way back to v*unit, an error under |k|·2⁻⁵¹·⁹ ≤ 0.27,
// so v quantizes to k again.
const logMaxCount = 1 << 50

// quantize returns k with float64(k)/unit == v bit for bit and |k| below
// logMaxCount, or false.
func quantize(v, unit float64) (int64, bool) {
	x := v * unit
	if !(math.Abs(x) < logMaxCount) {
		return 0, false
	}
	k := int64(math.Round(x))
	return k, k != logMaxCount && k != -logMaxCount && math.Float64bits(float64(k)/unit) == math.Float64bits(v)
}

func putZigzag(b []byte, d int64) int {
	return binary.PutUvarint(b, uint64(d<<1)^uint64(d>>63))
}

// append adds one record to the log.
func (l *recordLog) append(r model.PositionRecord) {
	v := logValues(&r)
	var k [logFields]int64
	var hdr byte
	for i := range v {
		var ok bool
		if k[i], ok = quantize(v[i], logUnits[i]); !ok {
			hdr |= 1 << i
		}
	}
	if r.MMSI != l.ref.mmsi {
		hdr |= logMMSI
	}
	if r.Status != l.ref.status {
		hdr |= logStatus
	}
	// The record is assembled on the stack and appended once: a header,
	// an MMSI, a status, a time and five fields at their longest.
	var rec [1 + binary.MaxVarintLen32 + 1 + (1+logFields)*binary.MaxVarintLen64]byte
	rec[0] = hdr
	n := 1
	if hdr&logMMSI != 0 {
		n += binary.PutUvarint(rec[n:], uint64(r.MMSI))
	}
	if hdr&logStatus != 0 {
		rec[n] = byte(r.Status)
		n++
	}
	n += putZigzag(rec[n:], int64(uint64(r.Time)-uint64(l.ref.time)))
	for i := range v {
		if hdr&(1<<i) != 0 {
			binary.LittleEndian.PutUint64(rec[n:], math.Float64bits(v[i]))
			n += 8
			continue
		}
		n += putZigzag(rec[n:], k[i]-l.ref.k[i])
		l.ref.k[i] = k[i]
	}
	l.buf = append(l.buf, rec[:n]...)
	l.n++
	l.ref.mmsi, l.ref.status, l.ref.time = r.MMSI, r.Status, r.Time
}

// bytes returns the log's bytes, clipped to their length so that appending
// to them cannot reach the log's spare capacity.
func (l *recordLog) bytes() []byte { return l.buf[:len(l.buf):len(l.buf)] }

// logDecoder walks a record log one record at a time.
type logDecoder struct {
	b   []byte
	off int
	ref logRef
	err error
}

// next decodes the record at off; ok is false at the end of the log or on
// the first error, which sticks in err.
func (d *logDecoder) next() (r model.PositionRecord, ok bool) {
	if d.err != nil || d.off == len(d.b) {
		return r, false
	}
	hdr := d.b[d.off]
	d.off++
	ref := d.ref
	if hdr&logMMSI != 0 {
		m := d.uvarint()
		d.check(m <= math.MaxUint32 && uint32(m) != ref.mmsi, "an MMSI that is not a change")
		ref.mmsi = uint32(m)
	}
	if hdr&logStatus != 0 {
		s := ais.NavStatus(d.raw(1)[0])
		d.check(s != ref.status, "a status that is not a change")
		ref.status = s
	}
	ref.time = int64(uint64(ref.time) + uint64(d.zigzag()))
	var v [logFields]float64
	for i := range v {
		if hdr&(1<<i) != 0 {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.raw(8)))
			_, q := quantize(v[i], logUnits[i])
			d.check(!q, "an escaped quantum count")
			continue
		}
		k := int64(uint64(ref.k[i]) + uint64(d.zigzag()))
		d.check(-logMaxCount < k && k < logMaxCount, "a quantum count out of range")
		v[i] = float64(k) / logUnits[i]
		ref.k[i] = k
	}
	d.check(hdr&logReserved == 0, "the reserved header bit")
	if d.err != nil {
		return r, false
	}
	d.ref = ref
	return model.PositionRecord{
		MMSI: ref.mmsi, Time: ref.time, Pos: geo.LatLng{Lat: v[0], Lng: v[1]},
		SOG: v[2], COG: v[3], Heading: v[4], Status: ref.status,
	}, true
}

// check records the first failed condition as the decoder's error.
func (d *logDecoder) check(ok bool, what string) {
	if !ok && d.err == nil {
		d.err = errors.New("corrupt record log: " + what)
	}
}

// raw takes the next n bytes, zeros past the end.
func (d *logDecoder) raw(n int) []byte {
	if d.check(len(d.b)-d.off >= n, "truncated bytes"); d.err != nil {
		return make([]byte, n)
	}
	d.off += n
	return d.b[d.off-n : d.off]
}

// uvarint reads a minimal uvarint: an overlong or overflowing one is an
// error, so every value has one spelling.
func (d *logDecoder) uvarint() uint64 {
	if d.off < len(d.b) && d.b[d.off] < 0x80 {
		d.off++
		return uint64(d.b[d.off-1])
	}
	x, n := binary.Uvarint(d.b[d.off:])
	if d.check(n > 0 && (n == 1 || d.b[d.off+n-1] != 0), "a truncated, overlong or overflowing varint"); d.err != nil {
		return 0
	}
	d.off += n
	return x
}

func (d *logDecoder) zigzag() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// decodeRecordLog appends the records of b to dst.
func decodeRecordLog(dst []model.PositionRecord, b []byte) ([]model.PositionRecord, error) {
	d := logDecoder{b: b}
	for r, ok := d.next(); ok; r, ok = d.next() {
		dst = append(dst, r)
	}
	return dst, d.err
}
