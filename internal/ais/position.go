package ais

import "math"

// PositionReport is a decoded class-A (types 1-3) or class-B (type 18)
// position report with fields converted to natural units. Unavailable
// fields are NaN (floats) or the documented sentinel.
type PositionReport struct {
	Type      int       // 1, 2, 3 or 18
	MMSI      uint32    // vessel identity
	Status    NavStatus // class A only; StatusNotDefined for class B
	Lon       float64   // degrees east, NaN if unavailable
	Lat       float64   // degrees north, NaN if unavailable
	SOG       float64   // speed over ground in knots, NaN if unavailable
	COG       float64   // course over ground in degrees, NaN if unavailable
	Heading   float64   // true heading in degrees, NaN if unavailable
	Timestamp int       // UTC second of the report, 0-59, or 60 if unavailable
}

const positionBits = 168

// EncodePosition encodes a class-A position report (type 1) into NMEA
// sentences. Out-of-range values are replaced with the protocol's
// "not available" sentinels rather than rejected, matching transponder
// behaviour.
func EncodePosition(p PositionReport) ([]string, error) {
	if p.Type == 0 {
		p.Type = TypePositionA1
	}
	if p.Type != TypePositionA1 && p.Type != TypePositionA2 &&
		p.Type != TypePositionA3 && p.Type != TypePositionB {
		return nil, ErrWrongType
	}
	if !ValidMMSI(p.MMSI) {
		return nil, ErrInvalidFields
	}
	b := newBitBuf(positionBits)
	b.setUint(0, 6, uint64(p.Type))
	b.setUint(8, 30, uint64(p.MMSI))

	lonRaw := coordRaw(p.Lon, 180, LonNotAvailable)
	latRaw := coordRaw(p.Lat, 90, LatNotAvailable)
	sogRaw := uint64(SOGNotAvailable)
	if !math.IsNaN(p.SOG) && p.SOG >= 0 {
		v := math.Round(p.SOG * 10)
		if v > 1022 {
			v = 1022 // 102.2 knots and above
		}
		sogRaw = uint64(v)
	}
	cogRaw := uint64(COGNotAvailable)
	if !math.IsNaN(p.COG) && p.COG >= 0 && p.COG < 360 {
		cogRaw = uint64(math.Round(p.COG * 10))
		if cogRaw >= 3600 {
			cogRaw = 0
		}
	}
	hdgRaw := uint64(HeadingNotAvailable)
	if !math.IsNaN(p.Heading) && p.Heading >= 0 && p.Heading < 360 {
		hdgRaw = uint64(math.Round(p.Heading))
		if hdgRaw >= 360 {
			hdgRaw = 0
		}
	}
	ts := p.Timestamp
	if ts < 0 || ts > 63 {
		ts = TimestampNotAvail
	}

	off := 0
	if p.Type == TypePositionB {
		off = classBShift
	} else {
		b.setUint(38, 4, uint64(p.Status))
		b.setUint(42, 8, 128) // rate of turn: not available
	}
	b.setUint(50-off, 10, sogRaw)
	b.setInt(61-off, 28, lonRaw)
	b.setInt(89-off, 27, latRaw)
	b.setUint(116-off, 12, cogRaw)
	b.setUint(128-off, 9, hdgRaw)
	b.setUint(137-off, 6, uint64(ts))
	return EncodeSentences(b, "A", 0), nil
}

// decodePosition decodes a position payload of type 1-3 or 18 into p, in
// place; on error p is unspecified.
func decodePosition(b *bitBuf, p *PositionReport) error {
	if b.Len() < 143 {
		return ErrShortMessage
	}
	p.Type = int(b.uint(0, 6))
	p.MMSI = uint32(b.uint(8, 30))
	p.Status = StatusNotDefined
	off := 0
	switch p.Type {
	case TypePositionA1, TypePositionA2, TypePositionA3:
		p.Status = NavStatus(b.uint(38, 4))
	case TypePositionB:
		off = classBShift
	default:
		return ErrWrongType
	}
	p.SOG = scaled(int64(b.uint(50-off, 10)), SOGNotAvailable, 10)
	p.Lon = scaled(b.int(61-off, 28), LonNotAvailable, 600000)
	p.Lat = scaled(b.int(89-off, 27), LatNotAvailable, 600000)
	p.COG = scaled(int64(b.uint(116-off, 12)), COGNotAvailable, 10)
	p.Heading = scaled(int64(b.uint(128-off, 9)), HeadingNotAvailable, 1)
	p.Timestamp = int(b.uint(137-off, 6))
	return nil
}

// classBShift is how many bits earlier than in a class-A report the speed,
// position, course, heading and timestamp of a class-B report sit: it has
// no navigational status and no rate of turn.
const classBShift = 4

// scaled converts a raw field to natural units, NaN for the protocol's
// "not available" value.
func scaled(raw, notAvailable int64, perUnit float64) float64 {
	if raw == notAvailable {
		return math.NaN()
	}
	return float64(raw) / perUnit
}

// coordRaw converts a longitude or latitude in degrees to 1/10000 minutes,
// or to notAvailable outside ±limit.
func coordRaw(deg, limit float64, notAvailable int64) int64 {
	if math.IsNaN(deg) || deg < -limit || deg > limit {
		return notAvailable
	}
	return int64(math.Round(deg * 600000))
}
