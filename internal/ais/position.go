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

	lonRaw := int64(LonNotAvailable)
	if !math.IsNaN(p.Lon) && p.Lon >= -180 && p.Lon <= 180 {
		lonRaw = int64(math.Round(p.Lon * 600000))
	}
	latRaw := int64(LatNotAvailable)
	if !math.IsNaN(p.Lat) && p.Lat >= -90 && p.Lat <= 90 {
		latRaw = int64(math.Round(p.Lat * 600000))
	}
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

	if p.Type == TypePositionB {
		b.setUint(46, 10, sogRaw)
		b.setInt(57, 28, lonRaw)
		b.setInt(85, 27, latRaw)
		b.setUint(112, 12, cogRaw)
		b.setUint(124, 9, hdgRaw)
		b.setUint(133, 6, uint64(ts))
	} else {
		b.setUint(38, 4, uint64(p.Status))
		b.setUint(42, 8, 128) // rate of turn: not available
		b.setUint(50, 10, sogRaw)
		b.setInt(61, 28, lonRaw)
		b.setInt(89, 27, latRaw)
		b.setUint(116, 12, cogRaw)
		b.setUint(128, 9, hdgRaw)
		b.setUint(137, 6, uint64(ts))
	}
	return EncodeSentences(b, "A", 0), nil
}

// decodePosition decodes a position payload of type 1-3 or 18.
func decodePosition(b *bitBuf) (PositionReport, error) {
	if b.Len() < 143 {
		return PositionReport{}, ErrShortMessage
	}
	msgType := int(b.uint(0, 6))
	p := PositionReport{
		Type:   msgType,
		MMSI:   uint32(b.uint(8, 30)),
		Status: StatusNotDefined,
	}
	var sogRaw, cogRaw, hdgRaw, tsRaw uint64
	var lonRaw, latRaw int64
	switch msgType {
	case TypePositionA1, TypePositionA2, TypePositionA3:
		p.Status = NavStatus(b.uint(38, 4))
		sogRaw = b.uint(50, 10)
		lonRaw = b.int(61, 28)
		latRaw = b.int(89, 27)
		cogRaw = b.uint(116, 12)
		hdgRaw = b.uint(128, 9)
		tsRaw = b.uint(137, 6)
	case TypePositionB:
		sogRaw = b.uint(46, 10)
		lonRaw = b.int(57, 28)
		latRaw = b.int(85, 27)
		cogRaw = b.uint(112, 12)
		hdgRaw = b.uint(124, 9)
		tsRaw = b.uint(133, 6)
	default:
		return PositionReport{}, ErrWrongType
	}

	p.SOG = math.NaN()
	if sogRaw != SOGNotAvailable {
		p.SOG = float64(sogRaw) / 10
	}
	p.Lon = math.NaN()
	if lonRaw != LonNotAvailable {
		p.Lon = float64(lonRaw) / 600000
	}
	p.Lat = math.NaN()
	if latRaw != LatNotAvailable {
		p.Lat = float64(latRaw) / 600000
	}
	p.COG = math.NaN()
	if cogRaw != COGNotAvailable {
		p.COG = float64(cogRaw) / 10
	}
	p.Heading = math.NaN()
	if hdgRaw != HeadingNotAvailable {
		p.Heading = float64(hdgRaw)
	}
	p.Timestamp = int(tsRaw)
	return p, nil
}
