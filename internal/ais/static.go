package ais

import "math"

// StaticReport is a decoded type-5 static and voyage data message.
type StaticReport struct {
	MMSI        uint32
	IMO         uint32 // IMO ship identification number, 0 if unset
	CallSign    string // up to 7 characters
	Name        string // up to 20 characters
	ShipType    ShipType
	DimBow      int     // metres from GPS antenna to bow
	DimStern    int     // metres to stern (length = bow + stern)
	DimPort     int     // metres to port side
	DimStarb    int     // metres to starboard (beam = port + starboard)
	Draught     float64 // metres, NaN if unavailable
	Destination string  // up to 20 characters, as keyed by the crew
	ETAMonth    int     // 1-12, 0 if unavailable
	ETADay      int     // 1-31, 0 if unavailable
	ETAHour     int     // 0-23, 24 if unavailable
	ETAMinute   int     // 0-59, 60 if unavailable
}

// Length returns the vessel's overall length in metres.
func (s StaticReport) Length() int { return s.DimBow + s.DimStern }

// Beam returns the vessel's beam in metres.
func (s StaticReport) Beam() int { return s.DimPort + s.DimStarb }

const staticBits = 424

// EncodeStatic encodes a type-5 static and voyage message. Type-5 payloads
// are 424 bits and always split across two NMEA sentences; seqID tags the
// group.
func EncodeStatic(s StaticReport, seqID int) ([]string, error) {
	if !ValidMMSI(s.MMSI) {
		return nil, ErrInvalidFields
	}
	b := newBitBuf(staticBits)
	b.setUint(0, 6, TypeStatic)
	b.setUint(8, 30, uint64(s.MMSI))
	b.setUint(38, 2, 0) // AIS version
	b.setUint(40, 30, uint64(s.IMO))
	b.setText(70, 7, s.CallSign)
	b.setText(112, 20, s.Name)
	b.setUint(232, 8, uint64(s.ShipType))
	b.setUint(240, 9, clampUint(s.DimBow, 511))
	b.setUint(249, 9, clampUint(s.DimStern, 511))
	b.setUint(258, 6, clampUint(s.DimPort, 63))
	b.setUint(264, 6, clampUint(s.DimStarb, 63))
	b.setUint(270, 4, 1) // EPFD: GPS
	b.setUint(274, 4, clampUint(s.ETAMonth, 12))
	b.setUint(278, 5, clampUint(s.ETADay, 31))
	b.setUint(283, 5, clampUint(s.ETAHour, 24))
	b.setUint(288, 6, clampUint(s.ETAMinute, 60))
	draughtRaw := uint64(0)
	if !math.IsNaN(s.Draught) && s.Draught > 0 {
		v := math.Round(s.Draught * 10)
		if v > 255 {
			v = 255
		}
		draughtRaw = uint64(v)
	}
	b.setUint(294, 8, draughtRaw)
	b.setText(302, 20, s.Destination)
	return EncodeSentences(b, "A", seqID), nil
}

// decodeStatic decodes a type-5 payload.
func decodeStatic(b *bitBuf) (StaticReport, error) {
	if b.Len() < 420 {
		return StaticReport{}, ErrShortMessage
	}
	if b.uint(0, 6) != TypeStatic {
		return StaticReport{}, ErrWrongType
	}
	s := StaticReport{
		MMSI:        uint32(b.uint(8, 30)),
		IMO:         uint32(b.uint(40, 30)),
		CallSign:    b.text(70, 7),
		Name:        b.text(112, 20),
		ShipType:    ShipType(b.uint(232, 8)),
		DimBow:      int(b.uint(240, 9)),
		DimStern:    int(b.uint(249, 9)),
		DimPort:     int(b.uint(258, 6)),
		DimStarb:    int(b.uint(264, 6)),
		ETAMonth:    int(b.uint(274, 4)),
		ETADay:      int(b.uint(278, 5)),
		ETAHour:     int(b.uint(283, 5)),
		ETAMinute:   int(b.uint(288, 6)),
		Destination: b.text(302, 20),
	}
	draughtRaw := b.uint(294, 8)
	s.Draught = math.NaN()
	if draughtRaw > 0 {
		s.Draught = float64(draughtRaw) / 10
	}
	return s, nil
}

func clampUint(v, hi int) uint64 { return uint64(min(max(v, 0), hi)) }
