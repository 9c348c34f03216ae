package ais

import "time"

// Additional message types beyond the pipeline's core set: base-station
// reports (type 4) provide the reference clock of terrestrial AIS networks,
// and class-B static data (type 24) carries identity for the small-vessel
// fleet. Both appear constantly in real provider feeds, so a credible
// ingest must at least decode them.
const (
	TypeBaseStation = 4  // base station report (UTC reference)
	TypeStaticB     = 24 // class B static data, parts A and B
)

// BaseStationReport is a decoded type-4 message.
type BaseStationReport struct {
	MMSI uint32
	Time time.Time // UTC time broadcast by the station
	Lon  float64   // station longitude, NaN if unavailable
	Lat  float64   // station latitude, NaN if unavailable
}

// decodeBaseStation decodes a type-4 payload.
func decodeBaseStation(b *bitBuf) (BaseStationReport, error) {
	if b.Len() < 134 {
		return BaseStationReport{}, ErrShortMessage
	}
	r := BaseStationReport{MMSI: uint32(b.uint(8, 30))}
	year := int(b.uint(38, 14))
	month := int(b.uint(52, 4))
	day := int(b.uint(56, 5))
	hour := int(b.uint(61, 5))
	minute := int(b.uint(66, 6))
	second := int(b.uint(72, 6))
	if year > 0 && month >= 1 && month <= 12 && day >= 1 && day <= 31 {
		r.Time = time.Date(year, time.Month(month), day, hour, minute, second, 0, time.UTC)
	}
	r.Lon = scaled(b.int(79, 28), LonNotAvailable, 600000)
	r.Lat = scaled(b.int(107, 27), LatNotAvailable, 600000)
	return r, nil
}

// StaticBReport is a decoded type-24 message. Class-B static data arrives
// in two independent single-sentence parts: part A carries the name, part B
// the ship type, callsign and dimensions. Part is 0 for A and 1 for B;
// the unrelated fields are zero for the part not present.
type StaticBReport struct {
	MMSI     uint32
	Part     int // 0 = part A, 1 = part B
	Name     string
	ShipType ShipType
	CallSign string
	DimBow   int
	DimStern int
	DimPort  int
	DimStarb int
}

// decodeStaticB decodes a type-24 payload.
func decodeStaticB(b *bitBuf) (StaticBReport, error) {
	if b.Len() < 40 {
		return StaticBReport{}, ErrShortMessage
	}
	r := StaticBReport{
		MMSI: uint32(b.uint(8, 30)),
		Part: int(b.uint(38, 2)),
	}
	switch r.Part {
	case 0:
		if b.Len() < 160 {
			return StaticBReport{}, ErrShortMessage
		}
		r.Name = b.text(40, 20)
	case 1:
		if b.Len() < 162 {
			return StaticBReport{}, ErrShortMessage
		}
		r.ShipType = ShipType(b.uint(40, 8))
		r.CallSign = b.text(90, 7)
		r.DimBow = int(b.uint(132, 9))
		r.DimStern = int(b.uint(141, 9))
		r.DimPort = int(b.uint(150, 6))
		r.DimStarb = int(b.uint(156, 6))
	default:
		return StaticBReport{}, ErrBadPayload
	}
	return r, nil
}
