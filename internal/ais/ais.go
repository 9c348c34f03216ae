// Package ais implements the subset of the AIS protocol (ITU-R M.1371) and
// its NMEA 0183 transport that the paper's pipeline consumes: class-A
// position reports (message types 1-3), class-B position reports (type 18)
// and static & voyage data (type 5), together with AIVDM sentence framing,
// 6-bit payload armoring, checksums and multi-sentence assembly.
//
// The simulator emits real AIVDM sentences through Encode* and the pipeline
// ingests them through the Decoder, so the data path from "VHF message" to
// "cleaned positional report" exists end to end as in the production system
// the paper describes.
package ais

import (
	"errors"
	"fmt"
)

// Message type numbers used by this system.
const (
	TypePositionA1 = 1  // class A position report, scheduled
	TypePositionA2 = 2  // class A position report, assigned
	TypePositionA3 = 3  // class A position report, interrogated
	TypeStatic     = 5  // class A static and voyage data
	TypePositionB  = 18 // class B position report
)

// NavStatus is the AIS navigational status field of class-A position
// reports.
type NavStatus uint8

// Navigational status values (ITU-R M.1371 table 45).
const (
	StatusUnderWayEngine NavStatus = 0
	StatusAtAnchor       NavStatus = 1
	StatusNotUnderCmd    NavStatus = 2
	StatusRestricted     NavStatus = 3
	StatusConstrained    NavStatus = 4
	StatusMoored         NavStatus = 5
	StatusAground        NavStatus = 6
	StatusFishing        NavStatus = 7
	StatusUnderWaySail   NavStatus = 8
	StatusNotDefined     NavStatus = 15
)

// String returns a short human-readable label for the status.
func (s NavStatus) String() string {
	switch s {
	case StatusUnderWayEngine:
		return "under way using engine"
	case StatusAtAnchor:
		return "at anchor"
	case StatusNotUnderCmd:
		return "not under command"
	case StatusRestricted:
		return "restricted manoeuvrability"
	case StatusConstrained:
		return "constrained by draught"
	case StatusMoored:
		return "moored"
	case StatusAground:
		return "aground"
	case StatusFishing:
		return "engaged in fishing"
	case StatusUnderWaySail:
		return "under way sailing"
	case StatusNotDefined:
		return "not defined"
	default:
		return fmt.Sprintf("reserved(%d)", uint8(s))
	}
}

// Valid reports whether the status is within the 4-bit field range.
func (s NavStatus) Valid() bool { return s <= 15 }

// ShipType is the AIS ship-and-cargo type field of type-5 messages
// (two-digit code; first digit is the category).
type ShipType uint8

// Ship type first-digit categories relevant to the commercial fleet filter.
const (
	ShipCategoryWIG       = 2
	ShipCategoryVessel    = 3 // fishing, towing, dredging, ...
	ShipCategoryHSC       = 4
	ShipCategorySpecial   = 5 // pilot, tug, ...
	ShipCategoryPassenger = 6
	ShipCategoryCargo     = 7
	ShipCategoryTanker    = 8
	ShipCategoryOther     = 9
)

// Category returns the first digit of the ship type (0 when unset).
func (t ShipType) Category() int { return int(t) / 10 }

// IsCommercial reports whether the ship type belongs to the commercial
// logistic-chain fleet the paper analyses: cargo (7x), tanker (8x) and
// passenger (6x) vessels.
func (t ShipType) IsCommercial() bool {
	c := t.Category()
	return c == ShipCategoryCargo || c == ShipCategoryTanker || c == ShipCategoryPassenger
}

// String returns a coarse label for the ship type.
func (t ShipType) String() string {
	switch t.Category() {
	case ShipCategoryPassenger:
		return "passenger"
	case ShipCategoryCargo:
		return "cargo"
	case ShipCategoryTanker:
		return "tanker"
	case ShipCategoryHSC:
		return "high-speed craft"
	case ShipCategorySpecial:
		return "special craft"
	case ShipCategoryVessel:
		return "other vessel"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Field sentinels ("not available" values) defined by ITU-R M.1371.
const (
	SOGNotAvailable     = 1023 // speed field raw value
	COGNotAvailable     = 3600 // course field raw value
	HeadingNotAvailable = 511
	LonNotAvailable     = 181 * 600000 // raw 1/10000 minutes
	LatNotAvailable     = 91 * 600000
	TimestampNotAvail   = 60
)

// Errors returned by decoders.
var (
	ErrBadChecksum   = errors.New("ais: NMEA checksum mismatch")
	ErrBadSentence   = errors.New("ais: malformed NMEA sentence")
	ErrBadPayload    = errors.New("ais: malformed 6-bit payload")
	ErrShortMessage  = errors.New("ais: message payload too short")
	ErrWrongType     = errors.New("ais: unexpected message type")
	ErrInvalidFields = errors.New("ais: field value out of encodable range")
)

// ValidMMSI reports whether an MMSI is a plausible 9-digit vessel identity.
func ValidMMSI(mmsi uint32) bool {
	return mmsi >= 100000000 && mmsi <= 999999999
}
