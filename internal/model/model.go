// Package model defines the record types that flow between pipeline stages:
// raw and cleaned positional reports, vessel static information, and
// trip-annotated, grid-projected records. It corresponds to the schemas that
// the paper's Spark stages exchange (Figure 3).
package model

import (
	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/geo"
)

// VesselType is the market segment of a commercial vessel — the
// "vessel-type" dimension of the paper's grouping sets (Table 2). The
// segment comes from the vessel static inventory, which is finer-grained
// than the AIS ship-type field (AIS lumps container ships, bulkers and
// general cargo under one first digit).
type VesselType uint8

// Market segments of the commercial fleet.
const (
	VesselUnknown   VesselType = 0
	VesselCargo     VesselType = 1 // general cargo
	VesselContainer VesselType = 2
	VesselBulk      VesselType = 3
	VesselTanker    VesselType = 4
	VesselPassenger VesselType = 5
)

// String returns the segment label.
func (t VesselType) String() string {
	switch t {
	case VesselCargo:
		return "cargo"
	case VesselContainer:
		return "container"
	case VesselBulk:
		return "bulk"
	case VesselTanker:
		return "tanker"
	case VesselPassenger:
		return "passenger"
	default:
		return "unknown"
	}
}

// AISShipType returns the AIS ship-and-cargo type code a transponder of
// this segment reports.
func (t VesselType) AISShipType() ais.ShipType {
	switch t {
	case VesselTanker:
		return 80
	case VesselPassenger:
		return 60
	case VesselCargo, VesselContainer, VesselBulk:
		return 70
	default:
		return 90
	}
}

// PositionRecord is one cleaned positional report: the unit record of the
// pipeline after decoding.
type PositionRecord struct {
	MMSI    uint32        // vessel identity
	Time    int64         // Unix seconds UTC
	Pos     geo.LatLng    // reported position
	SOG     float64       // speed over ground, knots
	COG     float64       // course over ground, degrees
	Heading float64       // true heading, degrees
	Status  ais.NavStatus // navigational status
}

// PortID identifies a port in the gazetteer. Zero means "no port".
type PortID uint32

// NoPort is the zero PortID.
const NoPort PortID = 0

// VesselInfo is one entry of the vessel static inventory (the paper's
// "vessel static information" dataset, Table 1).
type VesselInfo struct {
	MMSI        uint32
	IMO         uint32
	Name        string
	CallSign    string
	Type        VesselType
	GRT         int     // gross tonnage
	LengthM     int     // overall length, metres
	BeamM       int     // beam, metres
	DesignSpeed float64 // service speed, knots
	ClassA      bool    // carries a class-A transceiver
}

// IsCommercial reports whether the vessel passes the paper's commercial
// fleet filter: a known market segment, tonnage above 5000 GRT, and a
// class-A transceiver (§3.1.1).
func (v VesselInfo) IsCommercial() bool {
	return v.Type != VesselUnknown && v.GRT > 5000 && v.ClassA
}

// TripRecord is a positional report annotated with trip semantics
// (§3.3.2): the trip identifier, the origin/destination ports and their
// timestamps, plus the derived ETO/ATA features.
type TripRecord struct {
	PositionRecord
	VType      VesselType
	TripID     uint64 // unique per (vessel, voyage)
	Origin     PortID
	Dest       PortID
	DepartTime int64 // first report after leaving the origin geofence
	ArriveTime int64 // last report before entering the destination geofence
}

// ETO returns the elapsed time from origin in seconds (the paper's
// "elapsed time from departure" feature).
func (t TripRecord) ETO() float64 { return float64(t.Time - t.DepartTime) }

// ATA returns the actual remaining time to arrival in seconds (the paper's
// "actual time of arrival" feature).
func (t TripRecord) ATA() float64 { return float64(t.ArriveTime - t.Time) }
