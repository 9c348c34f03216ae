// Package feed reads and writes AIS archive files in the common
// "timestamped NMEA" form used by AIS data providers: one sentence per
// line, prefixed with the Unix receive timestamp and a tab:
//
//	1641038400\t!AIVDM,1,1,,A,15M67FC000G?ufbE`FepT@3n00Sa,0*5B
//
// Multi-sentence messages (type 5) occupy consecutive lines sharing a
// timestamp. The reader reassembles and decodes messages, converting them
// to pipeline records; lines that fail checksum or decoding are counted and
// skipped, as a production ingest does.
package feed

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/model"
)

// Writer emits timestamped NMEA lines.
type Writer struct {
	w   *bufio.Writer
	seq int
	// Lines counts emitted NMEA lines.
	Lines int64
}

// NewWriter wraps an io.Writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<20)}
}

// WritePosition encodes and writes one position report.
func (w *Writer) WritePosition(rec model.PositionRecord) error {
	lines, err := ais.EncodePosition(ais.PositionReport{
		Type:      ais.TypePositionA1,
		MMSI:      rec.MMSI,
		Status:    rec.Status,
		Lon:       rec.Pos.Lng,
		Lat:       rec.Pos.Lat,
		SOG:       rec.SOG,
		COG:       rec.COG,
		Heading:   rec.Heading,
		Timestamp: int(rec.Time % 60),
	})
	if err != nil {
		return fmt.Errorf("feed: encode position: %w", err)
	}
	return w.writeLines(rec.Time, lines)
}

// WriteStatic encodes and writes one static report.
func (w *Writer) WriteStatic(v model.VesselInfo, atUnix int64) error {
	w.seq = (w.seq + 1) % 10
	lines, err := ais.EncodeStatic(ais.StaticReport{
		MMSI:     v.MMSI,
		IMO:      v.IMO,
		CallSign: v.CallSign,
		Name:     v.Name,
		ShipType: v.Type.AISShipType(),
		DimBow:   v.LengthM / 2,
		DimStern: v.LengthM - v.LengthM/2,
		DimPort:  v.BeamM / 2,
		DimStarb: v.BeamM - v.BeamM/2,
		Draught:  float64(v.GRT) / 12000,
	}, w.seq)
	if err != nil {
		return fmt.Errorf("feed: encode static: %w", err)
	}
	return w.writeLines(atUnix, lines)
}

func (w *Writer) writeLines(ts int64, lines []string) error {
	for _, line := range lines {
		buf := append(strconv.AppendInt(w.w.AvailableBuffer(), ts, 10), '\t')
		buf = append(append(buf, line...), '\n')
		if _, err := w.w.Write(buf); err != nil {
			return fmt.Errorf("feed: write: %w", err)
		}
		w.Lines++
	}
	return nil
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// ReadStats reports the ingest quality counters of a Reader pass.
type ReadStats struct {
	Lines       int64 // input lines seen
	BadLines    int64 // unparseable line framing
	BadNMEA     int64 // checksum / sentence failures
	Positions   int64 // decoded position reports
	Statics     int64 // decoded static reports
	Unsupported int64 // valid messages of other types
}

// Reader decodes a timestamped NMEA archive.
type Reader struct {
	sc    *bufio.Scanner
	dec   *ais.Decoder
	stats ReadStats
	// pending static info discovered in the stream.
	statics map[uint32]ais.StaticReport
}

// NewReader wraps an io.Reader.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	return &Reader{
		sc:      sc,
		dec:     ais.NewDecoder(),
		statics: make(map[uint32]ais.StaticReport),
	}
}

// ItemKind discriminates the decoded feed elements surfaced by NextItem.
type ItemKind uint8

// Feed item kinds.
const (
	// ItemPosition: a decoded position report.
	ItemPosition ItemKind = iota + 1
	// ItemStatic: a decoded type-5 static & voyage report.
	ItemStatic
)

// Item is one decoded feed element: a position record or a static report,
// each carrying the line's receive timestamp. The live ingestion path
// consumes items so static reports are visible the moment they arrive
// instead of only after a full archive pass.
type Item struct {
	Kind   ItemKind
	Time   int64                // Unix receive timestamp of the line
	Pos    model.PositionRecord // when Kind == ItemPosition
	Static ais.StaticReport     // when Kind == ItemStatic
}

// NextItem returns the next decoded feed element — position or static —
// in stream order. It returns io.EOF at end of input. Static reports are
// additionally collected into the Statics map, preserving the archive
// reader behaviour.
func (r *Reader) NextItem() (Item, error) {
	for r.sc.Scan() {
		r.stats.Lines++
		line := r.sc.Bytes()
		tab := bytes.IndexByte(line, '\t')
		if tab < 0 {
			r.stats.BadLines++
			continue
		}
		ts, err := strconv.ParseInt(string(line[:tab]), 10, 64)
		if err != nil {
			r.stats.BadLines++
			continue
		}
		before := r.dec.BadSentence + r.dec.BadPayload
		m, ok := r.dec.Feed(line[tab+1:])
		if !ok {
			if r.dec.BadSentence+r.dec.BadPayload > before {
				r.stats.BadNMEA++
			}
			continue
		}
		switch m.Type {
		case ais.TypeStatic:
			r.stats.Statics++
			r.statics[m.Static.MMSI] = *m.Static
			return Item{Kind: ItemStatic, Time: ts, Static: *m.Static}, nil
		case ais.TypeBaseStation, ais.TypeStaticB:
			// Decodable but not consumed by the pipeline.
			r.stats.Unsupported++
		default:
			p := m.Position
			r.stats.Positions++
			return Item{Kind: ItemPosition, Time: ts, Pos: model.PositionRecord{
				MMSI:    p.MMSI,
				Time:    ts,
				Pos:     geo.LatLng{Lat: p.Lat, Lng: p.Lon},
				SOG:     p.SOG,
				COG:     p.COG,
				Heading: p.Heading,
				Status:  p.Status,
			}}, nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return Item{}, fmt.Errorf("feed: scan: %w", err)
	}
	return Item{}, io.EOF
}

// Next returns the next decoded position record. It returns io.EOF at end
// of input. Static reports encountered are collected (see Statics) and do
// not surface as records.
func (r *Reader) Next() (model.PositionRecord, error) {
	for {
		it, err := r.NextItem()
		if err != nil {
			return model.PositionRecord{}, err
		}
		if it.Kind == ItemPosition {
			return it.Pos, nil
		}
	}
}

// ReadAll drains the reader into a slice.
func (r *Reader) ReadAll() ([]model.PositionRecord, error) {
	var out []model.PositionRecord
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Stats returns the ingest counters accumulated so far.
func (r *Reader) Stats() ReadStats { return r.stats }

// Statics returns the static reports seen so far, keyed by MMSI.
func (r *Reader) Statics() map[uint32]ais.StaticReport { return r.statics }

// StaticsAsVesselInfo converts collected static reports into the vessel
// static inventory the pipeline joins against. The market segment is
// derived from the AIS ship type (AIS cannot distinguish container/bulk
// from general cargo; they map to VesselCargo).
func (r *Reader) StaticsAsVesselInfo() map[uint32]model.VesselInfo {
	out := make(map[uint32]model.VesselInfo, len(r.statics))
	for mmsi, s := range r.statics {
		out[mmsi] = StaticAsVesselInfo(s)
	}
	return out
}

// StaticAsVesselInfo converts one wire static report into the vessel
// static-inventory entry the pipeline joins against — the per-item form
// used by the live ingestion path.
func StaticAsVesselInfo(s ais.StaticReport) model.VesselInfo {
	vt := model.VesselUnknown
	switch s.ShipType.Category() {
	case ais.ShipCategoryCargo:
		vt = model.VesselCargo
	case ais.ShipCategoryTanker:
		vt = model.VesselTanker
	case ais.ShipCategoryPassenger:
		vt = model.VesselPassenger
	}
	return model.VesselInfo{
		MMSI:     s.MMSI,
		IMO:      s.IMO,
		Name:     s.Name,
		CallSign: s.CallSign,
		Type:     vt,
		// The wire carries no tonnage; estimate from dimensions so the
		// commercial filter (> 5000 GRT) behaves sensibly: gross
		// tonnage scales with enclosed volume ≈ L·B·depth, and depth
		// tracks beam, giving GT ≈ 3.5·L·B for merchant hull forms.
		GRT:     s.Length() * s.Beam() * 7 / 2,
		LengthM: s.Length(),
		BeamM:   s.Beam(),
		ClassA:  true,
	}
}
