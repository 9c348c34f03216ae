// Package feed reads and writes AIS archive files in the common
// "timestamped NMEA" form used by AIS data providers: one sentence per
// line, prefixed with the Unix receive timestamp and a tab:
//
//	1641038400\t!AIVDM,1,1,,A,15M67FC000G?ufbE`FepT@3n00Sa,0*5B
//
// Multi-sentence messages (type 5) occupy consecutive lines sharing a
// timestamp. One line decoder with two drivers reassembles and decodes
// messages into pipeline records, counting and skipping lines that fail
// checksum or decoding as a production ingest does: NextItem reads a line
// at a time, ReadAll decodes chunks of lines on every core and runs the
// assembly once, in stream order, to the same result.
package feed

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
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

// Add adds the counters of another pass.
func (s *ReadStats) Add(o ReadStats) {
	s.Lines += o.Lines
	s.BadLines += o.BadLines
	s.BadNMEA += o.BadNMEA
	s.Positions += o.Positions
	s.Statics += o.Statics
	s.Unsupported += o.Unsupported
}

// Reader decodes a timestamped NMEA archive.
type Reader struct {
	lineDecoder // NextItem's and the fold's
	src         io.Reader
	sc          *bufio.Scanner // NextItem's, made by its first call
	dec         *ais.Decoder
	statics     map[uint32]ais.StaticReport // static info discovered in the stream
}

// maxLine is the scanner's limit on a line before its newline; ReadAll keeps it.
const maxLine = 1 << 20

// ErrReadAllAfterNextItem refuses ReadAll on a Reader NextItem has read
// from: its scanner holds bytes of the source that ReadAll would skip.
var ErrReadAllAfterNextItem = errors.New("feed: ReadAll after NextItem")

// NewReader wraps an io.Reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r, dec: ais.NewDecoder(), statics: make(map[uint32]ais.StaticReport)}
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
	if r.sc == nil {
		r.sc = bufio.NewScanner(r.src)
		r.sc.Buffer(make([]byte, 0, 1<<16), maxLine)
	}
	for r.sc.Scan() {
		ts, ok := r.line(r.sc.Bytes())
		switch {
		case !ok || !r.message(r.dec, &r.s):
		case r.m.Type == ais.TypeStatic:
			r.statics[r.m.Static.MMSI] = *r.m.Static
			return Item{Kind: ItemStatic, Time: ts, Static: *r.m.Static}, nil
		default:
			return Item{Kind: ItemPosition, Time: ts, Pos: record(ts, r.m.Position)}, nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return Item{}, fmt.Errorf("feed: scan: %w", err)
	}
	return Item{}, io.EOF
}

// lineDecoder is the line decoder both drivers run: it keeps the counters,
// and the sentence and message of the line it decoded last.
type lineDecoder struct {
	s     ais.Sentence
	m     ais.Message
	stats ReadStats
}

// line decodes a line up to the assembler: it counts the line and its
// failures, parses its sentence into d.s and returns its receive timestamp.
func (d *lineDecoder) line(line []byte) (int64, bool) {
	d.stats.Lines++
	tab := bytes.IndexByte(line, '\t')
	ts, err := strconv.ParseInt(string(line[:max(tab, 0)]), 10, 64) // no tab: "" fails
	if err != nil {
		d.stats.BadLines++
		return 0, false
	}
	if err = ais.ParseSentence(line[tab+1:], &d.s); err != nil {
		d.stats.BadNMEA++
	}
	return ts, err == nil
}

// message feeds s through dec into d.m and counts what it completes. It
// reports whether that is a position or static report.
func (d *lineDecoder) message(dec *ais.Decoder, s *ais.Sentence) bool {
	bad := dec.BadPayload
	ok := dec.FeedSentence(s, &d.m)
	d.stats.BadNMEA += int64(dec.BadPayload - bad)
	switch {
	case !ok:
	case d.m.Type == ais.TypeStatic:
		d.stats.Statics++
	case d.m.Type == ais.TypeBaseStation || d.m.Type == ais.TypeStaticB:
		d.stats.Unsupported++ // decodable but not consumed by the pipeline
		return false
	default:
		d.stats.Positions++
	}
	return ok
}

// record is the pipeline record of a position report received at ts.
func record(ts int64, p ais.PositionReport) model.PositionRecord {
	return model.PositionRecord{MMSI: p.MMSI, Time: ts, Pos: geo.LatLng{Lat: p.Lat, Lng: p.Lon},
		SOG: p.SOG, COG: p.COG, Heading: p.Heading, Status: p.Status}
}

// chunkSize is about how many bytes ReadAll decodes as one chunk: no line
// after a chunk's first reaches 2·chunkSize ≤ maxLine.
const chunkSize = 256 << 10

// ReadAll returns the rest of the source's position records, statics,
// counters and error as a NextItem loop would, bit for bit. Chunks of
// whole lines decode on every core; multi-sentence fragments wait for one
// fold that walks the chunks in stream order through the Reader's
// assembler, the only state one line leaves for the next.
func (r *Reader) ReadAll() ([]model.PositionRecord, error) { return r.readAll(chunkSize) }

// chunk is a run of whole lines of the source and what decode made of it.
type chunk struct {
	lineDecoder
	buf  []byte
	recs []model.PositionRecord // positions of one-sentence messages
	late []late                 // what the fold finishes, in stream order
	done chan struct{}          // decode is done
}

// late is a line left to the fold: a fragment or a one-sentence static.
type late struct {
	at int // positions of the chunk before the line
	ts int64
	s  ais.Sentence // its payload aliases the chunk
}

func (r *Reader) readAll(size int) ([]model.PositionRecord, error) {
	if r.sc != nil {
		return nil, ErrReadAllAfterNextItem
	}
	// 2·GOMAXPROCS chunks in flight keep every core decoding while the fold
	// waits for the oldest.
	window := 2 * runtime.GOMAXPROCS(0)
	var parts [][]model.PositionRecord
	var flight []*chunk // being decoded, in stream order
	var carry []byte
	var err error
	for err == nil {
		var c *chunk
		if len(flight) < window {
			c = &chunk{done: make(chan struct{}, 1)}
		} else { // the oldest, once the fold is done with it
			c, flight = flight[0], flight[1:]
			parts = append(parts, r.fold(c))
		}
		if carry, err = c.fill(r.src, size, carry); err != bufio.ErrTooLong {
			go c.decode(ais.NewDecoder())
			flight = append(flight, c)
		}
	}
	for _, c := range flight {
		parts = append(parts, r.fold(c))
	}
	if err != io.EOF {
		return slices.Concat(parts...), fmt.Errorf("feed: scan: %w", err)
	}
	return slices.Concat(parts...), nil
}

// fill reads carry, the line the last chunk cut short, and the source on
// to size bytes and a newline into c. It returns the line it cuts short
// and what ended the source: io.EOF, a read error, io.ErrNoProgress after
// 100 reads in a row return neither bytes nor an error (as NextItem's
// bufio.Scanner does), or bufio.ErrTooLong (leaving c unfilled) when c's
// first line is maxLine bytes or more.
func (c *chunk) fill(src io.Reader, size int, carry []byte) ([]byte, error) {
	b, nl, empty := append(c.buf[:0], carry...), -1, 0
	var err error
	for err == nil && (nl < 0 || len(b) < size) && (nl >= 0 || len(b) < maxLine) {
		b = slices.Grow(b, size)
		n, e := src.Read(b[len(b) : len(b)+size])
		if i := bytes.LastIndexByte(b[len(b):len(b)+n], '\n'); i >= 0 {
			nl = len(b) + i
		}
		if empty++; n > 0 || e != nil {
			empty = 0
		} else if empty == 100 {
			e = io.ErrNoProgress
		}
		b, err = b[:len(b)+n], e
	}
	if first := bytes.IndexByte(b, '\n'); first >= maxLine || first < 0 && len(b) >= maxLine {
		return carry, bufio.ErrTooLong
	}
	if c.buf = b; err == nil {
		carry, c.buf = append(carry[:0], b[nl+1:]...), b[:nl+1]
	}
	return carry, err
}

// decode runs the line decoder over the chunk, then signals done: it
// decodes one-sentence positions with dec and leaves the rest to the fold.
// (A static report is type 5, the one type whose payload starts with '5'.)
func (c *chunk) decode(dec *ais.Decoder) {
	c.recs = make([]model.PositionRecord, 0, bytes.Count(c.buf, []byte{'\n'})+1)
	c.late, c.stats = c.late[:0], ReadStats{}
	for rest := c.buf; len(rest) > 0; {
		line, tail, _ := bytes.Cut(rest, []byte{'\n'})
		rest = tail
		ts, ok := c.line(line)
		switch {
		case !ok:
		case c.s.Total > 1 || bytes.HasPrefix(c.s.Payload, []byte{'5'}):
			c.late = append(c.late, late{len(c.recs), ts, c.s})
		case c.message(dec, &c.s):
			c.recs = append(c.recs, record(ts, c.m.Position))
		}
	}
	c.done <- struct{}{}
}

// fold finishes a chunk, once decoded, in stream order: it adds the
// counters, decodes the late lines through the Reader's assembler, applies
// statics last-wins, and returns all the chunk's positions in order.
func (r *Reader) fold(c *chunk) []model.PositionRecord {
	<-c.done
	r.stats.Add(c.stats)
	var out []model.PositionRecord
	from := 0
	for i := range c.late {
		switch l := &c.late[i]; {
		case !r.message(r.dec, &l.s):
		case r.m.Type == ais.TypeStatic:
			r.statics[r.m.Static.MMSI] = *r.m.Static
		default:
			out = append(append(out, c.recs[from:l.at]...), record(l.ts, r.m.Position))
			from = l.at
		}
	}
	if out == nil {
		return c.recs
	}
	return append(out, c.recs[from:]...)
}

// Stats returns the ingest counters accumulated so far.
func (r *Reader) Stats() ReadStats { return r.stats }

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
