package inventory

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/stats"
)

// TopNCapacity is the number of heavy-hitter slots kept for the origin,
// destination and transition features.
const TopNCapacity = 16

// Observation is one grid-projected, trip-annotated report together with
// its forward cell transition (InvalidCell when the trip ends before
// leaving the cell). It is the value type flowing into the feature
// extraction reduce.
type Observation struct {
	Rec      model.TripRecord
	NextCell hexgrid.Cell
}

// CellSummary is the full per-group statistical summary of Table 3:
//
//	Records      count
//	Ships        distinct count (HyperLogLog)
//	Course       circular mean* + 30° bins
//	Heading      circular mean* + 30° bins
//	Speed        mean, std, p10/p50/p90
//	Trips        distinct count (HyperLogLog)
//	ETO          mean, std, percentiles (elapsed time from origin, seconds)
//	ATA          mean, std, percentiles (actual time to arrival, seconds)
//	Origin       top-N ports
//	Destination  top-N ports
//	Transitions  top-N neighbouring cells
//
// Summaries are mergeable in any order; construct with NewCellSummary. The
// sketches are held by value, so a summary is one allocation plus one
// slice for each sketch that has grown one (see BenchmarkSummaryFootprint).
type CellSummary struct {
	Records     uint64
	Ships       stats.HyperLogLog
	Course      stats.CircularMean
	CourseBins  stats.AngularHistogram
	Heading     stats.CircularMean
	HeadingBins stats.AngularHistogram
	Speed       stats.Welford
	SpeedDig    stats.TDigest
	Trips       stats.HyperLogLog
	ETO         stats.Welford
	ETODig      stats.TDigest
	ATA         stats.Welford
	ATADig      stats.TDigest
	Origins     stats.TopN
	Dests       stats.TopN
	Transitions stats.TopN
}

// emptySummary is what NewCellSummary copies: every sketch at the
// inventory's parameters, none holding a slice yet.
var emptySummary = CellSummary{
	Ships:       *stats.NewHyperLogLog(stats.HLLPrecision),
	CourseBins:  *stats.NewAngularHistogram(stats.DefaultAngularBins),
	HeadingBins: *stats.NewAngularHistogram(stats.DefaultAngularBins),
	SpeedDig:    *stats.NewTDigest(stats.DefaultCompression),
	Trips:       *stats.NewHyperLogLog(stats.HLLPrecision),
	ETODig:      *stats.NewTDigest(stats.DefaultCompression),
	ATADig:      *stats.NewTDigest(stats.DefaultCompression),
	Origins:     *stats.NewTopN(TopNCapacity),
	Dests:       *stats.NewTopN(TopNCapacity),
	Transitions: *stats.NewTopN(TopNCapacity),
}

// NewCellSummary returns an empty summary: one allocation.
func NewCellSummary() *CellSummary {
	s := emptySummary
	return &s
}

// clone returns NewCellSummary merged with s, the copy MergeFrom makes of
// a group it changes or adopts from an open inventory: one allocation for the summary and one
// exact-size slice for each sketch of s that holds one. Merging into an
// empty sketch is a copy in every sketch, except where s was decoded with
// parameters other than the inventory's: then, as with Merge, the copy
// takes the inventory's.
func (s *CellSummary) clone() *CellSummary {
	d := NewCellSummary()
	d.Merge(s)
	return d
}

// Add folds one observation into the summary.
func (s *CellSummary) Add(o Observation) {
	r := o.Rec
	s.Records++
	s.Ships.AddUint64(uint64(r.MMSI))
	if !math.IsNaN(r.COG) {
		s.Course.Add(r.COG)
		s.CourseBins.Add(r.COG)
	}
	if !math.IsNaN(r.Heading) {
		s.Heading.Add(r.Heading)
		s.HeadingBins.Add(r.Heading)
	}
	if !math.IsNaN(r.SOG) {
		s.Speed.Add(r.SOG)
		s.SpeedDig.Add(r.SOG)
	}
	s.Trips.AddUint64(r.TripID)
	s.ETO.Add(r.ETO())
	s.ETODig.Add(r.ETO())
	s.ATA.Add(r.ATA())
	s.ATADig.Add(r.ATA())
	s.Origins.Add(uint64(r.Origin))
	s.Dests.Add(uint64(r.Dest))
	if o.NextCell != hexgrid.InvalidCell {
		s.Transitions.Add(uint64(o.NextCell))
	}
}

// Merge folds another summary into this one.
func (s *CellSummary) Merge(o *CellSummary) {
	if o == nil {
		return
	}
	s.Records += o.Records
	s.Ships.Merge(&o.Ships)
	s.Course.Merge(&o.Course)
	s.CourseBins.Merge(&o.CourseBins)
	s.Heading.Merge(&o.Heading)
	s.HeadingBins.Merge(&o.HeadingBins)
	s.Speed.Merge(&o.Speed)
	s.SpeedDig.Merge(&o.SpeedDig)
	s.Trips.Merge(&o.Trips)
	s.ETO.Merge(&o.ETO)
	s.ETODig.Merge(&o.ETODig)
	s.ATA.Merge(&o.ATA)
	s.ATADig.Merge(&o.ATADig)
	s.Origins.Merge(&o.Origins)
	s.Dests.Merge(&o.Dests)
	s.Transitions.Merge(&o.Transitions)
}

// TopDestination returns the most frequent destination port and its count,
// or (NoPort, 0) if the summary is empty.
func (s *CellSummary) TopDestination() (model.PortID, uint64) {
	top := s.Dests.Top(1)
	if len(top) == 0 {
		return model.NoPort, 0
	}
	return model.PortID(top[0].Key), top[0].Count
}

// TopTransitions returns up to n most frequent next cells with counts.
func (s *CellSummary) TopTransitions(n int) []stats.TopEntry {
	return s.Transitions.Top(n)
}

// SpeedPercentiles returns the paper's 10th/50th/90th speed percentiles.
func (s *CellSummary) SpeedPercentiles() (p10, p50, p90 float64) {
	return s.SpeedDig.Quantile(0.10), s.SpeedDig.Quantile(0.50), s.SpeedDig.Quantile(0.90)
}

// AppendBinary appends the summary's binary encoding to buf.
func (s *CellSummary) AppendBinary(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, s.Records) // the sketches' integer form (internal/stats)
	buf = s.Ships.AppendBinary(buf)
	buf = s.Course.AppendBinary(buf)
	buf = s.CourseBins.AppendBinary(buf)
	buf = s.Heading.AppendBinary(buf)
	buf = s.HeadingBins.AppendBinary(buf)
	buf = s.Speed.AppendBinary(buf)
	buf = s.SpeedDig.AppendBinary(buf)
	buf = s.Trips.AppendBinary(buf)
	buf = s.ETO.AppendBinary(buf)
	buf = s.ETODig.AppendBinary(buf)
	buf = s.ATA.AppendBinary(buf)
	buf = s.ATADig.AppendBinary(buf)
	buf = s.Origins.AppendBinary(buf)
	buf = s.Dests.AppendBinary(buf)
	buf = s.Transitions.AppendBinary(buf)
	return buf
}

// DecodeCellSummary decodes a summary from the front of data and returns
// the remaining bytes.
func DecodeCellSummary(data []byte) (*CellSummary, []byte, error) {
	s := &CellSummary{}
	var n int
	if s.Records, n = binary.Uvarint(data); n <= 0 {
		return nil, nil, fmt.Errorf("inventory: %w", stats.ErrCorrupt)
	}
	data = data[n:]
	var err error
	sketch(&err, &data, "ships", &s.Ships, stats.DecodeHyperLogLog)
	sketch(&err, &data, "course", &s.Course, stats.DecodeCircularMean)
	sketch(&err, &data, "course bins", &s.CourseBins, stats.DecodeAngularHistogram)
	sketch(&err, &data, "heading", &s.Heading, stats.DecodeCircularMean)
	sketch(&err, &data, "heading bins", &s.HeadingBins, stats.DecodeAngularHistogram)
	sketch(&err, &data, "speed", &s.Speed, stats.DecodeWelford)
	sketch(&err, &data, "speed digest", &s.SpeedDig, stats.DecodeTDigest)
	sketch(&err, &data, "trips", &s.Trips, stats.DecodeHyperLogLog)
	sketch(&err, &data, "eto", &s.ETO, stats.DecodeWelford)
	sketch(&err, &data, "eto digest", &s.ETODig, stats.DecodeTDigest)
	sketch(&err, &data, "ata", &s.ATA, stats.DecodeWelford)
	sketch(&err, &data, "ata digest", &s.ATADig, stats.DecodeTDigest)
	sketch(&err, &data, "origins", &s.Origins, stats.DecodeTopN)
	sketch(&err, &data, "destinations", &s.Dests, stats.DecodeTopN)
	sketch(&err, &data, "transitions", &s.Transitions, stats.DecodeTopN)
	if err != nil {
		return nil, nil, err
	}
	return s, data, nil
}

// decodeTransitions decodes only the transitions sketch of the summary at
// the front of data, stepping over the fields before it without building
// them, and returns the bytes after it — what a route forecast reads, at
// a fraction of a whole decode's cost. Wherever DecodeCellSummary accepts
// data, the two agree on the sketch (FuzzDecodeCellSummary).
func decodeTransitions(data []byte) (stats.TopN, []byte, error) {
	_, n := binary.Uvarint(data)
	if n <= 0 {
		return stats.TopN{}, nil, fmt.Errorf("inventory: %w", stats.ErrCorrupt)
	}
	data = data[n:]
	var (
		err error
		c   stats.CircularMean // the fixed-size fields decode without allocating
		h   stats.AngularHistogram
		w   stats.Welford
		t   stats.TopN
	)
	skip(&err, &data, "ships", stats.SkipHyperLogLog)
	sketch(&err, &data, "course", &c, stats.DecodeCircularMean)
	sketch(&err, &data, "course bins", &h, stats.DecodeAngularHistogram)
	sketch(&err, &data, "heading", &c, stats.DecodeCircularMean)
	sketch(&err, &data, "heading bins", &h, stats.DecodeAngularHistogram)
	sketch(&err, &data, "speed", &w, stats.DecodeWelford)
	skip(&err, &data, "speed digest", stats.SkipTDigest)
	skip(&err, &data, "trips", stats.SkipHyperLogLog)
	sketch(&err, &data, "eto", &w, stats.DecodeWelford)
	skip(&err, &data, "eto digest", stats.SkipTDigest)
	sketch(&err, &data, "ata", &w, stats.DecodeWelford)
	skip(&err, &data, "ata digest", stats.SkipTDigest)
	skip(&err, &data, "origins", stats.SkipTopN)
	skip(&err, &data, "destinations", stats.SkipTopN)
	sketch(&err, &data, "transitions", &t, stats.DecodeTopN)
	if err != nil {
		return stats.TopN{}, nil, err
	}
	return t, data, nil
}

// skip steps over one field off the front of *data, unless an earlier
// field has already failed.
func skip(err *error, data *[]byte, what string, step func([]byte) ([]byte, error)) {
	if *err != nil {
		return
	}
	var e error
	if *data, e = step(*data); e != nil {
		*err = fmt.Errorf("inventory: decode %s: %w", what, e)
	}
}

// sketch decodes one field off the front of *data into dst, unless an
// earlier field has already failed.
func sketch[T any](err *error, data *[]byte, what string, dst *T, decode func([]byte) (T, []byte, error)) {
	if *err != nil {
		return
	}
	var e error
	if *dst, *data, e = decode(*data); e != nil {
		*err = fmt.Errorf("inventory: decode %s: %w", what, e)
	}
}
