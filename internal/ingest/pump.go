package ingest

import (
	"io"

	"github.com/patternsoflife/pol/internal/feed"
)

// PumpFeed decodes one timestamped-NMEA stream and submits every item to
// the engine until EOF or error. Items travel in batches: what one read of r
// decoded is submitted as one envelope before r is read again — nothing
// decoded ever waits on the socket, so no timer and no linger — and a batch
// is cut at batchCap (at QueueSize if smaller, so at most QueueSize records
// plus one batch are ahead of the loop). The reader's counters are mirrored
// into fs with every batch so the stats endpoint tracks live progress. It
// returns nil on clean EOF. Submission blocks when the engine queue is full
// — that is the backpressure path.
func PumpFeed(eng *Engine, r io.Reader, fs *FeedStats) error {
	p := &pump{eng: eng, src: r, fs: fs}
	p.fr = feed.NewReader(p)
	for {
		it, err := p.fr.NextItem()
		if err != nil {
			// Flushed before the read that failed; EOF may leave one last line.
			if ferr := p.flush(); err == io.EOF {
				return ferr
			}
			return err
		}
		if p.batch == nil {
			p.batch = batchPool.Get().(*batch)
			p.batch.entries = p.batch.entries[:0]
		}
		switch it.Kind {
		case feed.ItemPosition:
			p.batch.entries = append(p.batch.entries, JournalEntry{Kind: entryPosition, Pos: it.Pos})
		case feed.ItemStatic:
			p.batch.entries = append(p.batch.entries, JournalEntry{Kind: entryStatic, Info: feed.StaticAsVesselInfo(it.Static)})
		}
		if len(p.batch.entries) >= min(batchCap, eng.opt.QueueSize) {
			if err := p.flush(); err != nil {
				return err
			}
		}
	}
}

// pump sits between the feed reader and its source: the reader asks it for
// more bytes only when it has decoded all it holds, which is the moment the
// pending batch must go.
type pump struct {
	eng   *Engine
	src   io.Reader
	fr    *feed.Reader
	fs    *FeedStats
	batch *batch
}

func (p *pump) Read(b []byte) (int, error) {
	if err := p.flush(); err != nil {
		return 0, err
	}
	return p.src.Read(b)
}

// flush mirrors the reader's counters and submits the pending batch, if any.
func (p *pump) flush() error {
	st := p.fr.Stats()
	p.fs.Lines.Store(st.Lines)
	p.fs.BadLines.Store(st.BadLines)
	p.fs.BadNMEA.Store(st.BadNMEA)
	p.fs.Positions.Store(st.Positions)
	p.fs.Statics.Store(st.Statics)
	b := p.batch
	if b == nil {
		return nil
	}
	p.batch = nil
	return p.eng.submitBatch(b, p.fs)
}
