package ingest

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"time"

	"github.com/patternsoflife/pol/internal/segment"
)

// Replication surface: a primary engine with a checkpoint path and a
// journal exposes its durability artifacts read-only over HTTP so
// stateless replicas can bootstrap and tail it.
//
//	GET /v1/repl/manifest                   checkpoint generations + WAL frontier (JSON)
//	GET /v1/repl/checkpoint/{gen}/{file}    one generation file (segment or state), Range-capable
//	GET /v1/repl/wal?from_seq=N[&max=M][&wait=D]  WAL suffix past seq N (POLREPL2)
//	GET /v1/repl/snapshot                   current published inventory (POLSEG1)
//
// Both replica kinds download generation files from the one checkpoint
// route: the heap replica whole, the disk replica by Range (tail, index,
// then only the shard blocks it is missing).
//
// The WAL endpoint long-polls: with wait set and no records past
// from_seq, the handler holds the request until a record arrives or the
// wait elapses, so an idle primary costs a tailing replica one request
// per wait rather than a busy loop. A from_seq below the pruned frontier
// answers 410 Gone — the replica must re-bootstrap from a checkpoint.

// ReplManifest is the JSON document served by /v1/repl/manifest.
type ReplManifest struct {
	Resolution  int           `json:"resolution"`
	WALSeq      uint64        `json:"wal_seq"`
	Generations []ReplGenInfo `json:"generations"` // newest first
	// Term and Node are the serving engine's fencing claim; zero on
	// manifests from pre-epoch primaries.
	Term uint64 `json:"term,omitempty"`
	Node uint64 `json:"node,omitempty"`
}

// ReplGenInfo names one checkpoint generation's files with the
// whole-file checksums a replica must verify before install.
type ReplGenInfo struct {
	Gen uint64 `json:"gen"`
	Seq uint64 `json:"seq"`
	// Inv, InvCRC and InvSize described the POLINV1 file generations used
	// to carry. No generation has one to offer any more: the fields are
	// always zero and stay only because manifest consumers compiled
	// against this struct (bench/adapter.go sums the three sizes) name them.
	Inv       string `json:"inv,omitempty"`
	InvCRC    uint32 `json:"inv_crc,omitempty"`
	InvSize   int64  `json:"inv_size,omitempty"`
	State     string `json:"state"`
	StateCRC  uint32 `json:"state_crc"`
	StateSize int64  `json:"state_size"`
	// Seg names the generation's inventory segment (POLSEG1); empty only
	// for a generation retained from before segments existed.
	Seg     string `json:"seg,omitempty"`
	SegCRC  uint32 `json:"seg_crc,omitempty"`
	SegSize int64  `json:"seg_size,omitempty"`
	// Term is the fencing epoch the generation was written under; zero
	// on pre-epoch generations.
	Term uint64 `json:"term,omitempty"`
}

// Term fencing travels on every replication exchange as a pair of
// headers: servers advertise their claim on responses, clients echo the
// highest claim they have ever seen on requests. A server that receives
// a claim beating its own has been superseded and fences itself — this
// is how a restarted stale primary learns of its demotion from the first
// replica or feeder that probes it.
const (
	HeaderTerm = "X-Pol-Term"
	HeaderNode = "X-Pol-Node"
)

// SetTermHeader stamps a (term, node) claim onto a header block; zero
// term means "no claim" and writes nothing.
func SetTermHeader(h http.Header, term, node uint64) {
	if term == 0 {
		return
	}
	h.Set(HeaderTerm, strconv.FormatUint(term, 10))
	h.Set(HeaderNode, fmt.Sprintf("%016x", node))
}

// TermFromHeader parses a (term, node) claim; (0, 0) when absent or
// malformed.
func TermFromHeader(h http.Header) (term, node uint64) {
	t, err := strconv.ParseUint(h.Get(HeaderTerm), 10, 64)
	if err != nil {
		return 0, 0
	}
	n, _ := strconv.ParseUint(h.Get(HeaderNode), 16, 64)
	return t, n
}

// replMagic heads every /v1/repl/wal response body:
// magic | lastSeq u64 | count u32 | count WAL-framed records (POLWAL3's,
// so a position is a one-record log). POLREPL1, whose positions were 53
// fixed bytes, is refused by name.
var replMagic = []byte("POLREPL2")

const (
	replHeaderLen = 8 + 8 + 4
	// positionFrameLen is about the framed size of a position record —
	// all but a few records of any chunk, ~24 B of record log for an
	// AIS-decoded report — and sizes a chunk's buffer.
	positionFrameLen = recHeaderLen + 28 + recTrailerLen
)

const (
	// replPollEvery is the internal re-check cadence while long-polling.
	replPollEvery = 100 * time.Millisecond
	// replMaxWait caps the long-poll hold below the daemons' HTTP write
	// timeout so a held request never trips it.
	replMaxWait = 25 * time.Second
)

// WALSeq returns the latest appended WAL sequence — the journal frontier
// on a primary; the applied replication frontier on a journal-free
// engine.
func (e *Engine) WALSeq() uint64 {
	if j := e.jrnl(); j != nil {
		return j.LastSeq()
	}
	return e.AppliedSeq()
}

// CheckpointStatus returns the newest checkpoint generation number and
// the WAL sequence it covers; zeros before the first checkpoint or when
// checkpointing is disabled.
func (e *Engine) CheckpointStatus() (gen, seq uint64) {
	ckpt := e.ckpt.Load()
	if ckpt == nil {
		return 0, 0
	}
	gens := ckpt.generations()
	if len(gens) == 0 {
		return 0, 0
	}
	return gens[0].Gen, gens[0].Seq
}

// WALStatus reports the replication frontier triple the status document
// carries: newest checkpoint generation, the WAL seq it covers, and the
// latest appended seq.
func (e *Engine) WALStatus() (ckptGen, ckptSeq, walSeq uint64) {
	gen, seq := e.CheckpointStatus()
	return gen, seq, e.WALSeq()
}

// ReplManifestSnapshot collects the current manifest document.
func (e *Engine) ReplManifestSnapshot() ReplManifest {
	m := ReplManifest{
		Resolution: e.opt.Resolution,
		WALSeq:     e.WALSeq(),
		Term:       e.Term(),
		Node:       e.node,
	}
	if ckpt := e.ckpt.Load(); ckpt != nil {
		for _, g := range ckpt.generations() {
			m.Generations = append(m.Generations, ReplGenInfo{
				Gen: g.Gen, Seq: g.Seq,
				State: g.State, StateCRC: g.StateCRC, StateSize: g.StateSize,
				Seg: g.Seg, SegCRC: g.SegCRC, SegSize: g.SegSize,
				Term: g.Term,
			})
		}
	}
	return m
}

// replGate runs the term exchange on one replication request: the
// response always advertises the local claim, the request's claim is fed
// to the lifecycle, and an outranked or fenced engine answers 503 so no
// replica bootstraps from or tails a superseded primary. Reports whether
// the handler may proceed.
func (e *Engine) replGate(w http.ResponseWriter, r *http.Request) bool {
	SetTermHeader(w.Header(), e.term.Load(), e.node)
	rt, rn := TermFromHeader(r.Header)
	if e.ObserveRemoteTerm(rt, rn) || !e.can(permServeRepl) {
		e.m.fencingRejects.Add(1)
		http.Error(w, "fenced: a higher replication term is active in the cluster", http.StatusServiceUnavailable)
		return false
	}
	return true
}

// ReplHandler returns the read-only replication surface. Mount it at the
// daemon root ("GET /v1/repl/"); the returned mux routes the full paths.
// With a tracer configured each route joins the traceparent a tailing
// replica injects, so one replication cycle spans both processes.
func (e *Engine) ReplHandler() http.Handler {
	mux := http.NewServeMux()
	traced := func(endpoint string, h http.HandlerFunc) http.Handler {
		return e.opt.Tracer.Middleware(endpoint, h)
	}
	mux.Handle("GET /v1/repl/manifest", traced("repl_manifest", e.handleReplManifest))
	mux.Handle("GET /v1/repl/checkpoint/{gen}/{file}", traced("repl_checkpoint", e.handleReplCheckpoint))
	mux.Handle("GET /v1/repl/wal", traced("repl_wal", e.handleReplWAL))
	mux.Handle("GET /v1/repl/snapshot", traced("repl_snapshot", e.handleReplSnapshot))
	return mux
}

func (e *Engine) handleReplManifest(w http.ResponseWriter, r *http.Request) {
	if !e.replGate(w, r) {
		return
	}
	m := e.ReplManifestSnapshot()
	if e.ckpt.Load() == nil {
		http.Error(w, "replication requires a checkpoint path on the primary", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(m)
}

// handleReplCheckpoint serves one generation file with Range support
// (http.ServeContent), so a disk replica can fetch only the tail, the
// index, and the blocks it is missing while a heap replica takes the file
// whole. The file name must match the manifest entry for that generation
// exactly — clients never control paths, so there is nothing to traverse.
func (e *Engine) handleReplCheckpoint(w http.ResponseWriter, r *http.Request) {
	if !e.replGate(w, r) {
		return
	}
	ckpt := e.ckpt.Load()
	if ckpt == nil {
		http.Error(w, "no checkpoints on this engine", http.StatusServiceUnavailable)
		return
	}
	gen, err := strconv.ParseUint(r.PathValue("gen"), 10, 64)
	if err != nil {
		http.Error(w, "bad generation", http.StatusBadRequest)
		return
	}
	name := r.PathValue("file")
	for _, g := range ckpt.generations() {
		if g.Gen != gen || (name != g.State && (g.Seg == "" || name != g.Seg)) {
			continue
		}
		f, err := os.Open(ckpt.genPath(name))
		if err != nil {
			// Rotated away between manifest fetch and download: the
			// replica re-fetches the manifest and restarts bootstrap.
			http.Error(w, "generation no longer on disk", http.StatusNotFound)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeContent(w, r, "", time.Time{}, f)
		return
	}
	http.Error(w, "unknown generation or file", http.StatusNotFound)
}

// handleReplWAL streams the WAL suffix past from_seq, long-polling up to
// wait when the replica is already caught up. The records are the
// journal's bytes as they lie on disk, checksum-verified and copied: the
// primary never decodes what it ships.
func (e *Engine) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	if !e.replGate(w, r) {
		return
	}
	q := r.URL.Query()
	fromSeq, err := strconv.ParseUint(q.Get("from_seq"), 10, 64)
	if err != nil {
		http.Error(w, "from_seq is a required integer", http.StatusBadRequest)
		return
	}
	max, err := strconv.Atoi(cmp.Or(q.Get("max"), "0"))
	if err != nil || max < 0 {
		http.Error(w, "bad max", http.StatusBadRequest)
		return
	}
	wait, err := time.ParseDuration(cmp.Or(q.Get("wait"), "0s"))
	if err != nil || wait < 0 {
		http.Error(w, "bad wait", http.StatusBadRequest)
		return
	}
	wait = min(wait, replMaxWait)
	deadline := time.Now().Add(wait)
	for {
		j := e.jrnl()
		if j == nil {
			http.Error(w, "ingest: engine has no journal to replicate from", http.StatusServiceUnavailable)
			return
		}
		body, count, err := j.readChunk(fromSeq, max)
		switch {
		case errors.Is(err, ErrSeqPruned):
			http.Error(w, "sequence pruned; re-bootstrap from a checkpoint", http.StatusGone)
			return
		case err != nil:
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		if count > 0 || wait == 0 || !time.Now().Before(deadline) {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set("Content-Length", strconv.Itoa(len(body)))
			_, _ = w.Write(body)
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-time.After(replPollEvery):
		}
	}
}

// handleReplSnapshot streams the engine's current published inventory as
// a POLSEG1 segment — the artifact convergence checks fetch from a primary
// and from a heap replica (whose daemon mounts its applier engine's
// ReplHandler, so this is the one handler behind both) and compare with
// polquery -equal. Ungated: a fenced engine still shows what it holds.
func (e *Engine) handleReplSnapshot(w http.ResponseWriter, _ *http.Request) {
	SetTermHeader(w.Header(), e.term.Load(), e.node)
	snap := e.Snapshot()
	if snap == nil {
		http.Error(w, "no snapshot yet", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := segment.Write(snap, w); err != nil {
		// The status line is gone; the short body fails the client's
		// segment open (tail geometry), which is the signal it needs.
		e.logf("repl snapshot: %v", err)
	}
}

// ReadReplChunk decodes a /v1/repl/wal response body: the primary's WAL
// frontier at answer time and the checksum-verified entries. Records are
// framed exactly as on disk, so a bit flip in transit fails the same
// CRC32C that catches it at rest.
func ReadReplChunk(r io.Reader) ([]JournalEntry, uint64, error) {
	var head [replHeaderLen]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, 0, fmt.Errorf("ingest: repl chunk header: %w", err)
	}
	switch string(head[:len(replMagic)]) {
	case string(replMagic):
	case "POLREPL1":
		return nil, 0, fmt.Errorf("ingest: a POLREPL1 chunk, which this build no longer reads (it speaks POLREPL2): primary and replicas must run the same build")
	default:
		return nil, 0, fmt.Errorf("ingest: bad repl chunk magic")
	}
	lastSeq := binary.LittleEndian.Uint64(head[len(replMagic):])
	count := binary.LittleEndian.Uint32(head[len(replMagic)+8:])
	if count > maxReadEntries {
		return nil, 0, fmt.Errorf("ingest: implausible repl chunk count %d", count)
	}
	entries := make([]JournalEntry, 0, count)
	rr := recordReader{r: r}
	for i := uint32(0); i < count; i++ {
		_, _, _, err := rr.next()
		var e JournalEntry
		if err == nil {
			e, err = rr.entry()
		}
		if err != nil {
			return nil, 0, fmt.Errorf("ingest: repl record %d: %w", i, err)
		}
		entries = append(entries, e)
	}
	return entries, lastSeq, nil
}
