package ingest

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/pipeline"
	"github.com/patternsoflife/pol/internal/segment"
)

// Checkpoints are the engine's fast-recovery frontier: a generation is
// two files — the published inventory as a POLSEG1 segment (the format
// every reader and replica takes) plus a POLSTAT3 state file carrying
// everything replay cannot re-derive from the WAL suffix alone: the vessel
// static map, every vessel's cleaner and trip-tracker state, and the
// engine counters. A small text manifest (<base>.manifest) names the last
// two generations newest-first with the WAL sequence each one covers,
// whole-file CRC32C checksums, and the fencing claim it was written under:
//
//	POLCKPT1
//	gen 12 seq 89214 seg ckpt.g000012.seg crc 1f2e3d4c size 88231 state ckpt.g000012.state crc aabbccdd size 4096 term 2 node 00000000000000a1
//	gen 11 seq 80112 seg ckpt.g000011.seg crc ...
//
// Every file is written atomically (temp + fsync + rename + dir fsync),
// so cold start verifies the newest generation against its manifest
// entry, falls back to the previous generation on any mismatch, and
// replays only WAL records past the chosen generation's seq. A stable
// copy of the newest segment is kept at exactly <base> (hardlink swap) so
// external read-only consumers keep opening the configured path.
//
// A manifest that cannot be read or parsed — a flipped byte, or a vintage
// written before segments existed, whose inventories this build cannot
// read — stops the engine rather than reading as "no checkpoint" (see
// newCheckpointer).
//
// The WAL is pruned to the OLDEST retained generation's seq — pruning to
// the newest would strand the fallback generation without the journal
// suffix it needs.

const (
	ckptManifestMagic = "POLCKPT1"
	ckptRetain        = 2
)

var stateMagic = []byte("POLSTAT3\n")

// errOldState refuses a state file of a format before POLSTAT3: POLSTAT1
// (open trips as 53-byte records) or POLSTAT2 (the last accepted record as
// 53 fixed bytes, entries in map order). Like a segment of a retired
// version it is an error for the operator, not a missing checkpoint: the
// WAL was pruned to it.
var errOldState = errors.New("state files are no longer read (this build writes POLSTAT3)")

// ckptGen is one manifest entry. Term/Node are zero on manifests written
// before the failover epoch existed — readers treat that as term 1 under
// an unknown node.
type ckptGen struct {
	Gen, Seq  uint64
	Seg       string // POLSEG1 inventory segment; basenames, sibling to the manifest
	SegCRC    uint32
	SegSize   int64
	State     string // POLSTAT3 engine state
	StateCRC  uint32
	StateSize int64
	Term      uint64 // fencing epoch the generation was written under
	Node      uint64 // identity of the node that wrote it
}

// checkpointer owns the generation files and manifest below one base
// path. Save is serialized by the engine's ckptBusy guard; Load runs only
// during single-threaded startup. The replication handlers read the
// generation list from their own goroutines, so gens is mutex-guarded.
type checkpointer struct {
	base   string
	faults *fault.Registry
	logf   func(format string, args ...any)

	mu   sync.Mutex
	gens []ckptGen // newest first
}

// generations returns a copy of the manifest entries, newest first.
func (c *checkpointer) generations() []ckptGen {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ckptGen(nil), c.gens...)
}

// newCheckpointer reads base's manifest. A missing one means no
// checkpoint yet; any other read or parse error is returned, because
// starting fresh would serve an empty inventory over a WAL already pruned
// to the generations the manifest names.
func newCheckpointer(base string, faults *fault.Registry, logf func(string, ...any)) (*checkpointer, error) {
	c := &checkpointer{base: base, faults: faults, logf: logf}
	if c.logf == nil {
		c.logf = func(string, ...any) {}
	}
	gens, err := readManifest(c.manifestPath())
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("ingest: checkpoint manifest %s unreadable (move the checkpoint files away to recover from the WAL alone): %w", c.manifestPath(), err)
	}
	c.gens = gens
	return c, nil
}

func (c *checkpointer) manifestPath() string { return c.base + ".manifest" }

// newestTermNode reports the (term, node) the newest retained generation
// was written under; (0, 0) when there is no generation or the manifest
// predates the failover epoch.
func (c *checkpointer) newestTermNode() (term, node uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.gens) == 0 {
		return 0, 0
	}
	return c.gens[0].Term, c.gens[0].Node
}

func (c *checkpointer) genPath(name string) string {
	return filepath.Join(filepath.Dir(c.base), name)
}

// engineState is the replay-independent engine state captured into (and
// restored from) a checkpoint's POLSTAT3 file.
type engineState struct {
	counters stateCounters
	statics  map[uint32]model.VesselInfo
	vessels  map[uint32]vesselPersist
}

// stateCounters holds metrics.persisted() by value, in POLSTAT3 order.
type stateCounters [13]int64

type vesselPersist struct {
	cleaner pipeline.CleanerState
	tracker pipeline.TrackerState
}

// Save writes one new generation covering WAL records up to seq, updates
// the manifest and the stable serving artifact, and deletes generations
// that fell out of retention. It returns the seq the WAL may safely be
// pruned to: the oldest generation still named by the manifest.
func (c *checkpointer) Save(snap *inventory.Inventory, st *engineState, seq, term, node uint64) (coveredSeq uint64, err error) {
	gens := c.generations()
	gen := uint64(1)
	if len(gens) > 0 {
		gen = gens[0].Gen + 1
	}
	entry := ckptGen{Gen: gen, Seq: seq, Term: term, Node: node}
	stem := fmt.Sprintf("%s.g%06d", c.base, gen)
	segPath, statePath := stem+".seg", stem+".state"
	entry.Seg = filepath.Base(segPath)
	entry.State = filepath.Base(statePath)

	segStats, err := segment.WriteFileSum(snap, segPath)
	if err != nil {
		return 0, fmt.Errorf("ingest: checkpoint segment: %w", err)
	}
	entry.SegCRC, entry.SegSize = segStats.Sum, segStats.Size
	state := encodeState(st)
	entry.StateCRC, entry.StateSize = crc32.Checksum(state, castagnoli), int64(len(state))
	err = inventory.AtomicWrite(statePath, func(w io.Writer) error {
		_, err := w.Write(state)
		return err
	})
	if err != nil {
		return 0, fmt.Errorf("ingest: checkpoint state: %w", err)
	}

	newGens := append([]ckptGen{entry}, gens...)
	if len(newGens) > ckptRetain {
		newGens = newGens[:ckptRetain]
	}
	if err := writeManifest(c.manifestPath(), newGens); err != nil {
		return 0, fmt.Errorf("ingest: checkpoint manifest: %w", err)
	}
	dropped := gens[min(len(gens), ckptRetain-1):]
	c.mu.Lock()
	c.gens = newGens
	c.mu.Unlock()

	if err := c.publishStable(segPath); err != nil {
		return 0, fmt.Errorf("ingest: checkpoint stable artifact: %w", err)
	}
	for _, g := range dropped {
		os.Remove(c.genPath(g.State))
		os.Remove(c.genPath(g.Seg))
	}
	return newGens[len(newGens)-1].Seq, nil
}

// publishStable points <base> at the newest generation's segment via a
// hardlink rename (falling back to a copy on filesystems without links),
// keeping the plain configured path a valid serving artifact.
func (c *checkpointer) publishStable(srcPath string) error {
	tmp := c.base + ".pub.tmp"
	os.Remove(tmp)
	if err := os.Link(srcPath, tmp); err == nil {
		if err := os.Rename(tmp, c.base); err != nil {
			return err
		}
		return inventory.SyncDir(c.base)
	}
	src, err := os.Open(srcPath)
	if err != nil {
		return err
	}
	defer src.Close()
	return inventory.AtomicWrite(c.base, func(w io.Writer) error {
		_, err := io.Copy(w, src)
		return err
	})
}

// Load verifies and restores the newest intact generation. A generation
// whose files are missing, the wrong length, or checksum-mismatched is
// logged and skipped in favor of the previous one; (nil, nil, 0, nil)
// means no usable checkpoint — recover from the WAL alone. An intact
// segment of a format version no longer read, when no readable generation
// is left, is an error for the operator to resolve: starting empty over a
// WAL pruned to that checkpoint would silently lose it.
func (c *checkpointer) Load(resolution int) (*inventory.Inventory, *engineState, uint64, error) {
	var old error
	for i, g := range c.gens {
		inv, st, err := c.loadGen(g, resolution)
		if err != nil {
			c.logf("checkpoint generation %d unusable (%v); falling back", g.Gen, err)
			if errors.Is(err, segment.ErrOldVersion) || errors.Is(err, errOldState) {
				old = fmt.Errorf("ingest: checkpoint manifest %s (move the checkpoint files away to start from what the WAL still holds): %w", c.manifestPath(), err)
			}
			continue
		}
		if i > 0 {
			c.logf("checkpoint: recovered from fallback generation %d (seq %d)", g.Gen, g.Seq)
		}
		return inv, st, g.Seq, nil
	}
	return nil, nil, 0, old
}

func (c *checkpointer) loadGen(g ckptGen, resolution int) (*inventory.Inventory, *engineState, error) {
	segPath, statePath := c.genPath(g.Seg), c.genPath(g.State)
	if sum, size, err := inventory.ChecksumFile(segPath); err != nil {
		return nil, nil, err
	} else if sum != g.SegCRC || size != g.SegSize {
		return nil, nil, fmt.Errorf("segment checksum mismatch (crc %08x/%d, want %08x/%d)", sum, size, g.SegCRC, g.SegSize)
	}
	if sum, size, err := inventory.ChecksumFile(statePath); err != nil {
		return nil, nil, err
	} else if sum != g.StateCRC || size != g.StateSize {
		return nil, nil, fmt.Errorf("state checksum mismatch (crc %08x/%d, want %08x/%d)", sum, size, g.StateCRC, g.StateSize)
	}
	inv, err := segment.Load(segPath)
	if err != nil {
		return nil, nil, err
	}
	if inv.Info().Resolution != resolution {
		return nil, nil, fmt.Errorf("checkpoint resolution %d != engine resolution %d", inv.Info().Resolution, resolution)
	}
	f, err := os.Open(statePath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := decodeState(bufio.NewReaderSize(f, 1<<16))
	if err != nil {
		return nil, nil, fmt.Errorf("state decode: %w", err)
	}
	return inv, st, nil
}

// --- manifest ---

func writeManifest(path string, gens []ckptGen) error {
	return inventory.AtomicWrite(path, func(w io.Writer) error {
		lines := []string{ckptManifestMagic}
		for _, g := range gens {
			lines = append(lines, manifestLine(g))
		}
		_, err := io.WriteString(w, strings.Join(lines, "\n")+"\n")
		return err
	})
}

// manifestLine is the one spelling of a generation's manifest line;
// parseManifestLine reads it back. The fencing epoch is a suffix, and
// lines without it read back as term 0 (pre-epoch).
func manifestLine(g ckptGen) string {
	line := fmt.Sprintf("gen %d seq %d seg %s crc %08x size %d state %s crc %08x size %d",
		g.Gen, g.Seq, g.Seg, g.SegCRC, g.SegSize, g.State, g.StateCRC, g.StateSize)
	if g.Term != 0 {
		line += fmt.Sprintf(" term %d node %016x", g.Term, g.Node)
	}
	return line
}

func readManifest(path string) ([]ckptGen, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) == 0 || lines[0] != ckptManifestMagic {
		return nil, fmt.Errorf("ingest: bad checkpoint manifest magic")
	}
	var gens []ckptGen
	for _, line := range lines[1:] {
		if strings.TrimSpace(line) == "" {
			continue
		}
		g, err := parseManifestLine(line)
		if err != nil {
			return nil, fmt.Errorf("ingest: bad manifest line %q: %w", line, err)
		}
		gens = append(gens, g)
	}
	return gens, nil
}

// parseManifestLine walks the line as key/value pairs so the optional
// term/node suffix and future additions parse without a format string per
// vintage. Unknown keys are skipped, which keeps old binaries able to read
// manifests from newer ones. crc and size bind to the file key (seg,
// state) that most recently preceded them.
func parseManifestLine(line string) (ckptGen, error) {
	var g ckptGen
	var crcDst *uint32
	var sizeDst *int64
	f := strings.Fields(line)
	if len(f)%2 != 0 {
		return g, fmt.Errorf("odd token count")
	}
	for i := 0; i < len(f); i += 2 {
		key, val := f[i], f[i+1]
		var err error
		switch key {
		case "gen":
			_, err = fmt.Sscanf(val, "%d", &g.Gen)
		case "seq":
			_, err = fmt.Sscanf(val, "%d", &g.Seq)
		case "state":
			g.State = val
			crcDst, sizeDst = &g.StateCRC, &g.StateSize
		case "seg":
			g.Seg = val
			crcDst, sizeDst = &g.SegCRC, &g.SegSize
		case "crc":
			if crcDst == nil {
				return g, fmt.Errorf("crc before any file entry")
			}
			_, err = fmt.Sscanf(val, "%x", crcDst)
		case "size":
			if sizeDst == nil {
				return g, fmt.Errorf("size before any file entry")
			}
			_, err = fmt.Sscanf(val, "%d", sizeDst)
		case "term":
			_, err = fmt.Sscanf(val, "%d", &g.Term)
		case "node":
			_, err = fmt.Sscanf(val, "%x", &g.Node)
		}
		if err != nil {
			return g, fmt.Errorf("key %s: %w", key, err)
		}
	}
	if g.Seg == "" || g.State == "" || g.Gen == 0 {
		return g, fmt.Errorf("missing required fields")
	}
	return g, nil
}

// --- POLSTAT3 encoding ---
//
//	magic "POLSTAT3\n" | 13 counters u64
//	nstatics u32 | statics in MMSI order (pipeline.AppendVesselInfo)
//	nvessels u32 | vessels in MMSI order:
//	  mmsi u32 | prevTime u64 | flags u8 | [last: u8 length + a one-record
//	  log, when flags has stFlagHasLast] | lastPort u32 | visitPort u32 |
//	  [origin u32 | tripRecords u32, when flags has stFlagHasTrip] |
//	  log length u32 | open-trip record log
//
// Equal state encodes to equal bytes, and the decoder refuses what the
// encoder would not write (keys out of order, unknown flags, an empty
// open trip, trailing bytes): decode → encode is the identity on what it
// accepts.

const (
	stFlagHasPrev = 1 << iota
	stFlagHasLast
	stFlagHasTrip
	stFlagsKnown = 1<<iota - 1
)

func encodeState(st *engineState) []byte {
	buf := append([]byte(nil), stateMagic...)
	for _, v := range st.counters {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.statics)))
	for _, mmsi := range slices.Sorted(maps.Keys(st.statics)) {
		buf = pipeline.AppendVesselInfo(buf, st.statics[mmsi])
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.vessels)))
	for _, mmsi := range slices.Sorted(maps.Keys(st.vessels)) {
		vp := st.vessels[mmsi]
		buf = binary.LittleEndian.AppendUint32(buf, mmsi)
		cs := vp.cleaner
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cs.PrevTime))
		var flags byte
		if cs.HasPrev {
			flags |= stFlagHasPrev
		}
		if cs.HasLast {
			flags |= stFlagHasLast
		}
		ts := vp.tracker
		if ts.TripRecords > 0 {
			flags |= stFlagHasTrip
		}
		buf = append(buf, flags)
		if cs.HasLast {
			at := len(buf)
			buf = pipeline.AppendRecordLog(append(buf, 0), cs.Last)
			buf[at] = byte(len(buf) - at - 1) // a one-record log is at most 57 bytes
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ts.LastPort))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(ts.VisitPort))
		if ts.TripRecords > 0 {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ts.Origin))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(ts.TripRecords))
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ts.Log)))
		buf = append(buf, ts.Log...)
	}
	return buf
}

// stateReader is a cursor over POLSTAT3 bytes. The first read past the
// end sticks: it and every later read return zero values, and the caller
// checks err once.
type stateReader struct {
	p   []byte
	err error
}

func (r *stateReader) take(n int) []byte {
	if r.err == nil && len(r.p) < n {
		r.err = fmt.Errorf("truncated state (need %d bytes, have %d)", n, len(r.p))
	}
	if r.err != nil {
		return nil
	}
	b := r.p[:n]
	r.p = r.p[n:]
	return b
}

func (r *stateReader) u8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *stateReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *stateReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// fail records the first error.
func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func decodeState(rd io.Reader) (*engineState, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	r := &stateReader{p: data}
	switch magic := string(r.take(len(stateMagic))); magic {
	case string(stateMagic):
	case "POLSTAT1\n", "POLSTAT2\n":
		return nil, fmt.Errorf("%s %w", strings.TrimSpace(magic), errOldState)
	default:
		return nil, fmt.Errorf("bad state magic")
	}
	st := &engineState{
		statics: make(map[uint32]model.VesselInfo),
		vessels: make(map[uint32]vesselPersist),
	}
	for i := range st.counters {
		st.counters[i] = int64(r.u64())
	}
	prev := int64(-1)
	for n := r.u32(); n > 0 && r.err == nil; n-- {
		v, used, err := pipeline.DecodeVesselInfo(r.p)
		if err != nil {
			r.fail("static: %w", err)
			break
		}
		r.take(used)
		if int64(v.MMSI) <= prev {
			r.fail("static %d out of MMSI order", v.MMSI)
		}
		prev = int64(v.MMSI)
		st.statics[v.MMSI] = v
	}
	prev = -1
	for n := r.u32(); n > 0 && r.err == nil; n-- {
		mmsi := r.u32()
		if int64(mmsi) <= prev {
			r.fail("vessel %d out of MMSI order", mmsi)
		}
		prev = int64(mmsi)
		var vp vesselPersist
		vp.cleaner.PrevTime = int64(r.u64())
		flags := r.u8()
		if flags&^stFlagsKnown != 0 {
			r.fail("vessel %d: unknown flags %#x", mmsi, flags)
		}
		vp.cleaner.HasPrev = flags&stFlagHasPrev != 0
		if vp.cleaner.HasLast = flags&stFlagHasLast != 0; vp.cleaner.HasLast {
			var one [1]model.PositionRecord
			last, err := pipeline.DecodeRecordLog(one[:0], r.take(int(r.u8())))
			if err != nil || len(last) != 1 {
				r.fail("vessel %d: the last accepted record is %d records (%v)", mmsi, len(last), err)
			} else {
				vp.cleaner.Last = last[0]
			}
		}
		vp.tracker.LastPort = model.PortID(r.u32())
		vp.tracker.VisitPort = model.PortID(r.u32())
		if flags&stFlagHasTrip != 0 {
			vp.tracker.Origin = model.PortID(r.u32())
			if vp.tracker.TripRecords = int(r.u32()); vp.tracker.TripRecords == 0 {
				r.fail("vessel %d: an open trip of no records", mmsi)
			}
		}
		// The log's bytes stay in data: SetState clips them to their
		// length, so the first append after a restore copies them out.
		vp.tracker.Log = r.take(int(r.u32()))
		if r.err == nil {
			if err := vp.tracker.Validate(); err != nil {
				r.fail("vessel %d: %w", mmsi, err)
			}
		}
		st.vessels[mmsi] = vp
	}
	if r.err == nil && len(r.p) != 0 {
		r.err = fmt.Errorf("state has %d trailing bytes", len(r.p))
	}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}
