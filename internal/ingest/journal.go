package ingest

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/patternsoflife/pol/internal/ais"
	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/model"
)

// Journal is the ingestion write-ahead log: an append-only sequence of
// accepted records across rotated segment files. Replaying the journal
// through the engine's (deterministic) cleaning and trip state machines
// reconstructs the exact in-memory state at the moment of the last flush,
// so a killed daemon resumes where it stopped.
//
// WAL v2 segment format (little-endian):
//
//	file name: <base stripped of .wal>.NNNNNN.wal, NNNNNN monotonic
//	header:    magic "POLWAL2\n" | firstSeq u64
//	records:   kind u8 ('P' position | 'S' static) | len u32 | seq u64 |
//	           payload | crc32c u32 (Castagnoli, over kind..payload)
//
// Sequence numbers are monotonic across segments, so a checkpoint
// manifest can name the exact durability frontier it covers and recovery
// can skip whole covered segments. Recovery distinguishes a *torn tail*
// (a crash mid-append: the bad bytes end at EOF of the final segment —
// truncated with a warning) from *mid-file corruption* (a record that
// fails its checksum with valid data after it — replay stops at the bad
// record and the remainder is quarantined to a .corrupt sidecar so no
// wrong state is ever reconstructed). A file at the base path itself — a
// pre-segment POLWAL1 journal — is never read, overwritten or removed:
// OpenJournal refuses to start beside it.
type Journal struct {
	base string
	opts JournalOptions

	// mu guards the file handles, the segment table and the frame buffer:
	// appends come from the engine loop, Prune from the checkpoint goroutine,
	// reads from the replication handlers.
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	frame    []byte // the record being framed; every append reuses it
	segIdx   int
	segBytes int64
	total    int64
	nextSeq  uint64
	// segs maps live segment index → what is known of the file; active is
	// the entry appends extend.
	segs   map[int]*walSegment
	active *walSegment
	broken error

	rec RecoveryInfo
}

// walSegment is one live segment file: the first sequence number in it (for
// checkpoint-driven retention and to place a read) and a sparse seq → offset
// index, marks[k] being the file offset of record first+(k+1)*walIndexStride.
// The index lives in memory only: appends extend it, OpenJournal's scan
// rebuilds it, Prune drops it with the file. A segment that scan skipped
// (wholly below the checkpoint) has no marks and is read from its head.
type walSegment struct {
	first uint64
	marks []int64
}

// walIndexStride is the distance in records between index marks: a read
// verifies at most that many (≈ 70 KB) before the first record it wants,
// and a 64 MiB segment keeps under a thousand marks.
const walIndexStride = 1024

// mark extends the index when record seq starts at offset off.
func (s *walSegment) mark(seq uint64, off int64) {
	if k := seq - s.first; k > 0 && k%walIndexStride == 0 {
		s.marks = append(s.marks, off)
	}
}

// seek returns the offset of the nearest indexed record at or before seq.
func (s *walSegment) seek(seq uint64) int64 {
	if k := min((seq-s.first)/walIndexStride, uint64(len(s.marks))); k > 0 {
		return s.marks[k-1]
	}
	return segHeaderLen
}

// JournalOptions tunes a Journal.
type JournalOptions struct {
	// SegmentBytes is the rotation threshold (default 64 MiB).
	SegmentBytes int64
	// StartSeq makes replay skip records with seq <= StartSeq — the
	// checkpoint manifest's covered frontier. Whole segments below the
	// frontier are skipped without being read.
	StartSeq uint64
	// NextSeqAtLeast forces the append sequence past a frontier the disk
	// may have lost (degraded-mode resume re-bases on a checkpoint that
	// covers records whose buffered appends never reached the disk).
	NextSeqAtLeast uint64
	// Faults is the failpoint registry (default fault.Default()).
	Faults *fault.Registry
	// Logf, when non-nil, receives recovery warnings.
	Logf func(format string, args ...any)
}

func (o JournalOptions) withDefaults() JournalOptions {
	o.SegmentBytes = cmp.Or(max(o.SegmentBytes, 0), 64<<20)
	if o.Faults == nil {
		o.Faults = fault.Default()
	}
	return o
}

// RecoveryInfo summarizes what OpenJournal found on disk.
type RecoveryInfo struct {
	Entries             int64  // records scanned (including ones below StartSeq)
	LastSeq             uint64 // highest valid sequence number on disk
	TornBytes           int64  // bytes truncated from a torn final-segment tail
	CorruptEvents       int64  // distinct corruption incidents (checksum/framing/seq)
	QuarantinedBytes    int64  // bytes preserved in .corrupt sidecars
	QuarantinedSegments int    // whole later segments set aside after a corrupt one
}

// Failpoint names threaded through the journal.
const (
	FPJournalAppend = "ingest.journal.append"
	FPJournalSync   = "ingest.journal.sync"
	FPJournalRotate = "ingest.journal.rotate"
)

var (
	walMagicV1 = []byte("POLWAL1\n") // recognised only to be refused
	walMagicV2 = []byte("POLWAL2\n")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Journal entry kinds. entryMerge is an empty-payload marker recording
// that the engine folded its period inventory into the master at this
// point in the record sequence: float summation is not associative, so
// replicas and crash recovery must merge at exactly the same boundaries
// to reproduce the primary's snapshot bit-for-bit.
const (
	entryPosition byte = 'P'
	entryStatic   byte = 'S'
	entryMerge    byte = 'M'
)

// validEntryKind reports whether a framed record kind is known.
func validEntryKind(kind byte) bool {
	return kind == entryPosition || kind == entryStatic || kind == entryMerge
}

const (
	recHeaderLen  = 1 + 4 + 8 // kind | len | seq
	recTrailerLen = 4         // crc32c
	segHeaderLen  = 8 + 8     // magic | firstSeq
	maxRecordLen  = 1 << 20
)

// ErrJournalBroken is wrapped by every operation after a write or fsync
// failure: a failed fsync may have silently dropped dirty pages, so the
// journal never retries on the same descriptor (fsyncgate semantics) —
// the engine must enter degraded mode and re-base on a checkpoint.
var ErrJournalBroken = fmt.Errorf("ingest: journal broken")

// JournalEntry is one replayed element.
type JournalEntry struct {
	Seq  uint64
	Kind byte
	Pos  model.PositionRecord // Kind == 'P'
	Info model.VesselInfo     // Kind == 'S'
}

// segmentPath names segment idx for a journal base: "live.wal" →
// "live.000001.wal"; "journal" → "journal.000001.wal".
func segmentPath(base string, idx int) string {
	stem := strings.TrimSuffix(base, ".wal")
	return fmt.Sprintf("%s.%06d.wal", stem, idx)
}

// scanSegments lists existing segment indexes for base, sorted ascending.
func scanSegments(base string) ([]int, error) {
	stem := strings.TrimSuffix(filepath.Base(base), ".wal")
	dir := filepath.Dir(base)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: scan journal dir: %w", err)
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, stem+".") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		num := strings.TrimSuffix(strings.TrimPrefix(name, stem+"."), ".wal")
		if len(num) != 6 {
			continue
		}
		n, err := strconv.Atoi(num)
		if err != nil || n < 1 {
			continue
		}
		idxs = append(idxs, n)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// OpenJournal opens (or creates) the journal rooted at base. Every valid
// record with seq > opts.StartSeq is passed to replay in order (replay may
// be nil to scan without applying); then the journal is positioned for
// appending. Torn tails are truncated; corrupt middles stop replay and
// quarantine the remainder — see RecoveryInfo for what happened.
func OpenJournal(base string, opts JournalOptions, replay func(JournalEntry) error) (*Journal, error) {
	opts = opts.withDefaults()
	j := &Journal{
		base: base,
		opts: opts,
		segs: make(map[int]*walSegment),
	}

	if err := refuseBaseFile(base); err != nil {
		return nil, err
	}
	j.nextSeq = 1

	idxs, err := scanSegments(base)
	if err != nil {
		return nil, err
	}
	lastIdx := 0
	if err := j.replaySegments(idxs, replay); err != nil {
		return nil, err
	}
	if len(idxs) > 0 {
		lastIdx = idxs[len(idxs)-1]
	}
	j.nextSeq = j.rec.LastSeq + 1

	if opts.NextSeqAtLeast > j.nextSeq {
		j.nextSeq = opts.NextSeqAtLeast
	}

	// Position for appending: reuse the final live segment when its
	// sequence run reaches nextSeq-1 — a segment that ended in quarantine
	// was removed from segs by replaySegments, so one still live ended at
	// rec.LastSeq — otherwise start a fresh one (quarantined or seq-gapped
	// tails must not be extended).
	if seg, ok := j.segs[lastIdx]; ok && (j.nextSeq == j.rec.LastSeq+1 || j.nextSeq == seg.first) {
		f, err := os.OpenFile(segmentPath(base, lastIdx), os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("ingest: reopen segment: %w", err)
		}
		if j.segBytes, err = f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("ingest: seek segment end: %w", err)
		}
		j.f, j.segIdx, j.active = f, lastIdx, seg
	} else if err := j.createSegment(lastIdx + 1); err != nil {
		return nil, err
	}
	j.w = bufio.NewWriterSize(j.f, 1<<18)
	return j, nil
}

// refuseBaseFile fails when something exists at the journal base path.
// Segments live beside it, never at it; the only journal that ever did is
// the unchecksummed single-file POLWAL1, whose reader is gone. Starting
// anyway would strand those records silently, so the operator decides.
func refuseBaseFile(base string) error {
	f, err := os.Open(base)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ingest: journal base path: %w", err)
	}
	defer f.Close()
	head := make([]byte, len(walMagicV1))
	if _, err := io.ReadFull(f, head); err == nil && bytes.Equal(head, walMagicV1) {
		return fmt.Errorf("ingest: %s is a POLWAL1 journal, which is no longer replayed; move it away (its records are lost unless a checkpoint covers them)", base)
	}
	return fmt.Errorf("ingest: %s exists but is not a journal; segments are written beside the base path, never at it", base)
}

// replaySegments scans the v2 segments in order, validating checksums and
// sequence continuity, truncating torn tails and quarantining corruption.
func (j *Journal) replaySegments(idxs []int, replay func(JournalEntry) error) error {
	expect := j.nextSeq // seq the next segment should start at
	for pos, idx := range idxs {
		path := segmentPath(j.base, idx)
		first, err := readSegmentHeader(path)
		if err != nil {
			// Unreadable header: this segment and everything after it are
			// unreplayable — quarantine them whole.
			j.warnf("journal segment %s: %v; quarantining it and %d later segments",
				path, err, len(idxs)-pos-1)
			return j.quarantineSegments(idxs[pos:])
		}
		// Pruned predecessors may open a gap, but only below the
		// checkpoint-covered frontier; an uncovered gap means lost records
		// and the segments past it must not be replayed.
		if first != expect && first > j.opts.StartSeq+1 {
			j.warnf("journal segment %s starts at seq %d, want %d: uncovered gap; quarantining remainder",
				path, first, expect)
			return j.quarantineSegments(idxs[pos:])
		}
		seg := &walSegment{first: first}
		j.segs[idx] = seg

		// Whole segment below the covered frontier: skip the scan, its
		// extent is implied by the next segment's header.
		if pos+1 < len(idxs) {
			if next, err := readSegmentHeader(segmentPath(j.base, idxs[pos+1])); err == nil && next <= j.opts.StartSeq+1 && next > first {
				if st, err := os.Stat(path); err == nil {
					j.total += st.Size()
				}
				j.rec.Entries += int64(next - first)
				j.rec.LastSeq = next - 1
				expect = next
				continue
			}
		}

		last, cont, err := j.scanSegment(path, seg, pos == len(idxs)-1, replay)
		if err != nil {
			return err
		}
		j.rec.LastSeq = last
		expect = last + 1
		if !cont {
			// Corruption stopped replay; set aside the later segments.
			return j.quarantineSegments(idxs[pos+1:])
		}
	}
	return nil
}

// scanSegment replays one segment's records and rebuilds its index. It
// returns the last valid seq and whether replay may continue into later
// segments.
func (j *Journal) scanSegment(path string, seg *walSegment, final bool, replay func(JournalEntry) error) (uint64, bool, error) {
	firstSeq := seg.first
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, false, fmt.Errorf("ingest: open segment %s: %w", path, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("ingest: stat segment: %w", err)
	}
	size := st.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(f, segHeaderLen, size-segHeaderLen), 1<<18)

	good := int64(segHeaderLen)
	seq := firstSeq - 1
	rr := recordReader{r: r}

	fail := func(reason string, short bool, recEnd int64) (uint64, bool, error) {
		// Torn tail: the bad bytes end at EOF of the final segment — the
		// classic crash-mid-append shape. Anything else is corruption.
		torn := final && (short || recEnd >= size)
		if torn {
			j.rec.TornBytes += size - good
			j.warnf("journal segment %s: torn tail at offset %d (%s): truncating %d bytes",
				path, good, reason, size-good)
			if err := f.Truncate(good); err != nil {
				return 0, false, fmt.Errorf("ingest: truncate torn tail: %w", err)
			}
			j.total += good
			return seq, true, nil
		}
		j.rec.CorruptEvents++
		j.warnf("journal segment %s: corrupt record at offset %d (%s): quarantining %d bytes",
			path, good, reason, size-good)
		if err := quarantineTail(f, path, good, size); err != nil {
			return 0, false, err
		}
		j.rec.QuarantinedBytes += size - good
		j.total += good
		return seq, false, nil
	}

	for {
		rseq, n, short, err := rr.next()
		if err == io.EOF {
			j.total += good
			j.rec.Entries += int64(seq - (firstSeq - 1))
			return seq, true, nil
		}
		if err == nil && rseq != seq+1 {
			err = fmt.Errorf("seq %d, want %d", rseq, seq+1)
		}
		var e JournalEntry
		if err == nil {
			e, err = rr.entry()
		}
		if err != nil {
			return fail(err.Error(), short, good+n)
		}
		if replay != nil && rseq > j.opts.StartSeq {
			if err := replay(e); err != nil {
				return 0, false, fmt.Errorf("ingest: journal replay: %w", err)
			}
		}
		seg.mark(rseq, good)
		seq = rseq
		good += n
	}
}

// quarantineTail copies bytes [from, size) of the open segment into a
// .corrupt sidecar and truncates the segment, preserving the bad bytes
// for forensics while guaranteeing they are never replayed.
func quarantineTail(f *os.File, path string, from, size int64) error {
	side, err := os.Create(path + ".corrupt")
	if err != nil {
		return fmt.Errorf("ingest: create quarantine sidecar: %w", err)
	}
	_, cpErr := io.Copy(side, io.NewSectionReader(f, from, size-from))
	if err := side.Sync(); cpErr == nil {
		cpErr = err
	}
	if err := side.Close(); cpErr == nil {
		cpErr = err
	}
	if cpErr != nil {
		return fmt.Errorf("ingest: quarantine tail: %w", cpErr)
	}
	if err := f.Truncate(from); err != nil {
		return fmt.Errorf("ingest: truncate corrupt segment: %w", err)
	}
	return nil
}

// quarantineSegments renames whole segments to .corrupt so they are kept
// but never rescanned.
func (j *Journal) quarantineSegments(idxs []int) error {
	for _, idx := range idxs {
		path := segmentPath(j.base, idx)
		if st, err := os.Stat(path); err == nil {
			j.rec.QuarantinedBytes += st.Size()
		}
		if err := os.Rename(path, path+".corrupt"); err != nil {
			return fmt.Errorf("ingest: quarantine segment: %w", err)
		}
		j.rec.QuarantinedSegments++
		delete(j.segs, idx)
	}
	if len(idxs) > 0 {
		j.rec.CorruptEvents++
	}
	return nil
}

func readSegmentHeader(path string) (firstSeq uint64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	var head [segHeaderLen]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return 0, fmt.Errorf("short header: %w", err)
	}
	if !bytes.Equal(head[:8], walMagicV2) {
		return 0, fmt.Errorf("bad segment magic")
	}
	if firstSeq = binary.LittleEndian.Uint64(head[8:]); firstSeq == 0 {
		return 0, fmt.Errorf("first sequence number 0") // they start at 1; found by FuzzOpenJournal
	}
	return firstSeq, nil
}

// createSegment starts segment idx with firstSeq = nextSeq and makes its
// directory entry durable.
func (j *Journal) createSegment(idx int) error {
	path := segmentPath(j.base, idx)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: create segment %s: %w", path, err)
	}
	var head []byte
	head = append(head, walMagicV2...)
	head = binary.LittleEndian.AppendUint64(head, j.nextSeq)
	if _, err := f.Write(head); err != nil {
		f.Close()
		return fmt.Errorf("ingest: segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("ingest: segment header sync: %w", err)
	}
	if err := inventory.SyncDir(path); err != nil {
		f.Close()
		return fmt.Errorf("ingest: segment dir sync: %w", err)
	}
	j.f = f
	j.segIdx, j.active = idx, &walSegment{first: j.nextSeq}
	j.segBytes = segHeaderLen
	j.total += segHeaderLen
	j.segs[idx] = j.active
	return nil
}

func (j *Journal) warnf(format string, args ...any) {
	if j.opts.Logf != nil {
		j.opts.Logf(format, args...)
	}
}

// Recovery returns what OpenJournal found on disk.
func (j *Journal) Recovery() RecoveryInfo { return j.rec }

// AppendPosition journals one accepted position record.
func (j *Journal) AppendPosition(r model.PositionRecord) error {
	_, _, err := j.append(&JournalEntry{Kind: entryPosition, Pos: r})
	return err
}

// append journals one entry (its Seq is ignored: the journal numbers what
// it writes), framed in a buffer the journal owns, and returns the record's
// sequence number and the journal size after it: one lock per record.
func (j *Journal) append(e *JournalEntry) (seq uint64, size int64, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.broken != nil {
		return 0, 0, j.broken
	}
	if err := j.opts.Faults.Hit(FPJournalAppend); err != nil {
		return 0, 0, j.markBroken(err)
	}
	seq = j.nextSeq
	j.frame = appendRecord(j.frame[:0], seq, e)
	recLen := int64(len(j.frame))
	if j.segBytes+recLen > j.opts.SegmentBytes && j.segBytes > segHeaderLen {
		if err := j.rotate(); err != nil {
			return 0, 0, j.markBroken(err)
		}
	}
	if _, err := j.w.Write(j.frame); err != nil {
		return 0, 0, j.markBroken(fmt.Errorf("ingest: journal append: %w", err))
	}
	j.active.mark(seq, j.segBytes)
	j.nextSeq++
	j.segBytes += recLen
	j.total += recLen
	return seq, j.total, nil
}

// rotate closes the active segment behind a durability barrier and opens
// the next one. Called with the lock held.
func (j *Journal) rotate() error {
	if err := j.opts.Faults.Hit(FPJournalRotate); err != nil {
		return err
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("ingest: journal rotate flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("ingest: journal rotate sync: %w", err)
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("ingest: journal rotate close: %w", err)
	}
	if err := j.createSegment(j.segIdx + 1); err != nil {
		return err
	}
	j.w.Reset(j.f)
	return nil
}

// markBroken records the first fatal error; every later operation returns
// it without touching the file again (fsyncgate: a failed fsync must not
// be retried on the same descriptor).
func (j *Journal) markBroken(err error) error {
	if j.broken == nil {
		j.broken = fmt.Errorf("%w: %w", ErrJournalBroken, err)
	}
	return j.broken
}

// Flush pushes buffered entries to the operating system.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *Journal) flushLocked() error {
	if j.broken != nil {
		return j.broken
	}
	if err := j.w.Flush(); err != nil {
		return j.markBroken(fmt.Errorf("ingest: journal flush: %w", err))
	}
	return nil
}

// Sync flushes and fsyncs the journal — the durability barrier used at
// merge boundaries and on shutdown. After a failed fsync the journal is
// permanently broken: the kernel may have dropped the dirty pages, so
// retrying could report durability that does not exist.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.flushLocked(); err != nil {
		return err
	}
	if err := j.opts.Faults.Hit(FPJournalSync); err != nil {
		return j.markBroken(err)
	}
	if err := j.f.Sync(); err != nil {
		return j.markBroken(fmt.Errorf("ingest: journal sync: %w", err))
	}
	return nil
}

// Size returns the live journal length in bytes including buffered
// entries, across all segments.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// LastSeq returns the sequence number of the most recently appended
// record (0 before any append on a fresh journal).
func (j *Journal) LastSeq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq - 1
}

// Segments returns the number of live segment files.
func (j *Journal) Segments() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.segs)
}

// Prune removes closed segments whose records are all covered by a
// durable checkpoint at coveredSeq. The active segment is never removed.
// Safe to call concurrently with appends.
func (j *Journal) Prune(coveredSeq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	idxs := slices.Sorted(maps.Keys(j.segs))
	for i, idx := range idxs {
		if idx == j.segIdx || i+1 >= len(idxs) {
			break // never the active (= last) segment
		}
		lastSeq := j.segs[idxs[i+1]].first - 1
		if lastSeq > coveredSeq {
			break
		}
		path := segmentPath(j.base, idx)
		st, err := os.Stat(path)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("ingest: prune segment: %w", err)
		}
		if err == nil {
			j.total -= st.Size()
		}
		delete(j.segs, idx)
	}
	return inventory.SyncDir(j.base)
}

// Close syncs and closes the journal file. A broken journal's descriptor
// is closed without further writes and the sticky error is returned.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.flushLocked()
	if err == nil {
		if err = j.f.Sync(); err != nil {
			err = j.markBroken(fmt.Errorf("ingest: journal sync: %w", err))
		}
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// appendRecord appends e as one WAL-framed record — kind | len | seq |
// payload | crc32c — to buf. The same framing is used on disk and on the
// replication wire, so a tailing replica validates exactly what a
// restarting primary would.
func appendRecord(buf []byte, seq uint64, e *JournalEntry) []byte {
	start := len(buf)
	buf = append(buf, e.Kind, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	switch e.Kind {
	case entryPosition:
		buf = appendPositionEntry(buf, e.Pos)
	case entryStatic:
		buf = appendStaticEntry(buf, e.Info)
	}
	binary.LittleEndian.PutUint32(buf[start+1:], uint32(len(buf)-start-recHeaderLen))
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf[start:], castagnoli))
}

// ErrSeqPruned reports that a requested replication start point lies
// below the oldest record still on disk: a checkpoint covered it and
// Prune removed the segment. The reader must re-bootstrap from a
// checkpoint generation instead of tailing.
var ErrSeqPruned = fmt.Errorf("ingest: requested WAL sequence already pruned")

// maxReadEntries bounds the records of one POLREPL1 chunk.
const maxReadEntries = 8192

// readChunk builds one POLREPL1 body — magic | lastSeq | count | records —
// of up to max committed records past fromSeq, in order, as they lie on
// disk, and returns it with its count. Under the lock it only flushes — so
// the files hold every acknowledged record — and notes where to read; the
// reading itself starts at the index mark at or before fromSeq+1, verifies
// each record's checksum and copies it, decoding nothing, while appends go
// on. A segment Prune removes meanwhile ends the chunk early. fromSeq below
// the retained frontier returns ErrSeqPruned.
func (j *Journal) readChunk(fromSeq uint64, max int) ([]byte, int, error) {
	if max <= 0 || max > maxReadEntries {
		max = maxReadEntries
	}
	var idxs []int
	var off int64
	var err error
	j.mu.Lock()
	last := j.nextSeq - 1
	if max = int(min(uint64(max), last-min(fromSeq, last))); max > 0 {
		if err = j.flushLocked(); err == nil {
			idxs = slices.Sorted(maps.Keys(j.segs))
			// Skip whole segments entirely below the requested start.
			for len(idxs) > 1 && j.segs[idxs[1]].first <= fromSeq+1 {
				idxs = idxs[1:]
			}
			if len(idxs) == 0 || fromSeq+1 < j.segs[idxs[0]].first {
				err = ErrSeqPruned
			} else {
				off = j.segs[idxs[0]].seek(fromSeq + 1)
			}
		}
	}
	j.mu.Unlock()

	chunk := make([]byte, replHeaderLen, replHeaderLen+max*positionFrameLen) // grown only by statics
	copy(chunk, replMagic)
	binary.LittleEndian.PutUint64(chunk[len(replMagic):], last)
	n := 0
	for _, idx := range idxs {
		if err != nil || n >= max {
			break
		}
		chunk, n, err = readSegmentFrames(chunk, segmentPath(j.base, idx), off, fromSeq, max, n)
		off = segHeaderLen
	}
	if os.IsNotExist(err) { // pruned under the read; with records in hand, the next read says so
		err = nil
		if n == 0 {
			err = ErrSeqPruned
		}
	}
	binary.LittleEndian.PutUint32(chunk[len(replMagic)+8:], uint32(n))
	return chunk, n, err
}

// readSegmentFrames appends to dst one segment's records with seq > fromSeq
// from offset off on, until n reaches max. The open-time scan validated the
// segment — a framing or checksum failure here means the disk mutated
// under us.
func readSegmentFrames(dst []byte, path string, off int64, fromSeq uint64, max, n int) ([]byte, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return dst, n, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return dst, n, fmt.Errorf("ingest: seek segment %s: %w", path, err)
	}
	rr := recordReader{r: bufio.NewReaderSize(f, 1<<16)}
	for n < max {
		seq, _, short, err := rr.next()
		if err == io.EOF || short {
			break // the segment's end, or a torn tail the next open truncates
		}
		if err != nil {
			return dst, n, fmt.Errorf("ingest: read segment %s: %w", path, err)
		}
		if seq > fromSeq { // records at or below it are verified, not copied
			dst = append(append(dst, rr.hdr[:]...), rr.buf...)
			n++
		}
	}
	return dst, n, nil
}

// recordReader reads framed records: the bytes of a WAL segment past its
// header and the body of a POLREPL1 chunk are the same thing.
type recordReader struct {
	r       io.Reader
	hdr     [recHeaderLen]byte
	buf     []byte
	payload []byte // of the record next last verified
}

// next verifies the next record's framing and checksum and returns its
// sequence number and the bytes its framing claims (0 when even the header
// is incomplete). io.EOF means the input ended on a record boundary;
// short, that it ended inside this record — a torn tail or a flush
// frontier, not bad bytes.
func (rr *recordReader) next() (seq uint64, n int64, short bool, err error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, 0, false, err
		}
		return 0, 0, true, fmt.Errorf("short header")
	}
	plen := binary.LittleEndian.Uint32(rr.hdr[1:5])
	seq = binary.LittleEndian.Uint64(rr.hdr[5:])
	n = recHeaderLen + int64(plen) + recTrailerLen
	if plen > maxRecordLen || !validEntryKind(rr.hdr[0]) {
		return seq, n, false, fmt.Errorf("bad framing at seq %d", seq)
	}
	if need := int(plen) + recTrailerLen; cap(rr.buf) < need {
		rr.buf = make([]byte, need)
	} else {
		rr.buf = rr.buf[:need]
	}
	if _, err := io.ReadFull(rr.r, rr.buf); err != nil {
		return seq, n, true, fmt.Errorf("short payload")
	}
	rr.payload = rr.buf[:plen]
	if crc32.Update(crc32.Checksum(rr.hdr[:], castagnoli), castagnoli, rr.payload) != binary.LittleEndian.Uint32(rr.buf[plen:]) {
		return seq, n, false, fmt.Errorf("checksum mismatch at seq %d", seq)
	}
	return seq, n, false, nil
}

// entry decodes the record next last verified.
func (rr *recordReader) entry() (JournalEntry, error) {
	e := JournalEntry{Seq: binary.LittleEndian.Uint64(rr.hdr[5:]), Kind: rr.hdr[0]}
	ok := len(rr.payload) == 0 // a merge marker carries nothing
	switch e.Kind {
	case entryPosition:
		e.Pos, ok = decodePositionEntry(rr.payload)
	case entryStatic:
		e.Info, ok = decodeStaticEntry(rr.payload)
	}
	if !ok {
		return e, fmt.Errorf("undecodable payload at seq %d", e.Seq)
	}
	return e, nil
}

// appendPositionEntry encodes a position record (fixed 53 bytes).
func appendPositionEntry(buf []byte, r model.PositionRecord) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, r.MMSI)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.Time))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Pos.Lat))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Pos.Lng))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.SOG))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.COG))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Heading))
	return append(buf, byte(r.Status))
}

func decodePositionEntry(b []byte) (model.PositionRecord, bool) {
	r := stateReader{p: b}
	rec := model.PositionRecord{MMSI: r.u32(), Time: int64(r.u64()), Pos: geo.LatLng{Lat: r.f64(), Lng: r.f64()},
		SOG: r.f64(), COG: r.f64(), Heading: r.f64(), Status: ais.NavStatus(r.u8())}
	return rec, r.err == nil && len(r.p) == 0
}

// appendStaticEntry encodes a vessel static-inventory entry.
func appendStaticEntry(buf []byte, v model.VesselInfo) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, v.MMSI)
	buf = binary.LittleEndian.AppendUint32(buf, v.IMO)
	buf = append(buf, byte(v.Type))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(v.GRT))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.LengthM))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(v.BeamM))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.DesignSpeed))
	if v.ClassA {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(len(v.Name)))
	buf = append(buf, v.Name...)
	buf = append(buf, byte(len(v.CallSign)))
	return append(buf, v.CallSign...)
}

func decodeStaticEntry(b []byte) (model.VesselInfo, bool) {
	r := stateReader{p: b}
	v := model.VesselInfo{MMSI: r.u32(), IMO: r.u32(), Type: model.VesselType(r.u8()), GRT: int(int64(r.u64())),
		LengthM: int(r.u32()), BeamM: int(r.u32()), DesignSpeed: r.f64(), ClassA: r.u8() == 1}
	v.Name = string(r.take(int(r.u8())))
	v.CallSign = string(r.take(int(r.u8())))
	return v, r.err == nil && len(r.p) == 0
}
