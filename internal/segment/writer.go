package segment

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"sync"

	"github.com/patternsoflife/pol/internal/deflate"
	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/inventory"
)

// Failpoints on the segment write path, for crash-consistency and
// fault-matrix tests. Armed via the default fault registry
// (POL_FAILPOINTS), like the atomic-write and WAL failpoints.
const (
	// FPWriteBlock fires before each shard block is emitted.
	FPWriteBlock = "segment.write.block"
	// FPWriteIndex fires before the footer index is emitted.
	FPWriteIndex = "segment.write.index"
)

// WriteStats reports what a segment write produced.
type WriteStats struct {
	Groups   int   // groups written
	Blocks   int   // non-empty shard blocks
	RawBytes int64 // uncompressed block bytes
	Sum      uint32
	Size     int64 // total file size
}

// WriteFile serializes a frozen inventory view into a POLSEG1 segment at
// path through inventory.AtomicWrite (temp + fsync + rename + directory
// fsync): a crash leaves either the old complete file or the new complete
// file, never a hybrid.
func WriteFile(v inventory.View, path string) error {
	_, err := WriteFileSum(v, path)
	return err
}

// WriteFileSum is WriteFile plus whole-file CRC32C/size (for checkpoint
// manifests) and the write stats.
func WriteFileSum(v inventory.View, path string) (st WriteStats, err error) {
	err = inventory.AtomicWrite(path, func(w io.Writer) error {
		st, err = Write(v, w)
		return err
	})
	return st, err
}

// Write streams the POLSEG1 encoding of v to w — the same bytes WriteFile
// puts on disk, for consumers that want a segment without a file (the
// /v1/repl/snapshot handler). Stats carry the CRC32C and size written.
func Write(v inventory.View, w io.Writer) (WriteStats, error) {
	cw := &crcWriter{w: w}
	st, err := writeTo(v, cw)
	st.Sum, st.Size = cw.sum, cw.n
	return st, err
}

// crcWriter folds a CRC32C over everything written through it.
type crcWriter struct {
	w   io.Writer
	sum uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crcTable, p[:n])
	c.n += int64(n)
	return n, err
}

// entry is one group on its way into a block: the encoded key (whose
// first byte is the grouping set) and the summary it indexes.
type entry struct {
	keyEnc  [inventory.EncodedKeyLen]byte
	summary *inventory.CellSummary
}

// encodeWindowPerWorker bounds how far block encoding runs ahead of the
// file: at most this many finished-or-in-flight blocks per worker are held
// in memory. Two lets a worker start its next shard while its last block
// waits for the emitter; more only buys memory.
const encodeWindowPerWorker = 2

// blockSlot carries one encoded block from a worker to the emitter. A slot
// belongs to block seq from dispatch until the emitter has written it, then
// to block seq+window, so its buffer is reused for the whole write.
type blockSlot struct {
	comp []byte
	info BlockInfo     // Off is the emitter's to fill
	done chan struct{} // the encode is finished; capacity 1, so the worker never waits
}

// blockEncoder is one worker's reused state: compressing a shard allocates
// nothing once raw has grown to the largest shard seen.
type blockEncoder struct {
	raw []byte
}

// encode sorts one shard's entries and writes its compressed column block
// into slot.
func (e *blockEncoder) encode(shard int, es []entry, slot *blockSlot) {
	// Sorted by encoded key so the key column is binary-searchable.
	slices.SortFunc(es, func(a, b entry) int { return bytes.Compare(a.keyEnc[:], b.keyEnc[:]) })

	// Columns: keys | records | offsets | blob.
	raw := binary.LittleEndian.AppendUint32(e.raw[:0], uint32(len(es)))
	for i := range es {
		raw = append(raw, es[i].keyEnc[:]...)
	}
	for i := range es {
		raw = binary.LittleEndian.AppendUint64(raw, es[i].summary.Records)
	}
	// The offset column's size is known up front, so each summary is
	// encoded once, straight into the blob, and its offset patched in.
	offs := len(raw)
	raw = append(raw, make([]byte, 4*(len(es)+1))...)
	blob := len(raw)
	for i := range es {
		binary.LittleEndian.PutUint32(raw[offs+4*i:], uint32(len(raw)-blob))
		raw = es[i].summary.AppendBinary(raw)
	}
	binary.LittleEndian.PutUint32(raw[offs+4*len(es):], uint32(len(raw)-blob))
	e.raw = raw

	slot.comp = deflate.Deflate(slot.comp[:0], raw)
	slot.info = BlockInfo{
		Shard:   shard,
		CompLen: uint32(len(slot.comp)),
		RawLen:  uint32(len(raw)),
		CRC:     CRC(slot.comp),
		NGroups: uint32(len(es)),
	}
	for i := range es {
		slot.info.NSet[inventory.GroupSet(es[i].keyEnc[0])-inventory.GSCell]++
	}
}

// writeTo streams the encoded segment. Shard blocks are independent, so
// they are sorted, columnised and compressed by up to GOMAXPROCS workers
// while this goroutine — the only one that touches w — emits them in
// ascending shard id. Each block's bytes are a function of its shard's
// groups alone (deflate.Deflate's output depends on its input alone), so
// the file does not depend on the worker count.
func writeTo(v inventory.View, w *crcWriter) (WriteStats, error) {
	var st WriteStats

	// Bucket the groups into their shards.
	var shards [inventory.ShardCount][]entry
	v.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
		e := entry{summary: s}
		inventory.AppendKey(e.keyEnc[:0], k)
		si := inventory.ShardOf(k)
		shards[si] = append(shards[si], e)
		st.Groups++
		return true
	})
	var ids []int // non-empty shards, ascending: block seq → shard id
	for si := range shards {
		if len(shards[si]) > 0 {
			ids = append(ids, si)
		}
	}

	info := v.Info()
	var head []byte
	head = append(head, segMagic...)
	head = binary.LittleEndian.AppendUint32(head, segVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(info.Resolution))
	head = binary.LittleEndian.AppendUint64(head, uint64(info.RawRecords))
	head = binary.LittleEndian.AppendUint64(head, uint64(info.UsedRecords))
	head = binary.LittleEndian.AppendUint64(head, uint64(info.BuiltUnix))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(info.Description)))
	head = append(head, info.Description...)
	headerLen, headerCRC := len(head), CRC(head)
	if _, err := w.Write(head); err != nil {
		return st, fmt.Errorf("segment: header: %w", err)
	}

	encs := make([]blockEncoder, min(runtime.GOMAXPROCS(0), len(ids)))
	slots := make([]blockSlot, len(encs)*encodeWindowPerWorker)
	for i := range slots {
		slots[i].done = make(chan struct{}, 1)
	}
	// Block seq is in flight from its send on jobs until the emitter has
	// written it, and the emitter keeps at most len(slots) in flight: so
	// neither that send nor a worker's send on its slot can block, and
	// stopping early is close, wait (for at most the blocks in flight).
	jobs := make(chan int, len(slots))
	var wg sync.WaitGroup
	for i := range encs {
		wg.Add(1)
		go func(enc *blockEncoder) {
			defer wg.Done()
			for seq := range jobs {
				slot := &slots[seq%len(slots)]
				enc.encode(ids[seq], shards[ids[seq]], slot)
				slot.done <- struct{}{}
			}
		}(&encs[i])
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	blocks := make([]BlockInfo, 0, len(ids))
	dispatched := 0
	for seq, si := range ids {
		for ; dispatched < len(ids) && dispatched < seq+len(slots); dispatched++ {
			jobs <- dispatched
		}
		if err := fault.Hit(FPWriteBlock); err != nil {
			return st, fmt.Errorf("segment: block %d: %w", si, err)
		}
		slot := &slots[seq%len(slots)]
		<-slot.done
		bi := slot.info
		bi.Off = w.n
		if _, err := w.Write(slot.comp); err != nil {
			return st, fmt.Errorf("segment: shard %d: %w", si, err)
		}
		blocks = append(blocks, bi)
		st.Blocks++
		st.RawBytes += int64(bi.RawLen)
	}

	if err := fault.Hit(FPWriteIndex); err != nil {
		return st, fmt.Errorf("segment: index: %w", err)
	}
	indexOff := w.n
	idx := make([]byte, 0, 4+len(blocks)*indexEntryLen)
	idx = binary.LittleEndian.AppendUint32(idx, uint32(len(blocks)))
	for _, bi := range blocks {
		idx = binary.LittleEndian.AppendUint16(idx, uint16(bi.Shard))
		idx = binary.LittleEndian.AppendUint64(idx, uint64(bi.Off))
		idx = binary.LittleEndian.AppendUint32(idx, bi.CompLen)
		idx = binary.LittleEndian.AppendUint32(idx, bi.RawLen)
		idx = binary.LittleEndian.AppendUint32(idx, bi.CRC)
		idx = binary.LittleEndian.AppendUint32(idx, bi.NGroups)
		for s := 0; s < 3; s++ {
			idx = binary.LittleEndian.AppendUint32(idx, bi.NSet[s])
		}
	}
	if _, err := w.Write(idx); err != nil {
		return st, fmt.Errorf("segment: index: %w", err)
	}

	var tail []byte
	tail = binary.LittleEndian.AppendUint64(tail, uint64(indexOff))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(idx)))
	tail = binary.LittleEndian.AppendUint32(tail, CRC(idx))
	tail = binary.LittleEndian.AppendUint32(tail, uint32(headerLen))
	tail = binary.LittleEndian.AppendUint32(tail, headerCRC)
	tail = binary.LittleEndian.AppendUint64(tail, uint64(st.Groups))
	tail = append(tail, tailMagic...)
	if _, err := w.Write(tail); err != nil {
		return st, fmt.Errorf("segment: tail: %w", err)
	}
	return st, nil
}
