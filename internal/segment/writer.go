package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
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
// nothing once raw has grown to the largest block seen.
type blockEncoder struct {
	raw []byte
}

// encode writes shard's compressed column block into slot: the raw block
// is the inventory's own (inventory.AppendShardBlock, the one encoder of
// the layout), deflated here. An empty shard leaves a block of no groups,
// which the emitter skips.
func (e *blockEncoder) encode(inv *inventory.Inventory, shard int, slot *blockSlot) {
	raw := inv.AppendShardBlock(e.raw[:0], shard)
	e.raw = raw
	n := binary.LittleEndian.Uint32(raw)
	slot.info = BlockInfo{Shard: shard, NGroups: n}
	if n == 0 {
		return
	}
	slot.comp = deflate.Deflate(slot.comp[:0], raw)
	slot.info.CompLen, slot.info.RawLen, slot.info.CRC = uint32(len(slot.comp)), uint32(len(raw)), CRC(slot.comp)
	for g := range int(n) {
		slot.info.NSet[raw[4+g*inventory.EncodedKeyLen]-byte(inventory.GSCell)]++
	}
}

// writeTo streams the encoded segment. Shard blocks are independent, so
// they are columnised and compressed by up to GOMAXPROCS workers while
// this goroutine — the only one that touches w — emits them in ascending
// shard id. Each block's bytes are a function of its shard's groups alone
// (deflate.Deflate's output depends on its input alone), so the file does
// not depend on the worker count. A view that is not a heap inventory is
// copied into one first.
func writeTo(v inventory.View, w *crcWriter) (WriteStats, error) {
	var st WriteStats
	inv, ok := v.(*inventory.Inventory)
	if !ok {
		inv = inventory.New(v.Info())
		v.Each(func(k inventory.GroupKey, s *inventory.CellSummary) bool {
			inv.Put(k, s)
			return true
		})
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

	encs := make([]blockEncoder, min(runtime.GOMAXPROCS(0), inventory.ShardCount))
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
				enc.encode(inv, seq, slot)
				slot.done <- struct{}{}
			}
		}(&encs[i])
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()

	var blocks []BlockInfo
	dispatched := 0
	for seq := range inventory.ShardCount {
		for ; dispatched < inventory.ShardCount && dispatched < seq+len(slots); dispatched++ {
			jobs <- dispatched
		}
		slot := &slots[seq%len(slots)]
		<-slot.done
		bi := slot.info
		if bi.NGroups == 0 {
			continue
		}
		if err := fault.Hit(FPWriteBlock); err != nil {
			return st, fmt.Errorf("segment: block %d: %w", seq, err)
		}
		bi.Off = w.n
		if _, err := w.Write(slot.comp); err != nil {
			return st, fmt.Errorf("segment: shard %d: %w", seq, err)
		}
		blocks = append(blocks, bi)
		st.Blocks++
		st.Groups += int(bi.NGroups)
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
