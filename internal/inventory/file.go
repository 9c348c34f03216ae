package inventory

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"github.com/patternsoflife/pol/internal/fault"
)

// File format (little-endian, except keys which are big-endian for sort
// order):
//
//	header:  magic "POLINV1\n" | version u32 | resolution u32 |
//	         rawRecords u64 | usedRecords u64 | builtUnix u64 |
//	         descLen u32 | desc bytes | numGroups u64
//	groups:  numGroups × ( key[18] | summaryLen u32 | summary bytes ),
//	         sorted by key bytes
//	index:   numGroups × ( key[18] | offset u64 )  — offset of the group
//	         entry from file start
//	footer:  indexOffset u64 | magic "POLEND1\n"
//
// The sorted index allows O(log n) random access via ReadAt without loading
// the groups section.

var (
	fileMagic   = []byte("POLINV1\n")
	footerMagic = []byte("POLEND1\n")
)

const fileVersion = 1

// Failpoint names for crash-consistency testing of atomic writes.
const (
	FPWriteSync   = "inventory.writefile.sync"
	FPWriteRename = "inventory.writefile.rename"
)

var fileCRCTable = crc32.MakeTable(crc32.Castagnoli)

// AtomicWrite streams content produced by write into path with full
// crash-safety: the bytes go to a sibling temp file, the file is fsynced,
// renamed over path, and the directory entry is fsynced — so a crash at
// any instant leaves either the old complete file or the new complete
// file at path, never a truncated hybrid.
func AtomicWrite(path string, write func(w io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("inventory: create %s: %w", tmp, err)
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	if err = write(w); err != nil {
		return err
	}
	if err = w.Flush(); err != nil {
		return fmt.Errorf("inventory: flush: %w", err)
	}
	if err = fault.Hit(FPWriteSync); err != nil {
		return fmt.Errorf("inventory: sync: %w", err)
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("inventory: sync: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("inventory: close: %w", err)
	}
	if err = fault.Hit(FPWriteRename); err != nil {
		return fmt.Errorf("inventory: rename: %w", err)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("inventory: rename: %w", err)
	}
	if err = syncDir(path); err != nil {
		return fmt.Errorf("inventory: dir sync: %w", err)
	}
	return nil
}

// syncDir fsyncs the directory containing path so a completed rename
// survives a crash.
func syncDir(path string) error {
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile persists the inventory to path atomically (temp + fsync +
// rename + directory fsync).
func WriteFile(inv *Inventory, path string) error {
	_, _, err := WriteFileSum(inv, path)
	return err
}

// WriteFileSum is WriteFile plus the CRC32C (Castagnoli) checksum and
// length of the bytes written, computed while streaming — checkpoint
// manifests record them so cold start can verify the artifact without a
// second read.
func WriteFileSum(inv *Inventory, path string) (sum uint32, size int64, err error) {
	err = AtomicWrite(path, func(w io.Writer) error {
		cw := &crcWriter{w: w}
		if _, err := writeTo(inv, cw); err != nil {
			return err
		}
		sum, size = cw.sum, cw.n
		return nil
	})
	return sum, size, err
}

// crcWriter folds a CRC32C over everything written through it.
type crcWriter struct {
	w   io.Writer
	sum uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, fileCRCTable, p[:n])
	c.n += int64(n)
	return n, err
}

// ChecksumFile returns the CRC32C and length of a file's contents, for
// verifying a checkpoint against its manifest entry.
func ChecksumFile(path string) (sum uint32, size int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := crc32.New(fileCRCTable)
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return h.Sum32(), n, nil
}

// writeTo streams the encoded inventory and returns the bytes written.
func writeTo(inv *Inventory, w io.Writer) (int64, error) {
	var written int64
	emit := func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		return err
	}

	info := inv.info
	var head []byte
	head = append(head, fileMagic...)
	head = binary.LittleEndian.AppendUint32(head, fileVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(info.Resolution))
	head = binary.LittleEndian.AppendUint64(head, uint64(info.RawRecords))
	head = binary.LittleEndian.AppendUint64(head, uint64(info.UsedRecords))
	head = binary.LittleEndian.AppendUint64(head, uint64(info.BuiltUnix))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(info.Description)))
	head = append(head, info.Description...)
	head = binary.LittleEndian.AppendUint64(head, uint64(inv.Len()))
	if err := emit(head); err != nil {
		return written, err
	}

	// Sort keys by encoded bytes.
	type entry struct {
		keyEnc  [keyBytes]byte
		summary *CellSummary
	}
	entries := make([]entry, 0, inv.Len())
	inv.Each(func(k GroupKey, s *CellSummary) bool {
		e := entry{summary: s}
		appendKey(e.keyEnc[:0], k)
		entries = append(entries, e)
		return true
	})
	slices.SortFunc(entries, func(a, b entry) int { return bytes.Compare(a.keyEnc[:], b.keyEnc[:]) })

	type idxEntry struct {
		keyEnc [keyBytes]byte
		offset uint64
	}
	index := make([]idxEntry, 0, len(entries))
	var buf []byte
	for _, e := range entries {
		index = append(index, idxEntry{keyEnc: e.keyEnc, offset: uint64(written)})
		// key | summaryLen | summary, the length patched in once the
		// summary has been encoded in place.
		buf = append(buf[:0], e.keyEnc[:]...)
		buf = append(buf, 0, 0, 0, 0)
		buf = e.summary.AppendBinary(buf)
		binary.LittleEndian.PutUint32(buf[keyBytes:], uint32(len(buf)-keyBytes-4))
		if err := emit(buf); err != nil {
			return written, err
		}
	}

	indexOffset := uint64(written)
	for _, ie := range index {
		buf = buf[:0]
		buf = append(buf, ie.keyEnc[:]...)
		buf = binary.LittleEndian.AppendUint64(buf, ie.offset)
		if err := emit(buf); err != nil {
			return written, err
		}
	}
	var foot []byte
	foot = binary.LittleEndian.AppendUint64(nil, indexOffset)
	foot = append(foot, footerMagic...)
	if err := emit(foot); err != nil {
		return written, err
	}
	return written, nil
}

// LoadFile reads an entire inventory into memory.
func LoadFile(path string) (*Inventory, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("inventory: read %s: %w", path, err)
	}
	return decodeAll(data)
}

func decodeAll(data []byte) (*Inventory, error) {
	if len(data) < len(fileMagic)+4 || !bytes.Equal(data[:len(fileMagic)], fileMagic) {
		return nil, fmt.Errorf("inventory: bad magic")
	}
	p := data[len(fileMagic):]
	need := func(n int) error {
		if len(p) < n {
			return fmt.Errorf("inventory: truncated file")
		}
		return nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	version := binary.LittleEndian.Uint32(p)
	p = p[4:]
	if version != fileVersion {
		return nil, fmt.Errorf("inventory: unsupported version %d", version)
	}
	if err := need(4 + 8 + 8 + 8 + 4); err != nil {
		return nil, err
	}
	var info BuildInfo
	info.Resolution = int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	info.RawRecords = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	info.UsedRecords = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	info.BuiltUnix = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	descLen := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if err := need(descLen + 8); err != nil {
		return nil, err
	}
	info.Description = string(p[:descLen])
	p = p[descLen:]
	numGroups := binary.LittleEndian.Uint64(p)
	p = p[8:]

	inv := New(info)
	for i := uint64(0); i < numGroups; i++ {
		if err := need(keyBytes + 4); err != nil {
			return nil, err
		}
		key, err := decodeKey(p[:keyBytes])
		if err != nil {
			return nil, err
		}
		p = p[keyBytes:]
		bodyLen := int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		if err := need(bodyLen); err != nil {
			return nil, err
		}
		s, rest, err := DecodeCellSummary(p[:bodyLen])
		if err != nil {
			return nil, fmt.Errorf("inventory: group %d: %w", i, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("inventory: group %d: %d trailing bytes", i, len(rest))
		}
		p = p[bodyLen:]
		inv.Put(key, s)
	}
	if err := inv.Validate(); err != nil {
		return nil, err
	}
	return inv, nil
}

// Reader provides random access to an inventory file without loading the
// groups: Lookup binary-searches the on-disk index and reads one summary.
type Reader struct {
	f         *os.File
	info      BuildInfo
	numGroups int64
	indexOff  int64
}

// Open opens an inventory file for random access.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("inventory: open %s: %w", path, err)
	}
	r := &Reader{f: f}
	if err := r.readHeaderFooter(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

// Close releases the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Info returns the build provenance.
func (r *Reader) Info() BuildInfo { return r.info }

// NumGroups returns the total group count.
func (r *Reader) NumGroups() int64 { return r.numGroups }

func (r *Reader) readHeaderFooter() error {
	// Header.
	head := make([]byte, len(fileMagic)+4+4+8+8+8+4)
	if _, err := io.ReadFull(r.f, head); err != nil {
		return fmt.Errorf("inventory: header: %w", err)
	}
	if !bytes.Equal(head[:len(fileMagic)], fileMagic) {
		return fmt.Errorf("inventory: bad magic")
	}
	p := head[len(fileMagic):]
	if v := binary.LittleEndian.Uint32(p); v != fileVersion {
		return fmt.Errorf("inventory: unsupported version %d", v)
	}
	p = p[4:]
	r.info.Resolution = int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	r.info.RawRecords = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	r.info.UsedRecords = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	r.info.BuiltUnix = int64(binary.LittleEndian.Uint64(p))
	p = p[8:]
	descLen := int64(binary.LittleEndian.Uint32(p))
	desc := make([]byte, descLen)
	if _, err := io.ReadFull(r.f, desc); err != nil {
		return fmt.Errorf("inventory: description: %w", err)
	}
	r.info.Description = string(desc)
	var ng [8]byte
	if _, err := io.ReadFull(r.f, ng[:]); err != nil {
		return fmt.Errorf("inventory: group count: %w", err)
	}
	r.numGroups = int64(binary.LittleEndian.Uint64(ng[:]))

	// Footer.
	st, err := r.f.Stat()
	if err != nil {
		return err
	}
	footLen := int64(8 + len(footerMagic))
	if st.Size() < footLen {
		return fmt.Errorf("inventory: truncated file")
	}
	foot := make([]byte, footLen)
	if _, err := r.f.ReadAt(foot, st.Size()-footLen); err != nil {
		return fmt.Errorf("inventory: footer: %w", err)
	}
	if !bytes.Equal(foot[8:], footerMagic) {
		return fmt.Errorf("inventory: bad footer magic")
	}
	r.indexOff = int64(binary.LittleEndian.Uint64(foot[:8]))
	const idxEntry = keyBytes + 8
	if r.indexOff <= 0 || r.indexOff+r.numGroups*idxEntry+footLen != st.Size() {
		return fmt.Errorf("inventory: index geometry mismatch")
	}
	return nil
}

// Lookup reads the summary for one group identifier directly from disk,
// using binary search over the sorted index: O(log n) index probes plus one
// group read.
func (r *Reader) Lookup(key GroupKey) (*CellSummary, bool, error) {
	want := appendKey(nil, key)
	const idxEntry = keyBytes + 8
	lo, hi := int64(0), r.numGroups
	var ent [idxEntry]byte
	for lo < hi {
		mid := (lo + hi) / 2
		if _, err := r.f.ReadAt(ent[:], r.indexOff+mid*idxEntry); err != nil {
			return nil, false, fmt.Errorf("inventory: index read: %w", err)
		}
		switch bytes.Compare(ent[:keyBytes], want) {
		case -1:
			lo = mid + 1
		case 0:
			off := int64(binary.LittleEndian.Uint64(ent[keyBytes:]))
			return r.readGroupAt(off, want)
		default:
			hi = mid
		}
	}
	return nil, false, nil
}

func (r *Reader) readGroupAt(off int64, want []byte) (*CellSummary, bool, error) {
	var head [keyBytes + 4]byte
	if _, err := r.f.ReadAt(head[:], off); err != nil {
		return nil, false, fmt.Errorf("inventory: group read: %w", err)
	}
	if !bytes.Equal(head[:keyBytes], want) {
		return nil, false, fmt.Errorf("inventory: index points at wrong group")
	}
	bodyLen := int(binary.LittleEndian.Uint32(head[keyBytes:]))
	body := make([]byte, bodyLen)
	if _, err := r.f.ReadAt(body, off+keyBytes+4); err != nil {
		return nil, false, fmt.Errorf("inventory: group body: %w", err)
	}
	s, rest, err := DecodeCellSummary(body)
	if err != nil {
		return nil, false, err
	}
	if len(rest) != 0 {
		return nil, false, fmt.Errorf("inventory: group has %d trailing bytes", len(rest))
	}
	return s, true, nil
}
