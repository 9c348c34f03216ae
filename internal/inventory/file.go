package inventory

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/patternsoflife/pol/internal/fault"
)

// Durability helpers shared by every writer of a persisted artifact
// (segments, checkpoint state, manifests, term files). The package has no
// file format of its own: an inventory reaches a disk only as a POLSEG1
// segment (internal/segment).

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
	if err = SyncDir(path); err != nil {
		return fmt.Errorf("inventory: dir sync: %w", err)
	}
	return nil
}

// SyncDir fsyncs the directory containing path so a completed rename,
// creation or removal within it survives a crash.
func SyncDir(path string) error {
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

// ChecksumFile returns the CRC32C (Castagnoli) and length of a file's
// contents, for verifying a checkpoint against its manifest entry.
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
