package inventory

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/patternsoflife/pol/internal/fault"
)

// writeBytes drives AtomicWrite the way every artifact writer does: stream
// content through the callback.
func writeBytes(path string, data []byte) error {
	return AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

func TestAtomicWriteFaultLeavesOldFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	before := bytes.Repeat([]byte("old generation "), 1000)
	next := bytes.Repeat([]byte("new generation "), 1200)
	if err := writeBytes(path, before); err != nil {
		t.Fatal(err)
	}

	for _, fp := range []string{FPWriteSync, FPWriteRename} {
		t.Run(fp, func(t *testing.T) {
			if err := fault.Default().Enable(fp, "error(disk gone)*1"); err != nil {
				t.Fatal(err)
			}
			defer fault.Default().Disable(fp)

			err := writeBytes(path, next)
			if err == nil {
				t.Fatal("write succeeded despite injected fault")
			}
			if !fault.IsInjected(err) {
				t.Fatalf("error lost injection marker: %v", err)
			}
			// Old artifact must be untouched and no temp debris left.
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, before) {
				t.Fatal("failed write mutated the existing artifact")
			}
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("temp file left behind: %v", err)
			}
		})
	}

	// A failing content callback aborts the same way.
	boom := errors.New("encoder failed")
	if err := AtomicWrite(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("callback error not returned: %v", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, before) {
		t.Fatal("failed callback mutated the existing artifact")
	}

	// With faults cleared the write goes through again.
	if err := writeBytes(path, next); err != nil {
		t.Fatal(err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, next) {
		t.Fatal("successful write did not replace the artifact")
	}
}

func TestChecksumFileMatchesStreamedCRC(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	data := bytes.Repeat([]byte("checkpoint bytes "), 4096)
	if err := writeBytes(path, data); err != nil {
		t.Fatal(err)
	}
	sum, size, err := ChecksumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)); sum != want || size != int64(len(data)) {
		t.Fatalf("ChecksumFile = (%08x, %d), want (%08x, %d)", sum, size, want, len(data))
	}
	// Any byte flip must change the checksum.
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	flipSum, _, err := ChecksumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if flipSum == sum {
		t.Fatal("checksum unchanged after byte flip")
	}
}
