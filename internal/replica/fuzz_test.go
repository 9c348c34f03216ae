package replica

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// A replica trusts its POLTERM1 file across restarts: it is the fencing
// mark it persisted before acting on it. The committed corpus under
// testdata/fuzz holds a written file and damaged ones (go test -run
// FuzzSeeds -update rewrites it).

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz seeds")

func fuzzSeeds() map[string][][]byte {
	valid := []byte(termFile(7, 0xbeef))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)*2/3] ^= 0x40
	return map[string][][]byte{
		"FuzzTermFile": {valid, valid[:len(valid)-7], flipped, []byte(termFile(0, 0)),
			[]byte("POLTERM1\nterm 18446744073709551615 node 0x10\n"), []byte("POLTERM1\nterm -1 node 1\n")},
	}
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated: every target has
// its seeds on disk.
func TestFuzzSeedsCommitted(t *testing.T) {
	for target, seeds := range fuzzSeeds() {
		dir := filepath.Join("testdata", "fuzz", target)
		for i, seed := range seeds {
			path := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
			if *updateSeeds {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if _, err := os.Stat(path); err != nil {
				t.Errorf("%v (run go test ./internal/replica -run FuzzSeeds -update)", err)
			}
		}
	}
}

// FuzzTermFile: parsing never panics, and parse → write → parse is a fixed
// point: what parses writes a file that parses to the same mark and writes
// the same bytes again.
func FuzzTermFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		term, node, err := parseTermFile(data)
		if err != nil {
			return
		}
		written := termFile(term, node)
		t2, n2, err := parseTermFile([]byte(written))
		if err != nil || t2 != term || n2 != node || termFile(t2, n2) != written {
			t.Fatalf("%q → (%d, %x) → %q → (%d, %x, %v)", data, term, node, written, t2, n2, err)
		}
	})
}
