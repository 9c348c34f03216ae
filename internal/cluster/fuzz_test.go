package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/patternsoflife/pol/internal/model"
)

// Fuzz targets for the bytes a cluster process trusts from another one: a
// control frame (coordinator and worker both read them) and a shuffle
// frame (read, then opened: CRC, codec, record count). The committed
// corpora under testdata/fuzz come from the fixtures TestProtocolFrames
// and TestPeerFrameRoundTrip use (go test -run FuzzSeeds -update rewrites
// them).

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz seeds")

// fuzzCap is the frame cap the targets run with, so a length prefix the
// fuzzer finds cannot exhaust memory.
const fuzzCap = 1 << 20

// fuzzSeeds builds, per target, a valid input, a torn one and a
// bit-flipped one.
func fuzzSeeds(t testing.TB) map[string][][]byte {
	recs := []model.PositionRecord{{MMSI: 111, Time: 5}, {MMSI: 222, Time: 9}}
	var peer bytes.Buffer
	if _, err := writeFrame(&peer, sealTestFrame(t, 3, 1, 2, 0, true, 1, recs, map[uint32]model.VesselInfo{111: {MMSI: 111}})); err != nil {
		t.Fatal(err)
	}
	variants := func(valid []byte) [][]byte {
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)*2/3] ^= 0x40
		return [][]byte{valid, valid[:len(valid)-7], flipped}
	}
	return map[string][][]byte{
		"FuzzReadFrame": variants(taskFrame(t)),
		"FuzzPeerFrame": variants(peer.Bytes()),
	}
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated: every target has
// its three seeds on disk (their bytes may drift with the fixtures; the
// files are rewritten only with -update).
func TestFuzzSeedsCommitted(t *testing.T) {
	for target, seeds := range fuzzSeeds(t) {
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
				t.Errorf("%v (run go test ./internal/cluster -run FuzzSeeds -update)", err)
			}
		}
	}
}

// FuzzReadFrame: never panic, never take a frame past the cap, never claim
// more bytes than were there; a frame that decodes encodes again.
func FuzzReadFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		env, n, err := readFrame[envelope](bytes.NewReader(data), fuzzCap)
		if err != nil {
			return
		}
		if n > len(data) || n > fuzzCap+4 {
			t.Fatalf("read %d bytes of a %d-byte input under cap %d", n, len(data), fuzzCap)
		}
		if _, err := writeFrame(&bytes.Buffer{}, env); err != nil {
			t.Fatalf("decoded frame does not encode: %v", err)
		}
	})
}

// FuzzPeerFrame: the read + open path never panics, and a frame that opens
// holds exactly the records its (CRC-covered) header promises. Fixed point:
// the payload it opens to encodes to the bytes it was sent as, so a
// re-sealed frame carries the same payload and CRC and opens to it again.
func FuzzPeerFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pf, _, err := readFrame[peerFrame](bytes.NewReader(data), fuzzCap)
		if err != nil {
			return
		}
		p, err := pf.open()
		if err != nil {
			return
		}
		if len(p.Records) != pf.Records || pf.CRC != pf.digest() {
			t.Fatalf("opened frame: %d records, header says %d; CRC %08x, digest %08x",
				len(p.Records), pf.Records, pf.CRC, pf.digest())
		}
		if !bytes.Equal(appendPayload(nil, p), pf.Payload) {
			t.Fatal("decode → encode is not the identity on an accepted payload")
		}
		again := &peerFrame{TaskID: pf.TaskID, Section: pf.Section, Bucket: pf.Bucket, Seq: pf.Seq,
			Last: pf.Last, Frames: pf.Frames, Records: pf.Records, content: p}
		again.seal()
		q, err := again.open()
		if err != nil || again.CRC != pf.CRC || !bytes.Equal(again.Payload, pf.Payload) || !bytes.Equal(appendPayload(nil, q), pf.Payload) {
			t.Fatalf("re-sealed frame: %v, CRC %08x against %08x", err, again.CRC, pf.CRC)
		}
	})
}
