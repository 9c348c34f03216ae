package cluster

import (
	"bytes"
	"encoding/binary"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/feed"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/sim"
	"github.com/patternsoflife/pol/internal/testutil"
)

var (
	tracksOnce sync.Once
	tracks     []model.PositionRecord
	trackInfo  map[uint32]model.VesselInfo
)

// fleetTracks is every report and static of testFleet, in vessel order —
// real tracks, so encoded sizes are representative.
func fleetTracks(tb testing.TB) ([]model.PositionRecord, map[uint32]model.VesselInfo) {
	tb.Helper()
	tracksOnce.Do(func() {
		s, err := sim.New(testFleet, ports.Default())
		if err != nil {
			panic(err)
		}
		trackInfo = map[uint32]model.VesselInfo{}
		for i, v := range s.Fleet().Vessels {
			recs, _ := s.VesselTrack(i)
			tracks = append(tracks, recs...)
			trackInfo[v.MMSI] = v
		}
	})
	return tracks, trackInfo
}

// sealRaw stamps f with raw as its payload and a fresh CRC: a frame whose
// bytes the codec did not write.
func sealRaw(f *peerFrame, raw []byte) *peerFrame {
	f.Payload = raw
	f.CRC = f.digest()
	return f
}

// TestBucketFramesAreByteIdentical: re-executing a scan seals the same
// bytes — statics are written in MMSI order, whatever the map's order.
func TestBucketFramesAreByteIdentical(t *testing.T) {
	recs, info := fleetTracks(t)
	task := Task{ID: 4, Section: feed.Section{Index: 2}, Buckets: 1}
	seal := func() []*peerFrame {
		statics := map[uint32]model.VesselInfo{}
		for k, v := range info {
			statics[k] = v
		}
		frames := bucketFrames(task, 0, recs, statics)
		for _, f := range frames {
			f.seal()
		}
		return frames
	}
	a, b := seal(), seal()
	if len(a) != len(b) || len(a) < 2 {
		t.Fatalf("%d and %d frames", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i].Payload, b[i].Payload) || a[i].CRC != b[i].CRC {
			t.Fatalf("frame %d differs between two runs of the same task", i)
		}
	}
	if p, err := a[len(a)-1].open(); err != nil || len(p.Statics) != len(info) {
		t.Fatalf("last frame: %v, %d statics of %d", err, len(p.Statics), len(info))
	}
}

// TestPayloadRefusals: a payload of another codec version — version 1,
// fixed-width rows deflated, among them — is refused by name; unsorted
// statics, a class-A byte above 1, a non-canonical or truncated record log
// and a log holding other than the header's record count are refused
// too — each before any reduce sees it.
func TestPayloadRefusals(t *testing.T) {
	recs, info := fleetTracks(t)
	raw := appendPayload(nil, &peerPayload{Records: recs[:100], Statics: info})
	frame := func(raw []byte) *peerFrame {
		return sealRaw(&peerFrame{TaskID: 1, Bucket: 1, Records: 100}, raw)
	}
	refused := func(what string, f *peerFrame, want string) {
		t.Helper()
		if _, err := f.open(); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: %v, want %q", what, err, want)
		}
	}
	if _, err := frame(raw).open(); err != nil {
		t.Fatalf("valid payload: %v", err)
	}
	v1 := bytes.Clone(raw)
	v1[0] = 1
	refused("version 1", frame(v1), "shuffle payload version 1; coordinator and workers must run the same build")

	// The statics follow the count, in key order; the first key is the
	// smallest MMSI.
	unsorted := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(unsorted[5:], 0xffffffff)
	refused("unsorted statics", frame(unsorted), "out of order")
	// The first static's class-A byte: key, varints up to the design speed.
	first := appendPayload(nil, &peerPayload{Statics: map[uint32]model.VesselInfo{1: {MMSI: 1}}})
	flag := bytes.Clone(first)
	flag[len(flag)-3] = 2
	refused("class-A byte 2", sealRaw(&peerFrame{}, flag), "class-A byte above 1")
	refused("a record more than the header says", sealRaw(&peerFrame{TaskID: 1, Bucket: 1, Records: 99}, raw), "header says 99")
	refused("truncated log", frame(raw[:len(raw)-3]), "corrupt record log")
	refused("truncated static", sealRaw(&peerFrame{}, first[:len(first)-2]), "truncated")
	refused("truncated count", sealRaw(&peerFrame{}, first[:3]), "truncated")
}

// TestShufflePayloadCountersCountSocketFrames: the payload counters, both
// forms the same bytes, count exactly the frames sealed for a socket,
// once each — not the frames a worker delivers to its own buckets, which
// go into reassembly unsealed, and not a resend of a sealed frame.
func TestShufflePayloadCountersCountSocketFrames(t *testing.T) {
	recs, info := fleetTracks(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan *peerFrame, 64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					f, _, err := readFrame[peerFrame](conn, maxFrameBytes)
					if err != nil {
						return
					}
					got <- f
				}
			}()
		}
	}()

	sh := newTestShuffle(t, "self")
	sh.advertise = "self:1"
	sh.setRoster(&rosterMsg{Epoch: 1, Sections: 2, Resolution: testRes, Buckets: []BucketAssign{
		{Bucket: 0, Owner: "self", Addr: sh.advertise, TaskID: 10},
		{Bucket: 1, Owner: "peer", Addr: ln.Addr().String(), TaskID: 11},
	}})
	task := Task{ID: 3, Section: feed.Section{Index: 0}, Buckets: 2}
	var remote []*peerFrame
	for b := range 2 {
		frames := bucketFrames(task, b, recs[b*len(recs)/2:(b+1)*len(recs)/2], bucketStatics(info, b, 2))
		if b == 1 {
			remote = frames
		}
		for _, f := range frames {
			sh.emit(f)
		}
	}
	var raw, comp int64
	for range remote {
		select {
		case f := <-got:
			if _, err := f.open(); err != nil {
				t.Fatal(err)
			}
			raw, comp = raw+int64(len(f.Payload)), comp+int64(len(f.Payload))
		case <-time.After(10 * time.Second):
			t.Fatal("remote frames did not arrive")
		}
	}
	// A resend (what a reconnect or a reassignment does) ships the sealed
	// frames again without sealing or counting them again.
	sh.deliver(ln.Addr().String(), remote...)
	for range remote {
		<-got
	}
	m := sh.w.metrics
	if m.shuffleRawBytes.Value() != raw || m.shuffleCompBytes.Value() != comp || comp == 0 {
		t.Errorf("payload counters raw %d compressed %d, the remote frames carry %d and %d",
			m.shuffleRawBytes.Value(), m.shuffleCompBytes.Value(), raw, comp)
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if n := len(sh.contribs[0][0].payloads); n != sh.contribs[0][0].total || n == 0 {
		t.Errorf("own bucket: %d of %d frames in reassembly", n, sh.contribs[0][0].total)
	}
	for _, f := range sh.retained[0] {
		if f.Payload != nil {
			t.Error("a frame for the worker's own bucket was sealed")
		}
	}
}

// BenchmarkShuffleFrame reports ns and allocations per record for a full
// frame of fleet reports: sealed and opened (what crosses a socket), and
// delivered to the worker's own bucket (what does not).
func BenchmarkShuffleFrame(b *testing.B) {
	recs, _ := fleetTracks(b)
	recs = recs[:peerBatchRecords]
	perRecord := func(b *testing.B, run func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for range b.N {
			run()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N * len(recs))
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/record")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/record")
	}
	b.Run("seal+open", func(b *testing.B) {
		perRecord(b, func() {
			f := bucketFrames(Task{ID: 1}, 0, recs, nil)[0]
			f.seal()
			if _, err := f.open(); err != nil {
				b.Fatal(err)
			}
		})
	})
	b.Run("local", func(b *testing.B) {
		sh := newTestShuffle(b, "self")
		sh.advertise = "self:1"
		sh.setRoster(&rosterMsg{Epoch: 1, Sections: 2, Buckets: []BucketAssign{{Bucket: 0, Owner: "self", Addr: sh.advertise}}})
		perRecord(b, func() {
			sh.mu.Lock()
			clear(sh.contribs)
			clear(sh.retained)
			sh.mu.Unlock()
			for _, f := range bucketFrames(Task{ID: 1}, 0, recs, nil) {
				sh.emit(f)
			}
		})
	})
}

// TestSentResultReleasesRetainedRows: once a bucket's successful result has
// gone up, the worker drops its retained map outputs for that bucket (for
// its own buckets those are unsealed rows); a failed reduce, or a result
// that could not be sent, keeps them for a retry or a resend.
func TestSentResultReleasesRetainedRows(t *testing.T) {
	recs, _ := fleetTracks(t)
	sh := newTestShuffle(t, "self")
	for b := range 3 {
		sh.retained[b] = bucketFrames(Task{ID: 1}, b, recs[:10], nil)
		sh.contribs[b] = map[int]*contrib{}
	}
	sh.markResult(0, false, true)
	sh.markResult(1, false, false)
	sh.markResult(2, true, true)
	if _, ok := sh.retained[0]; ok {
		t.Error("bucket 0: result sent, retained rows kept")
	}
	if len(sh.retained[1]) == 0 || len(sh.retained[2]) == 0 {
		t.Error("an unsent or failed result released its retained rows")
	}
	if _, ok := sh.contribs[2]; !ok {
		t.Error("a failed reduce dropped its reassembled inputs")
	}
}

// TestRecordCodecAcrossBoundaries: the record set internal/ingest's test of
// the same name carries through the WAL, /v1/repl and checkpoint state
// goes through seal → socket framing → open here, and decodes to identical
// bits.
func TestRecordCodecAcrossBoundaries(t *testing.T) {
	want := testutil.CodecRecords()
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, sealTestFrame(t, 1, 0, 0, 0, true, 1, want, nil)); err != nil {
		t.Fatal(err)
	}
	f, _, err := readFrame[peerFrame](&buf, maxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.open()
	if err != nil {
		t.Fatal(err)
	}
	if diff := samePayload(got, &peerPayload{Records: want}); diff != "" {
		t.Fatal(diff)
	}
}
