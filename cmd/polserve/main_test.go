package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/api"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/ports"
	"github.com/patternsoflife/pol/internal/replica"
	"github.com/patternsoflife/pol/internal/sim"
)

const res = 6

// node serves one daemon mode's routes the way main mounts them.
func node(t *testing.T, src api.Source, status func() ingest.Status, eng *ingest.Engine) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mountNode(mux, api.NewLiveServer(src, ports.Default()).Handler(), status, eng)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func fetch(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// keyPaths records, for every object key in v, the paths it appears at;
// array elements share their array's path.
func keyPaths(v any, path string, paths map[string]map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, x := range v {
			if paths[k] == nil {
				paths[k] = map[string]bool{}
			}
			paths[k][path] = true
			keyPaths(x, path+"."+k, paths)
		}
	case []any:
		for _, x := range v {
			keyPaths(x, path+"[]", paths)
		}
	}
}

// status reads a node's /v1/status and holds it to what every mode
// promises: it decodes into ingest.Status with no key the type lacks, no
// key repeats at any depth, the retired status routes answer 404, and
// /v1/info carries no status block.
func status(t *testing.T, base string) ingest.Status {
	t.Helper()
	code, body := fetch(t, base+"/v1/status")
	if code != http.StatusOK {
		t.Fatalf("/v1/status: %d %s", code, body)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var s ingest.Status
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("/v1/status does not decode into ingest.Status: %v\n%s", err, body)
	}
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	paths := map[string]map[string]bool{}
	keyPaths(doc, "", paths)
	for k, at := range paths {
		if len(at) > 1 {
			t.Errorf("key %q repeats at %v", k, at)
		}
	}
	for _, retired := range []string{"/v1/ingest/stats", "/v1/replica/status"} {
		if code, _ := fetch(t, base+retired); code != http.StatusNotFound {
			t.Errorf("%s answers %d, want 404", retired, code)
		}
	}
	code, body = fetch(t, base+"/v1/info")
	var info map[string]json.RawMessage
	if code != http.StatusOK || json.Unmarshal(body, &info) != nil {
		t.Fatalf("/v1/info: %d %s", code, body)
	}
	for _, block := range []string{"live", "wal", "replica"} {
		if _, ok := info[block]; ok {
			t.Errorf("/v1/info carries a %q block", block)
		}
	}
	return s
}

// TestStatusDocument serves /v1/status from every stateful mode — the
// primary, a heap replica before and after its bootstrap, a disk replica
// and the heap replica promoted — and checks each document's sections and
// the facts they report against the node itself.
func TestStatusDocument(t *testing.T) {
	s, err := sim.New(sim.Config{Vessels: 6, Days: 16, Seed: 3}, ports.Default())
	if err != nil {
		t.Fatal(err)
	}
	var stream []model.PositionRecord
	for i := range s.Fleet().Vessels {
		track, _ := s.VesselTrack(i)
		stream = append(stream, track...)
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].Time < stream[j].Time })

	// One merge, Finalize's, and so exactly one checkpoint generation
	// covering everything fed: the primary is quiescent from here on.
	dir := t.TempDir()
	eng, err := ingest.NewEngine(ingest.Options{
		Resolution:      res,
		MergeEvery:      time.Hour,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	for _, v := range s.Fleet().StaticIndex() {
		if err := eng.SubmitStatic(v, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range stream {
		if err := eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Finalize(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a checkpoint", func() bool { return eng.StatsSnapshot().Checkpoints > 0 })
	primary := node(t, eng, eng.StatsSnapshot, eng)

	rep, err := replica.New(replica.Options{
		Primary:    primary.URL,
		Resolution: res,
		MergeEvery: 20 * time.Millisecond,
		PollWait:   100 * time.Millisecond,
		RetryBase:  10 * time.Millisecond,
		RetryMax:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rep.Close() })
	heap := node(t, rep, rep.StatusSnapshot, rep.Engine())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)

	d, err := replica.NewDisk(replica.DiskOptions{Primary: primary.URL, Resolution: res, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	disk := node(t, d, d.StatusSnapshot, nil)

	gen, ckptSeq, walSeq := eng.WALStatus()
	groups := int64(eng.Snapshot().Len())
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T)
		base  string
		check func(t *testing.T, s ingest.Status)
	}{
		{"primary", nil, primary.URL, func(t *testing.T, s ingest.Status) {
			if s.State != "primary" || s.Term != 1 || s.EngineSection == nil || s.FollowerSection != nil {
				t.Fatalf("state %q term %d, engine %v, follower %v", s.State, s.Term, s.EngineSection != nil, s.FollowerSection != nil)
			}
			if s.Generation != gen || s.CkptSeq != ckptSeq || s.WALSeq != walSeq || s.Groups != groups || groups == 0 {
				t.Errorf("frontier %d/%d/%d over %d groups, engine says %d/%d/%d over %d",
					s.Generation, s.CkptSeq, s.WALSeq, s.Groups, gen, ckptSeq, walSeq, groups)
			}
			if s.PositionsSeen != int64(len(stream)) || s.Merges != 1 || s.Checkpoints != 1 || len(s.Feeds) != 0 {
				t.Errorf("counters: %d positions, %d checkpoints, %d feeds", s.PositionsSeen, s.Checkpoints, len(s.Feeds))
			}
			if s.Node != fmtNode(eng.Node()) || s.UptimeSeconds < 0 || s.SnapshotAgeSeconds < 0 || s.SnapshotAgeSeconds > 60 {
				t.Errorf("head: node %s, uptime %d s, snapshot age %d s", s.Node, s.UptimeSeconds, s.SnapshotAgeSeconds)
			}
		}},
		{"heap replica before bootstrap", nil, heap.URL, func(t *testing.T, s ingest.Status) {
			if s.State != "applier" || s.Term != 0 || s.EngineSection == nil || s.FollowerSection == nil {
				t.Fatalf("state %q term %d, engine %v, follower %v", s.State, s.Term, s.EngineSection != nil, s.FollowerSection != nil)
			}
			if s.Bootstrapped || s.AppliedSeq != 0 || s.Generation != 0 || s.Primary != primary.URL || s.Endpoints != 1 {
				t.Errorf("follower before bootstrap: %+v", *s.FollowerSection)
			}
		}},
		{"heap replica after bootstrap", func(t *testing.T) {
			go func() { done <- rep.Run(ctx) }()
			waitFor(t, "the heap replica to catch up", func() bool { return rep.AppliedSeq() >= walSeq })
		}, heap.URL, func(t *testing.T, s ingest.Status) {
			if s.State != "applier" || !s.Bootstrapped || s.Bootstraps != 1 || s.HWTerm != 1 || s.HWNode != fmtNode(eng.Node()) {
				t.Fatalf("state %q, follower %+v", s.State, *s.FollowerSection)
			}
			if s.AppliedSeq != walSeq || s.PrimarySeq != walSeq || s.LagSeq != 0 || s.WALSeq != walSeq {
				t.Errorf("applied %d, primary %d, lag %d, engine %d; primary's WAL at %d", s.AppliedSeq, s.PrimarySeq, s.LagSeq, s.WALSeq, walSeq)
			}
			if s.Generation == 0 || s.Generation > gen || s.Groups != groups {
				t.Errorf("installed generation %d with %d groups; primary at %d with %d", s.Generation, s.Groups, gen, groups)
			}
		}},
		{"disk replica", func(t *testing.T) {
			if err := d.Sync(ctx); err != nil {
				t.Fatal(err)
			}
		}, disk.URL, func(t *testing.T, s ingest.Status) {
			if s.State != "follower" || s.Term != 0 || s.Node != "" || s.EngineSection != nil || s.FollowerSection == nil {
				t.Fatalf("state %q term %d node %q, engine %v, follower %v", s.State, s.Term, s.Node, s.EngineSection != nil, s.FollowerSection != nil)
			}
			if s.Generation != gen || s.Groups != groups || s.Syncs != 1 || s.BlockFetches == 0 || s.HWTerm != 1 || s.Bootstrapped {
				t.Errorf("generation %d with %d groups (primary %d with %d), follower %+v", s.Generation, s.Groups, gen, groups, *s.FollowerSection)
			}
		}},
		{"promoted replica", func(t *testing.T) {
			pdir := t.TempDir()
			if _, err := rep.Promote(ctx, replica.PromoteOptions{
				JournalPath:    filepath.Join(pdir, "wal"),
				CheckpointPath: filepath.Join(pdir, "live.polinv"),
			}); err != nil {
				t.Fatal(err)
			}
			if err := <-done; !errors.Is(err, replica.ErrPromoted) {
				t.Fatalf("Run returned %v after the promotion", err)
			}
		}, heap.URL, func(t *testing.T, s ingest.Status) {
			if s.State != "primary" || s.Term != 2 || s.EngineSection == nil || s.FollowerSection == nil || s.HWTerm != 2 {
				t.Fatalf("state %q term %d high-water %d, engine %v", s.State, s.Term, s.HWTerm, s.EngineSection != nil)
			}
			if s.Node != fmtNode(rep.Engine().Node()) || s.WALSeq < walSeq || s.LagSeconds != 0 {
				t.Errorf("node %s, WAL at %d (primary's was %d), lag %v s", s.Node, s.WALSeq, walSeq, s.LagSeconds)
			}
		}},
	} {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			if tc.setup != nil {
				tc.setup(t)
			}
			tc.check(t, status(t, tc.base))
		})
	}
}

func fmtNode(n uint64) string { return fmt.Sprintf("%016x", n) }

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
