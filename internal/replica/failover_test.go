package replica

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/sim"
)

// promoteTargets builds fresh durability artifact paths for a promotion.
func promoteTargets(t *testing.T) PromoteOptions {
	t.Helper()
	dir := t.TempDir()
	return PromoteOptions{
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		WALSegmentBytes: 64 * 1024,
	}
}

// TestPromotionConvergence is the tentpole happy path: the primary dies,
// the replica is promoted, and the promoted node (a) equals the dead
// primary's inventory, (b) accepts new writes through a journal of its
// own, and (c) serves the full replication surface so a sibling replica
// re-bootstraps onto it and converges.
func TestPromotionConvergence(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	half := len(stream) / 2
	feed(t, eng, statics, stream[:half])
	waitCheckpoints(t, eng, 1)

	srv := httptest.NewServer(eng.ReplHandler())
	rep, err := New(testOptions(srv.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()

	for _, rec := range stream[half:] {
		if err := eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep, eng.WALSeq())
	requireEqual(t, eng, rep, "before failover")

	// The primary dies.
	srv.Close()

	po := promoteTargets(t)
	po.DrainTimeout = 500 * time.Millisecond
	res, err := rep.Promote(ctx, po)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if res.Term != 2 {
		t.Fatalf("promoted to term %d, want 2 (one past the primary's 1)", res.Term)
	}
	if res.LostFrom != 0 || res.LostTo != 0 {
		t.Fatalf("caught-up promotion reported a lost-seq window [%d, %d]", res.LostFrom, res.LostTo)
	}
	if err := <-done; !errors.Is(err, ErrPromoted) {
		t.Fatalf("Run returned %v, want ErrPromoted", err)
	}
	if !rep.Promoted() || rep.Engine().Term() != 2 {
		t.Fatalf("promoted state not reflected: promoted=%v term=%d", rep.Promoted(), rep.Engine().Term())
	}
	requireEqual(t, eng, rep, "after promotion")

	// The promoted engine is a writer now: new traffic lands in its own
	// journal under the new term.
	statics2, stream2 := fleetStream(t, sim.Config{Vessels: 3, Days: 12, Seed: 23})
	neweng := rep.Engine()
	feed(t, neweng, statics2, stream2)
	if err := neweng.Sync(); err != nil {
		t.Fatal(err)
	}
	if neweng.WALSeq() <= res.Seq {
		t.Fatalf("promoted journal did not advance: seq %d, promoted at %d", neweng.WALSeq(), res.Seq)
	}

	// A sibling replica bootstraps from the promoted node and converges.
	srv2 := httptest.NewServer(neweng.ReplHandler())
	defer srv2.Close()
	rep2, err := New(testOptions(srv2.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer rep2.Close()
	go func() { _ = rep2.Run(ctx) }()
	waitCaughtUp(t, rep2, neweng.WALSeq())
	requireEqual(t, neweng, rep2, "sibling on promoted primary")
}

// delegator is an httptest handler whose target can be installed after
// the server URL is known — the replica needs the sibling's URL at
// construction, and the sibling's engine only exists after construction.
func delegator() (*atomic.Pointer[http.Handler], http.Handler) {
	var p atomic.Pointer[http.Handler]
	return &p, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h := p.Load(); h != nil {
			(*h).ServeHTTP(w, r)
			return
		}
		http.Error(w, "not up yet", http.StatusServiceUnavailable)
	})
}

// TestRacingPromotionsSingleWinner races two promotions on siblings that
// know about each other and requires the safety property: once both
// claims have propagated, exactly one node still accepts writes; the
// other is fenced. Terms stay monotonic through the race and the winner
// preserves the primary's full inventory.
func TestRacingPromotionsSingleWinner(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	feed(t, eng, statics, stream)
	waitCheckpoints(t, eng, 1)
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(eng.ReplHandler())

	hA, dA := delegator()
	hB, dB := delegator()
	sideA, sideB := httptest.NewServer(dA), httptest.NewServer(dB)
	defer sideA.Close()
	defer sideB.Close()

	optA := testOptions(srv.URL + "," + sideB.URL)
	optA.NodeID = 0x0a
	optA.ProbeEvery = 50 * time.Millisecond
	repA, err := New(optA)
	if err != nil {
		t.Fatal(err)
	}
	defer repA.Close()
	optB := testOptions(srv.URL + "," + sideA.URL)
	optB.NodeID = 0x0b
	optB.ProbeEvery = 50 * time.Millisecond
	repB, err := New(optB)
	if err != nil {
		t.Fatal(err)
	}
	defer repB.Close()
	ha, hb := repA.Engine().ReplHandler(), repB.Engine().ReplHandler()
	hA.Store(&ha)
	hB.Store(&hb)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	doneA, doneB := make(chan error, 1), make(chan error, 1)
	go func() { doneA <- repA.Run(ctx) }()
	go func() { doneB <- repB.Run(ctx) }()
	waitCaughtUp(t, repA, eng.WALSeq())
	waitCaughtUp(t, repB, eng.WALSeq())

	// The primary dies; both siblings race to promote.
	srv.Close()
	type outcome struct {
		res PromoteResult
		err error
	}
	raceA, raceB := make(chan outcome, 1), make(chan outcome, 1)
	poA, poB := promoteTargets(t), promoteTargets(t)
	poA.DrainTimeout = 300 * time.Millisecond
	poB.DrainTimeout = 300 * time.Millisecond
	go func() {
		res, err := repA.Promote(ctx, poA)
		raceA <- outcome{res, err}
	}()
	go func() {
		res, err := repB.Promote(ctx, poB)
		raceB <- outcome{res, err}
	}()
	oA, oB := <-raceA, <-raceB
	t.Logf("race: A=(term %d, err %v)  B=(term %d, err %v)", oA.res.Term, oA.err, oB.res.Term, oB.err)
	if oA.err != nil && oB.err != nil {
		t.Fatalf("both promotions failed: %v / %v", oA.err, oB.err)
	}

	// Propagate both claims through the real replication surface (the
	// same exchange sibling probes and client traffic perform), then the
	// split-brain matrix must have collapsed to one writer.
	engA, engB := repA.Engine(), repB.Engine()
	cross := func(url string, term, node uint64) {
		req, _ := http.NewRequest(http.MethodGet, url+"/v1/repl/manifest", nil)
		ingest.SetTermHeader(req.Header, term, node)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	cross(sideA.URL, engB.Term(), engB.Node())
	cross(sideB.URL, engA.Term(), engA.Node())

	fencedA, fencedB := engA.Fenced(), engB.Fenced()
	if fencedA == fencedB {
		t.Fatalf("split brain not resolved: fencedA=%v fencedB=%v (A term %d node %x, B term %d node %x)",
			fencedA, fencedB, engA.Term(), engA.Node(), engB.Term(), engB.Node())
	}
	winner, loser := repA, repB
	if fencedA {
		winner, loser = repB, repA
	}
	if wt := winner.Engine().Term(); wt < 2 {
		t.Fatalf("winner's term %d did not advance past the primary's 1", wt)
	}
	if !ingest.TermBeats(winner.Engine().Term(), winner.Engine().Node(),
		loser.Engine().Term(), loser.Engine().Node()) {
		t.Fatalf("surviving claim (%d, %x) does not beat the fenced one (%d, %x)",
			winner.Engine().Term(), winner.Engine().Node(),
			loser.Engine().Term(), loser.Engine().Node())
	}
	// The loser's replication surface now refuses service.
	if s := loser.Engine().StatsSnapshot(); !s.Fenced {
		t.Fatalf("loser's stats not fenced: %+v", s)
	}
	// Nothing was lost in the race: the winner serves the primary's
	// complete inventory.
	requireEqual(t, eng, winner, "winner after racing promotions")
	cancel()
	<-doneA
	<-doneB
}

// followerUnderTest is one replica kind seen through what the failover
// rules are about: the shared core, one select-and-apply cycle, the run
// loop, and whether anything was installed.
type followerUnderTest struct {
	*follower
	cycle     func(context.Context) error
	run       func(context.Context) error
	installed func() bool
	view      func() inventory.View
	close     func() error
}

// followerKinds opens each replica kind against primary, keeping whatever
// survives a restart (the term file; the disk replica's segments) under
// state.
var followerKinds = []struct {
	name string
	open func(t *testing.T, primary, state string) followerUnderTest
}{
	{"heap", func(t *testing.T, primary, state string) followerUnderTest {
		opt := testOptions(primary)
		opt.TermPath = filepath.Join(state, "pol.term")
		rep, err := New(opt)
		if err != nil {
			t.Fatal(err)
		}
		return followerUnderTest{rep.follower, rep.bootstrap, rep.Run, rep.bootstrapped.Load, rep.Inventory, rep.Close}
	}},
	{"disk", func(t *testing.T, primary, state string) followerUnderTest {
		d, err := NewDisk(DiskOptions{Primary: primary, Resolution: testRes, Dir: state, PollEvery: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return followerUnderTest{d.follower, d.Sync, d.Run, func() bool { return d.Reader() != nil }, d.Inventory, d.Close}
	}},
}

// termPrimary builds a durable primary at (term, node) holding one
// fleet's worth of checkpointed traffic.
func termPrimary(t *testing.T, term, node uint64, fleet sim.Config) *ingest.Engine {
	t.Helper()
	statics, stream := fleetStream(t, fleet)
	dir := t.TempDir()
	e, err := ingest.NewEngine(ingest.Options{
		Resolution:      testRes,
		MergeEvery:      20 * time.Millisecond,
		JournalPath:     filepath.Join(dir, "wal"),
		CheckpointPath:  filepath.Join(dir, "live.polinv"),
		CheckpointEvery: 1,
		Term:            term,
		NodeID:          node,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	feed(t, e, statics, stream)
	waitCheckpoints(t, e, 1)
	return e
}

// stripTermHeaders forwards to inner with the request's term claim
// removed, so inner never fences itself: what is left is the client-side
// check. claim, when nonzero, also overwrites the term the manifest
// response advertises.
func stripTermHeaders(inner http.Handler, claim uint64, requests *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		r.Header.Del(ingest.HeaderTerm)
		r.Header.Del(ingest.HeaderNode)
		if claim == 0 || !strings.HasSuffix(r.URL.Path, "/manifest") {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		ingest.SetTermHeader(w.Header(), claim, 0xff)
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes())
	})
}

// TestStickyTermRejectsStalePrimary: a follower of either kind that has
// seen term 2 persists that high-water mark, and after a restart refuses
// to bootstrap or sync from a term-1 primary — the stale half of a
// partitioned pair can never quietly re-adopt its old followers.
func TestStickyTermRejectsStalePrimary(t *testing.T) {
	fleet := sim.Config{Vessels: 6, Days: 24, Seed: 11}
	for _, kind := range followerKinds {
		t.Run(kind.name, func(t *testing.T) {
			engStale, engNew := termPrimary(t, 1, 0x1, fleet), termPrimary(t, 2, 0x2, fleet)
			srvStale := httptest.NewServer(engStale.ReplHandler())
			defer srvStale.Close()
			srvNew := httptest.NewServer(engNew.ReplHandler())
			defer srvNew.Close()

			state := t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()

			// First life: follow the term-2 primary, learn its term.
			f1 := kind.open(t, srvNew.URL, state)
			if err := f1.cycle(ctx); err != nil {
				t.Fatal(err)
			}
			if hw := f1.hwTerm.Load(); hw != 2 {
				t.Fatalf("high-water after following term-2 primary: %d", hw)
			}
			f1.close()
			if term, _, err := readTermFile(filepath.Join(state, "pol.term")); err != nil || term != 2 {
				t.Fatalf("persisted mark: term %d, err %v", term, err)
			}

			// Second life, restarted against only the stale term-1 primary: the
			// persisted high-water mark survives, and its very first request
			// fences the stale primary — the server refuses to serve a follower
			// that has seen a later term.
			f2 := kind.open(t, srvStale.URL, state)
			defer f2.close()
			if hw := f2.hwTerm.Load(); hw != 2 {
				t.Fatalf("high-water mark did not survive restart: %d, want 2", hw)
			}
			if err := f2.cycle(ctx); err == nil {
				t.Fatal("cycle against a stale primary succeeded")
			}
			if f2.installed() {
				t.Fatal("follower installed from a primary it knows to be stale")
			}
			if f2.view() != nil && f2.view().Len() > 0 {
				t.Fatal("stale primary's data reached the serving snapshot")
			}
			if !engStale.Fenced() {
				t.Fatal("stale primary not fenced by the restarted follower's high-water mark")
			}
			if s := engStale.StatsSnapshot(); s.FencingRejects == 0 {
				t.Fatalf("stale primary's fencing rejects not counted: %+v", s)
			}

			// Belt-and-braces layer: against a primary that never fences (e.g. a
			// pre-epoch build behind a proxy that strips request headers), the
			// client-side check still rejects the low response term.
			engLegacy := termPrimary(t, 1, 0x3, fleet)
			var requests atomic.Int64
			strip := httptest.NewServer(stripTermHeaders(engLegacy.ReplHandler(), 0, &requests))
			defer strip.Close()
			f3 := kind.open(t, strip.URL, state)
			defer f3.close()
			if err := f3.cycle(ctx); !errors.Is(err, errStaleTerm) {
				t.Fatalf("client-side stale check returned %v, want errStaleTerm", err)
			}
			if f3.fencingRejects.Load() == 0 {
				t.Fatal("client-side fencing reject not counted")
			}

			// An endpoint that stays stale and cannot be fenced is retried at
			// the loop's wait cadence, never in a tight loop: every wait is
			// at least RetryBase/2 (heap) or PollEvery (disk).
			requests.Store(0)
			rctx, rcancel := context.WithTimeout(ctx, 300*time.Millisecond)
			t0 := time.Now()
			_ = f3.run(rctx)
			rcancel()
			bound := 2 + 2*int64(time.Since(t0)/testOptions("").RetryBase)
			if n := requests.Load(); n == 0 || n > bound {
				t.Fatalf("%d requests to an unfenceable stale endpoint in %s, want 1..%d", n, time.Since(t0), bound)
			}
			if f3.installed() {
				t.Fatal("follower installed from the stale endpoint while looping")
			}
		})
	}

	// The same check holds for a Range response: a proxy that lies about
	// the term on the manifest gets the disk follower past selection, and
	// the first block fetch gives the stale primary away.
	t.Run("disk-range-response", func(t *testing.T) {
		engLegacy := termPrimary(t, 1, 0x3, fleet)
		var requests atomic.Int64
		liar := httptest.NewServer(stripTermHeaders(engLegacy.ReplHandler(), 2, &requests))
		defer liar.Close()
		d, err := NewDisk(testDiskOptions(t, liar.URL))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		if err := d.Sync(context.Background()); !errors.Is(err, errStaleTerm) {
			t.Fatalf("sync through a stale Range response returned %v, want errStaleTerm", err)
		}
		if requests.Load() < 2 {
			t.Fatal("no Range request was made — vacuous test")
		}
		if st := d.StatusSnapshot(); d.Reader() != nil || st.FencingRejects == 0 || st.Term != 2 {
			t.Fatalf("stale Range response not rejected: %+v", st)
		}
	})
}

// TestDiskReplicaFollowsHigherTerm: a disk follower that knows two
// endpoints syncs from the only one up, and once the other appears with a
// higher term the next cycle installs that one's generation — whatever
// its number — and the status document names it.
func TestDiskReplicaFollowsHigherTerm(t *testing.T) {
	engOld := termPrimary(t, 1, 0x1, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	srvOld := httptest.NewServer(engOld.ReplHandler())
	defer srvOld.Close()
	hNew, dNew := delegator()
	srvNew := httptest.NewServer(dNew)
	defer srvNew.Close()

	d, err := NewDisk(testDiskOptions(t, srvOld.URL+","+srvNew.URL))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctx := context.Background()
	if err := d.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	st := d.StatusSnapshot()
	if st.Primary != srvOld.URL || st.Endpoints != 2 || st.Term != 1 || st.Generation == 0 {
		t.Fatalf("first sync did not follow the only endpoint up: %+v", st)
	}
	requireViewEqual(t, fetchInventoryForGen(t, srvOld.URL, st.Generation), d.Inventory(), "term-1 endpoint")

	// A different fleet, so serving the old bytes cannot pass for the new.
	engNew := termPrimary(t, 2, 0x2, sim.Config{Vessels: 5, Days: 24, Seed: 23})
	h := engNew.ReplHandler()
	hNew.Store(&h)
	if err := d.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	st = d.StatusSnapshot()
	if st.Primary != srvNew.URL || st.Term != 2 || st.Syncs != 2 {
		t.Fatalf("higher-term endpoint not followed: %+v", st)
	}
	requireViewEqual(t, fetchInventoryForGen(t, srvNew.URL, st.Generation), d.Inventory(), "term-2 endpoint")

	// The next cycle's probe carries the new mark to the old primary.
	if err := d.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if !engOld.Fenced() {
		t.Fatal("old primary not fenced by the follower's raised mark")
	}
}

// TestReplicaHonors429RetryAfter: a load-shedding primary's 429 with
// Retry-After must be honored as a pacing hint by both replica kinds —
// counted as throttling, not as a failure that reconnects, doubles the
// backoff or degrades readiness.
func TestReplicaHonors429RetryAfter(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	half := len(stream) / 2
	// shedding serves eng's repl surface, shedding the first two requests
	// whose path contains shed.
	shedding := func(t *testing.T, shed string) (*ingest.Engine, *httptest.Server) {
		eng := newPrimary(t)
		feed(t, eng, statics, stream[:half])
		waitCheckpoints(t, eng, 1)
		var throttles atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.Contains(r.URL.Path, shed) && throttles.Add(1) <= 2 {
				w.Header().Set("Retry-After", "1")
				http.Error(w, "shedding load", http.StatusTooManyRequests)
				return
			}
			eng.ReplHandler().ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return eng, srv
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	t.Run("heap", func(t *testing.T) {
		eng, srv := shedding(t, "/wal") // the first two WAL polls after bootstrap
		rep, err := New(testOptions(srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		defer rep.Close()
		go func() { _ = rep.Run(ctx) }()

		for _, rec := range stream[half:] {
			if err := eng.SubmitPosition(rec, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Sync(); err != nil {
			t.Fatal(err)
		}
		waitCaughtUp(t, rep, eng.WALSeq())
		requireEqual(t, eng, rep, "after throttling")

		st := rep.StatusSnapshot()
		if st.Throttled < 2 {
			t.Fatalf("throttled polls not counted: %+v", st)
		}
		if st.Reconnects != 0 {
			t.Fatalf("429 was treated as a connection failure (%d reconnects): %+v", st.Reconnects, st)
		}
	})

	t.Run("disk", func(t *testing.T) {
		_, srv := shedding(t, "/checkpoint/") // the first two Range fetches
		d, err := NewDisk(testDiskOptions(t, srv.URL))
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		t0 := time.Now()
		go func() { _ = d.Run(ctx) }()
		deadline := t0.Add(30 * time.Second)
		for d.Reader() == nil {
			if time.Now().After(deadline) {
				t.Fatalf("never installed past the throttling: %+v", d.StatusSnapshot())
			}
			if _, detail := d.ReadyDetail(); detail != "" && strings.Contains(detail, "degraded") {
				t.Fatalf("throttling degraded readiness: %q", detail)
			}
			time.Sleep(5 * time.Millisecond)
		}
		st := d.StatusSnapshot()
		if st.Throttled != 2 || st.SyncFailures != 0 || st.LastError != "" {
			t.Fatalf("429 was treated as a failed sync: %+v", st)
		}
		// Two Retry-After: 1 waits, not two 20 ms polls.
		if el := time.Since(t0); el < 2*time.Second {
			t.Fatalf("installed after %s: Retry-After was not waited out", el)
		}
		requireViewEqual(t, fetchInventoryForGen(t, srv.URL, st.Generation), d.Inventory(), "after throttling")
	})
}

// TestPromoteDrainFailpoint: with the drain failpoint injecting an
// error (the old primary is unreachable mid-drain), the promotion must
// still go through from last-applied and report the lost-seq window
// honestly.
func TestPromoteDrainFailpoint(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	half := len(stream) / 2
	feed(t, eng, statics, stream[:half])
	waitCheckpoints(t, eng, 1)
	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()

	faults := fault.NewSeeded(7)
	opt := testOptions(srv.URL)
	opt.Faults = faults
	rep, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := rep.bootstrap(ctx); err != nil {
		t.Fatal(err)
	}
	applied := rep.applied.Load()

	// The primary moves ahead; this replica will not see those records.
	for _, rec := range stream[half:] {
		if err := eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	tip := eng.WALSeq()
	rep.primarySeq.Store(tip)

	if err := faults.Enable(FPPromoteDrain, "error(connection reset)"); err != nil {
		t.Fatal(err)
	}
	res, err := rep.doPromote(ctx, promoteTargets(t))
	if err != nil {
		t.Fatalf("promotion must proceed despite a failed drain: %v", err)
	}
	if faults.Count(FPPromoteDrain) == 0 {
		t.Fatal("drain failpoint never fired — vacuous test")
	}
	if res.LostFrom != applied+1 || res.LostTo != tip {
		t.Fatalf("lost-seq window [%d, %d], want [%d, %d]", res.LostFrom, res.LostTo, applied+1, tip)
	}
	if !rep.Promoted() || rep.Engine().Term() != 2 {
		t.Fatalf("promotion state wrong: promoted=%v term=%d", rep.Promoted(), rep.Engine().Term())
	}
	// The promoted engine serves and accepts writes from last-applied.
	if err := rep.Engine().PublishNow(); err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot().Len() == 0 {
		t.Fatal("promoted engine serves an empty inventory")
	}
}

// TestPromoteCheckpointFailpointRecovery: the promotion's term-stamped
// checkpoint write fails once. The promotion must fail cleanly — the
// replica keeps tailing, un-promoted, with its high-water mark
// untouched — and a retry must succeed.
func TestPromoteCheckpointFailpointRecovery(t *testing.T) {
	statics, stream := fleetStream(t, sim.Config{Vessels: 6, Days: 24, Seed: 11})
	eng := newPrimary(t)
	half := len(stream) / 2
	feed(t, eng, statics, stream[:half])
	waitCheckpoints(t, eng, 1)
	srv := httptest.NewServer(eng.ReplHandler())
	defer srv.Close()

	faults := fault.NewSeeded(7)
	if err := faults.Enable(ingest.FPPromoteCheckpoint, "error(disk full)*1"); err != nil {
		t.Fatal(err)
	}
	opt := testOptions(srv.URL)
	opt.Faults = faults
	rep, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- rep.Run(ctx) }()
	waitCaughtUp(t, rep, eng.WALSeq())

	po := promoteTargets(t)
	po.DrainTimeout = 500 * time.Millisecond
	if _, err := rep.Promote(ctx, po); err == nil {
		t.Fatal("promotion succeeded through a failed checkpoint write")
	}
	if faults.Count(ingest.FPPromoteCheckpoint) == 0 {
		t.Fatal("checkpoint failpoint never fired — vacuous test")
	}
	if rep.Promoted() || rep.Engine().Term() != 0 || rep.Engine().Fenced() {
		t.Fatalf("failed promotion left state behind: promoted=%v term=%d fenced=%v",
			rep.Promoted(), rep.Engine().Term(), rep.Engine().Fenced())
	}
	if hw := rep.hwTerm.Load(); hw != 1 {
		t.Fatalf("failed promotion moved the high-water mark to %d", hw)
	}

	// Still tailing: new primary traffic keeps arriving.
	for _, rec := range stream[half:] {
		if err := eng.SubmitPosition(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, rep, eng.WALSeq())
	requireEqual(t, eng, rep, "tailing after failed promotion")

	// The failpoint was single-shot: the retry promotes cleanly.
	res, err := rep.Promote(ctx, po)
	if err != nil {
		t.Fatalf("promotion retry: %v", err)
	}
	if res.Term != 2 {
		t.Fatalf("retried promotion landed at term %d, want 2", res.Term)
	}
	if err := <-done; !errors.Is(err, ErrPromoted) {
		t.Fatalf("Run returned %v, want ErrPromoted", err)
	}
	requireEqual(t, eng, rep, "after retried promotion")
	if !inventory.Equal(eng.Snapshot(), rep.Snapshot()) {
		t.Fatal("promoted inventory diverged")
	}
}

// TestFailedPromoteLeavesApplierUnchanged: Engine.Promote promises that on
// error the engine is unchanged. With the applier mid-period that includes
// the fold — a promotion that folds and then fails at its checkpoint has
// folded at a boundary the primary it goes back to tailing never will, and
// the two never again agree bit-for-bit.
func TestFailedPromoteLeavesApplierUnchanged(t *testing.T) {
	faults := fault.NewSeeded(7)
	p := newMidPeriodPair(t, nil, faults)
	rep := p.rep

	if err := faults.Enable(ingest.FPPromoteCheckpoint, "error(disk full)*1"); err != nil {
		t.Fatal(err)
	}
	before, snapBefore, hwBefore := rep.Engine().StatsSnapshot(), rep.Snapshot(), rep.hwTerm.Load()
	po := promoteTargets(t)
	po.DrainTimeout = 500 * time.Millisecond
	if _, err := rep.Promote(p.ctx, po); err == nil {
		t.Fatal("promotion succeeded through a failed checkpoint write")
	}
	if faults.Count(ingest.FPPromoteCheckpoint) == 0 {
		t.Fatal("checkpoint failpoint never fired — vacuous test")
	}
	after := rep.Engine().StatsSnapshot()
	if after.Merges != before.Merges || after.Term != before.Term || after.JournalSeq != 0 ||
		rep.AppliedSeq() != p.eng.WALSeq() || rep.hwTerm.Load() != hwBefore || rep.Promoted() || after.Fenced {
		t.Fatalf("failed promotion changed the applier:\nbefore %+v\nafter  %+v", before, after)
	}
	if !inventory.Equal(snapBefore, rep.Snapshot()) {
		t.Fatal("failed promotion changed the applier's published snapshot")
	}

	p.finish(t, "tailing after failed promotion")

	// The failpoint was single-shot: the retry promotes cleanly.
	res, err := rep.Promote(p.ctx, po)
	if err != nil {
		t.Fatalf("promotion retry: %v", err)
	}
	if res.Term != 2 || !rep.Promoted() {
		t.Fatalf("retried promotion: term %d promoted=%v, want term 2", res.Term, rep.Promoted())
	}
	if err := <-p.done; !errors.Is(err, ErrPromoted) {
		t.Fatalf("Run returned %v, want ErrPromoted", err)
	}
	requireEqual(t, p.eng, rep, "after retried promotion")
}
