package replica

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/patternsoflife/pol/internal/fault"
	"github.com/patternsoflife/pol/internal/ingest"
	"github.com/patternsoflife/pol/internal/inventory"
	"github.com/patternsoflife/pol/internal/obs"
	"github.com/patternsoflife/pol/internal/obs/trace"
)

// manifestTimeout bounds one manifest fetch. Selection asks every
// endpoint in turn, so a black-holed sibling may stall a cycle by at most
// this much.
const manifestTimeout = 5 * time.Second

// Control-flow sentinels the run loops classify.
var (
	errRebootstrap = errors.New("replica: re-bootstrap required")
	errTerminal    = errors.New("replica: terminal configuration error")
	errStaleTerm   = errors.New("replica: endpoint serves a stale term")
)

// throttledError carries a load-shedding primary's Retry-After hint. The
// run loops wait exactly the hinted duration instead of counting the
// response as a failure.
type throttledError struct{ after time.Duration }

func (t throttledError) Error() string {
	return fmt.Sprintf("replica: throttled by primary (retry after %s)", t.after)
}

// verdict is what a run loop does about a failed cycle.
type verdict int

const (
	transient   verdict = iota // connection trouble: wait, retry the same frontier
	terminal                   // configuration error: Run returns it
	throttled                  // primary shed the request: wait Retry-After
	stale                      // endpoint is below the term mark: select again
	rebootstrap                // local frontier unusable: start over from a generation
)

// classify is the one place an error becomes a verdict; the second value
// is the Retry-After hint of a throttled one.
func classify(err error) (verdict, time.Duration) {
	var te throttledError
	switch {
	case errors.Is(err, errTerminal):
		return terminal, 0
	case errors.As(err, &te):
		return throttled, te.after
	case errors.Is(err, errStaleTerm):
		return stale, 0
	case errors.Is(err, errRebootstrap):
		return rebootstrap, 0
	}
	return transient, 0
}

// followerConfig is what both replica kinds hand the core.
type followerConfig struct {
	primary    string // comma-separated candidate base URLs
	resolution int
	termPath   string // "" keeps the term mark in memory only
	tracer     *trace.Tracer
	faults     *fault.Registry
	retryBase  time.Duration
	retryMax   time.Duration
	logf       func(format string, args ...any)
}

// follower is the half of a replica that does not depend on what is
// replicated: which endpoint is the primary, the highest (term, node)
// claim ever seen and its POLTERM1 file, every HTTP request to the
// /v1/repl surface, the retry policy, and the counters and status fields
// that describe all of it. Replica adds WAL-tail apply and promotion,
// DiskReplica adds segment delta-assembly; both embed a follower and
// neither builds a request of its own.
//
// The rules, stated once:
//
//   - selection: ask every endpoint for its manifest, follow the one
//     advertising the highest (term, node) claim;
//   - mark: the highest claim seen is persisted before it takes effect
//     and sent on every request, so a demoted primary is fenced by the
//     first request that reaches it;
//   - response check: every successful response, whole or Range, whose
//     claim is below the mark is rejected (errStaleTerm) and counted —
//     the endpoint is never selected, synced from or tailed (a response
//     with no claim at all has nothing to compare);
//   - throttle: a 429 is not a failure; the loop waits Retry-After;
//   - backoff: every other failure waits one jittered exponential step.
type follower struct {
	cfg       followerConfig
	client    http.Client // no global timeout: every request carries its own deadline
	endpoints []string
	cur       atomic.Int64 // index into endpoints currently followed

	// hwMu serializes raise-and-persist of the term mark; reads are
	// lock-free.
	hwMu   sync.Mutex
	hwTerm atomic.Uint64
	hwNode atomic.Uint64

	wake  chan struct{} // interrupts waits
	delay time.Duration // next backoff step; touched by Run's goroutine only

	generation     atomic.Uint64 // checkpoint generation installed
	crcRejects     atomic.Int64
	fencingRejects atomic.Int64 // stale-term responses rejected client-side
	throttled      atomic.Int64
	lastErr        atomic.Pointer[string]
}

func newFollower(cfg followerConfig) (*follower, error) {
	if cfg.faults == nil {
		cfg.faults = fault.Default()
	}
	cfg.retryBase = cmp.Or(max(cfg.retryBase, 0), 250*time.Millisecond)
	cfg.retryMax = cmp.Or(max(cfg.retryMax, 0), 10*time.Second)
	f := &follower{cfg: cfg, wake: make(chan struct{}, 1), delay: cfg.retryBase}
	for _, ep := range strings.Split(cfg.primary, ",") {
		ep = strings.TrimRight(strings.TrimSpace(ep), "/")
		if ep == "" {
			continue
		}
		if _, err := url.Parse(ep); err != nil {
			return nil, fmt.Errorf("replica: bad primary URL %q: %w", ep, err)
		}
		f.endpoints = append(f.endpoints, ep)
	}
	if len(f.endpoints) == 0 {
		return nil, fmt.Errorf("replica: primary URL required")
	}
	if cfg.termPath != "" {
		term, node, err := readTermFile(cfg.termPath)
		if err != nil {
			return nil, err
		}
		f.hwTerm.Store(term)
		f.hwNode.Store(node)
	}
	return f, nil
}

// registerMetrics exports the shared counters as <prefix>_*.
func (f *follower) registerMetrics(reg *obs.Registry, prefix string) {
	counter := func(name string, v *atomic.Int64) {
		reg.CounterFunc(prefix+name, nil, func() float64 { return float64(v.Load()) })
	}
	counter("_crc_rejects_total", &f.crcRejects)
	counter("_fencing_rejects_total", &f.fencingRejects)
	counter("_throttled_total", &f.throttled)
	reg.GaugeFunc(prefix+"_term", nil, func() float64 { return float64(f.hwTerm.Load()) })
}

// endpoint returns the base URL currently followed.
func (f *follower) endpoint() string { return f.endpoints[f.cur.Load()] }

func (f *follower) logf(format string, args ...any) {
	if f.cfg.logf != nil {
		f.cfg.logf(format, args...)
	}
}

// readTermFile loads a persisted term high-water mark. A missing file is
// (0, 0): no term observed yet.
func readTermFile(path string) (term, node uint64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("replica: term file: %w", err)
	}
	if _, err := fmt.Sscanf(string(data), "POLTERM1\nterm %d node %x", &term, &node); err != nil {
		return 0, 0, fmt.Errorf("replica: term file %s: malformed: %w", path, err)
	}
	return term, node, nil
}

// raiseHW lifts the term high-water mark to (term, node) if it beats the
// current one, persisting the new mark before it takes effect for
// callers. Safe for concurrent use.
func (f *follower) raiseHW(term, node uint64) error {
	f.hwMu.Lock()
	defer f.hwMu.Unlock()
	if !ingest.TermBeats(term, node, f.hwTerm.Load(), f.hwNode.Load()) {
		return nil
	}
	if f.cfg.termPath != "" {
		err := inventory.AtomicWrite(f.cfg.termPath, func(w io.Writer) error {
			_, werr := fmt.Fprintf(w, "POLTERM1\nterm %d node %016x\n", term, node)
			return werr
		})
		if err != nil {
			return fmt.Errorf("replica: persist term high-water: %w", err)
		}
	}
	f.hwTerm.Store(term)
	f.hwNode.Store(node)
	return nil
}

// get performs one GET with a per-request deadline and returns the body,
// status and response headers; byteRange, when not empty, is sent as the
// Range header. It is the only place a replication request is built:
// every request carries the term mark (so a stale primary we talk to
// learns it has been demoted) and a traceparent; every 200/206 response
// is held against the mark. A 429 comes back as throttledError, any
// other status as an error alongside the status and headers so callers
// can branch on 404/410.
func (f *follower) get(ctx context.Context, u string, timeout time.Duration, byteRange string) ([]byte, int, http.Header, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, 0, nil, err
	}
	if byteRange != "" {
		req.Header.Set("Range", byteRange)
	}
	ingest.SetTermHeader(req.Header, f.hwTerm.Load(), f.hwNode.Load())
	// Child of the ambient bootstrap/poll/sync span (fresh root when there
	// is none); the injected traceparent carries its context to the primary.
	s := f.cfg.tracer.StartChild(trace.FromContext(ctx), "replica.fetch")
	s.SetAttr("url", u)
	trace.Inject(req, s)
	defer s.Finish()
	resp, err := f.client.Do(req)
	if err != nil {
		s.SetError(err)
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	s.SetAttr("status", strconv.Itoa(resp.StatusCode))
	// One buffer sized from the (capped) Content-Length the replication
	// surface sends: io.ReadAll would grow and copy its way to megabytes.
	buf := bytes.NewBuffer(make([]byte, 0, min(max(resp.ContentLength, 0), 64<<20)+bytes.MinRead))
	_, err = buf.ReadFrom(resp.Body)
	body := buf.Bytes()
	switch {
	case err != nil:
	case resp.StatusCode == http.StatusTooManyRequests:
		after := time.Second
		if v, perr := strconv.Atoi(strings.TrimSpace(resp.Header.Get("Retry-After"))); perr == nil && v > 0 {
			after = time.Duration(v) * time.Second
		}
		err = throttledError{after: after}
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent:
		err = fmt.Errorf("replica: GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	default:
		err = f.checkTerm(resp.Header)
	}
	if err != nil {
		s.SetError(err)
		return nil, resp.StatusCode, resp.Header, err
	}
	return body, resp.StatusCode, resp.Header, nil
}

// checkTerm holds one response's term claim against the mark: below it
// the response comes from a stale (demoted) primary and is rejected;
// above it the mark rises. A response with no claim at all (a pre-term
// primary) has nothing to compare.
func (f *follower) checkTerm(h http.Header) error {
	rt, rn := ingest.TermFromHeader(h)
	if rt == 0 {
		return nil
	}
	if ingest.TermBeats(f.hwTerm.Load(), f.hwNode.Load(), rt, rn) {
		f.fencingRejects.Add(1)
		return fmt.Errorf("%w: response term %d below high-water %d", errStaleTerm, rt, f.hwTerm.Load())
	}
	return f.raiseHW(rt, rn)
}

// manifest fetches one endpoint's manifest and the term claim it came
// with. Generations retained from before segments existed are dropped:
// neither kind of replica can install one.
func (f *follower) manifest(ctx context.Context, ep string) (man ingest.ReplManifest, term, node uint64, err error) {
	if err := f.cfg.faults.Hit(FPFetchManifest); err != nil {
		return man, 0, 0, err
	}
	body, _, hdr, err := f.get(ctx, ep+"/v1/repl/manifest", manifestTimeout, "")
	if err != nil {
		return man, 0, 0, err
	}
	if err := json.Unmarshal(body, &man); err != nil {
		return man, 0, 0, fmt.Errorf("replica: manifest decode: %w", err)
	}
	man.Generations = slices.DeleteFunc(man.Generations, func(g ingest.ReplGenInfo) bool { return g.Seg == "" })
	term, node = ingest.TermFromHeader(hdr)
	return man, term, node, nil
}

// selectEndpoint asks every endpoint for its manifest, follows the one
// with the highest (term, node) claim and returns that manifest, which
// lists at least one generation. get has already rejected endpoints below
// the mark and raised the mark to the best claim seen. With nothing to
// follow, cur stays where it was and the first endpoint's error says why.
func (f *follower) selectEndpoint(ctx context.Context) (ingest.ReplManifest, error) {
	var (
		bestMan            ingest.ReplManifest
		best               = -1
		bestTerm, bestNode uint64
		firstErr           error
	)
	for i, ep := range f.endpoints {
		man, rt, rn, err := f.manifest(ctx, ep)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if best < 0 || ingest.TermBeats(rt, rn, bestTerm, bestNode) {
			best, bestTerm, bestNode, bestMan = i, rt, rn, man
		}
	}
	if best < 0 {
		return bestMan, firstErr
	}
	if prev := f.cur.Swap(int64(best)); prev != int64(best) {
		f.logf("replica: switching endpoint %s -> %s (term %d)", f.endpoints[prev], f.endpoints[best], bestTerm)
	}
	if bestMan.Resolution != f.cfg.resolution {
		return bestMan, fmt.Errorf("%w: primary resolution %d != replica resolution %d",
			errTerminal, bestMan.Resolution, f.cfg.resolution)
	}
	if len(bestMan.Generations) == 0 {
		return bestMan, fmt.Errorf("replica: primary has no checkpoint generation yet")
	}
	return bestMan, nil
}

// succeeded notes a cycle that worked: the backoff starts over and the
// status document's last_error clears.
func (f *follower) succeeded() {
	f.delay = f.cfg.retryBase
	f.lastErr.Store(nil)
}

// failed folds a failed cycle into the shared counters and last_error,
// and returns its verdict. Being throttled is not an error worth
// reporting: it counts, and last_error stays.
func (f *follower) failed(err error) (verdict, time.Duration) {
	v, after := classify(err)
	if v == throttled {
		f.throttled.Add(1)
	} else {
		s := err.Error()
		f.lastErr.Store(&s)
	}
	return v, after
}

// backoff waits one jittered step (±50%) and doubles the next one up to
// retryMax. False means the context ended first.
func (f *follower) backoff(ctx context.Context) bool {
	d := f.delay/2 + time.Duration(rand.Int63n(int64(f.delay)))
	f.delay = min(f.delay*2, f.cfg.retryMax)
	return f.pause(ctx, d)
}

// pause waits d, or less if the follower is woken. False means the
// context ended first.
func (f *follower) pause(ctx context.Context, d time.Duration) bool {
	select {
	case <-time.After(d):
	case <-f.wake:
	case <-ctx.Done():
		return false
	}
	return true
}

// FollowerStatus is the head Status and DiskStatus share: which endpoint
// is followed and what the failover rules have counted.
type FollowerStatus struct {
	Primary        string `json:"primary"`
	Endpoints      int    `json:"endpoints"`
	Term           uint64 `json:"term"`
	Node           string `json:"node"`
	Generation     uint64 `json:"generation"`
	CRCRejects     int64  `json:"crc_rejects"`
	FencingRejects int64  `json:"fencing_rejects"`
	Throttled      int64  `json:"throttled"`
	LastError      string `json:"last_error,omitempty"`
}

func (f *follower) status() FollowerStatus {
	s := FollowerStatus{
		Primary:        f.endpoint(),
		Endpoints:      len(f.endpoints),
		Term:           f.hwTerm.Load(),
		Node:           fmt.Sprintf("%016x", f.hwNode.Load()),
		Generation:     f.generation.Load(),
		CRCRejects:     f.crcRejects.Load(),
		FencingRejects: f.fencingRejects.Load(),
		Throttled:      f.throttled.Load(),
	}
	if p := f.lastErr.Load(); p != nil {
		s.LastError = *p
	}
	return s
}

// serveJSON writes v as an indented JSON document.
func serveJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// statusHandler serves whatever snapshot returns as /v1/replica/status.
func statusHandler[S any](snapshot func() S) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { serveJSON(w, snapshot()) })
}
