package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// loadResult is what one load phase measured.
type loadResult struct {
	elapsed   time.Duration
	attempted int
	failed    int
	firstErr  error
	latMs     []float64 // per completed request, in completion order
	lateUs    []float64 // open loop: dispatch time minus due time
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// add folds the per-connection results of a phase into r.
func (r *loadResult) add(conns []loadResult) {
	for _, c := range conns {
		r.attempted += c.attempted
		r.failed += c.failed
		if r.firstErr == nil {
			r.firstErr = c.firstErr
		}
		r.latMs = append(r.latMs, c.latMs...)
	}
}

// client sends the requests of one connection and checks the answers.
type client struct {
	base string
	hc   *http.Client
	// The serve workloads accept only 200. Beside a live ingest a cell may
	// not have traffic yet, so 404 is a correct answer there and bodies are
	// not compared.
	notFoundOK bool
	seen       int
	tr         *tracer
	phase      int
}

func newClient(addr string, notFoundOK bool, tr *tracer, phase int) *client {
	return &client{
		base: "http://" + addr,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   10 * time.Second,
		},
		notFoundOK: notFoundOK, tr: tr, phase: phase,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns an error if it failed, was refused or was
// answered wrongly. One body in bodyCheckOne is compared with the reference.
func (c *client) do(rq *request) error {
	sp := c.tr.start("http."+rq.route, c.phase)
	resp, err := c.hc.Get(c.base + rq.path)
	if err != nil {
		c.tr.end(sp)
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.end(sp)
	if err != nil {
		return err
	}
	c.seen++
	switch {
	case resp.StatusCode == http.StatusNotFound && c.notFoundOK:
		return nil
	case resp.StatusCode != http.StatusOK:
		return fmt.Errorf("%s: %s", rq.path, resp.Status)
	case c.notFoundOK || c.seen%bodyCheckOne != 0:
		return nil
	}
	if err := rq.check(body); err != nil {
		return fmt.Errorf("%s: %w (body %q)", rq.path, err, body)
	}
	return nil
}

// closedLoop runs n clients back to back for d: each sends its next request
// when the previous one completes.
func closedLoop(addr string, reqs []request, n int, d time.Duration, tr *tracer) loadResult {
	phase := tr.start("phase.closed", -1)
	results := make([]loadResult, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(addr, false, tr, phase)
			defer c.close()
			res := &results[w]
			for i := w; time.Now().Before(deadline); i += n {
				t0 := time.Now()
				res.attempted++
				if err := c.do(&reqs[i%len(reqs)]); err != nil {
					res.fail(err)
					continue
				}
				res.latMs = append(res.latMs, float64(time.Since(t0))/1e6)
			}
		}()
	}
	wg.Wait()
	tr.end(phase)
	total := loadResult{elapsed: time.Since(start)}
	total.add(results)
	return total
}

// job is one open-loop request with the time it was due.
type job struct {
	rq  *request
	due time.Time
}

// openLoop sends reqs at a fixed rate for d from one pacing goroutine over
// conns connections, regardless of how fast answers come back. A request's
// latency runs from when it was due, so the wait a stall imposes on later
// requests is counted. sleep is time.Sleep outside tests.
func openLoop(addr string, reqs []request, rate float64, d time.Duration, conns int, notFoundOK bool, tr *tracer, sleep func(time.Duration)) loadResult {
	phase := tr.start("phase.open", -1)
	n := int(rate * d.Seconds())
	// The queue holds the whole schedule, so the pacer never blocks on a
	// slow server: that is what makes the loop open.
	queue := make(chan job, n)
	results := make([]loadResult, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(addr, notFoundOK, tr, phase)
			defer c.close()
			res := &results[w]
			for j := range queue {
				res.attempted++
				if err := c.do(j.rq); err != nil {
					res.fail(err)
					continue
				}
				res.latMs = append(res.latMs, float64(time.Since(j.due))/1e6)
			}
		}()
	}
	start := time.Now()
	late := pace(start, rate, n, sleep, func(i int, due time.Time) {
		queue <- job{&reqs[i%len(reqs)], due}
	})
	close(queue)
	wg.Wait()
	tr.end(phase)
	total := loadResult{elapsed: time.Since(start), lateUs: late}
	total.add(results)
	return total
}

// pace calls emit(i, due) for i in [0,n) at the given rate, never before an
// item is due, and returns how late each call was in microseconds.
func pace(start time.Time, rate float64, n int, sleep func(time.Duration), emit func(i int, due time.Time)) []float64 {
	late := make([]float64, 0, n)
	gap := float64(time.Second) / rate
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * gap))
		if wait := time.Until(due); wait > 0 {
			sleep(wait)
		}
		late = append(late, float64(time.Since(due))/1e3)
		emit(i, due)
	}
	return late
}

// feedSender replays a live stream over one TCP connection.
type feedSender struct {
	conn net.Conn
	s    *liveStream
	log  sendLog
	next int // index of the next report to send
}

func dialFeed(addr string, s *liveStream) (*feedSender, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(s.head); err != nil {
		conn.Close()
		return nil, err
	}
	return &feedSender{conn: conn, s: s}, nil
}

// burst writes reports up to index end as fast as TCP backpressure allows,
// in chunks so the send log stays fine-grained.
func (f *feedSender) burst(end int) error {
	const chunk = 256
	var buf []byte
	for f.next < end {
		hi := min(f.next+chunk, end)
		buf = buf[:0]
		for _, l := range f.s.lines[f.next:hi] {
			buf = append(buf, l...)
		}
		if _, err := f.conn.Write(buf); err != nil {
			return err
		}
		f.next = hi
		f.log.add(hi, time.Now())
	}
	return nil
}

// paced writes reports up to index end at a fixed rate in one-millisecond
// chunks. The send log takes each chunk's due time, not its write time, so a
// stalled socket shows as staleness instead of hiding it. It returns the
// chunks' lateness in microseconds.
func (f *feedSender) paced(end int, rate float64) ([]float64, error) {
	per := max(1, int(rate/1000))
	chunks := (end - f.next + per - 1) / per
	var werr error
	var buf []byte
	late := pace(time.Now(), rate/float64(per), chunks, time.Sleep, func(_ int, due time.Time) {
		if werr != nil {
			return
		}
		hi := min(f.next+per, end)
		buf = buf[:0]
		for _, l := range f.s.lines[f.next:hi] {
			buf = append(buf, l...)
		}
		_, werr = f.conn.Write(buf)
		f.next = hi
		f.log.add(hi, due)
	})
	return late, werr
}

func (f *feedSender) close() error { return f.conn.Close() }
