// Command polfeed streams a recorded NMEA archive into a live daemon's
// feed port — the scripted replacement for `nc host:port < archive` in
// smoke tests and chaos drills, with extras netcat can't give us: it
// survives daemon restarts and failovers (reconnect with jittered
// backoff, resuming a little before where the last connection died), it
// can wait for the daemon to finish absorbing the archive (polling
// /v1/status until the counters stop moving), and it doubles as a
// minimal HTTP fetcher so end-to-end scripts need neither nc nor curl.
//
// Usage:
//
//	polfeed -addr localhost:10110 archive.nmea
//	polfeed -addr localhost:10110 -stats http://localhost:8080/v1/status archive.nmea
//	polfeed -addr primary:10110,replica:10110 -probe http://primary:8080,http://replica:8081 archive.nmea
//	polfeed -get http://localhost:8080/readyz
//
// Reconnects resume -rewind lines before the first unacknowledged line;
// the daemon's cleaner rejects the duplicated prefix deterministically
// (duplicate/out-of-order rejects never reach the journal), so over-
// sending is always safe and under-sending never is. With -probe, each
// (re)connection first asks every listed HTTP base for its replication
// term (X-Pol-Term on /v1/repl/manifest) and feeds the -addr entry at
// the same position as the highest-term responder — after a failover the
// feeder follows the promoted primary on its own.
//
// With -stats, after the archive has been written polfeed polls the
// status document until the groups/accepted/rejected counters are
// unchanged between consecutive polls (i.e. the daemon has drained its
// queue and merged), then prints the final document to stdout. When
// -stats lists several URLs (parallel to -addr), the one matching the
// endpoint that took the final line is polled.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/patternsoflife/pol/internal/ingest"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("polfeed: ")

	var (
		addr     = flag.String("addr", "localhost:10110", "daemon NMEA feed address, or a comma-separated list of candidates")
		statsURL = flag.String("stats", "", "poll this /v1/status URL until counters settle, then print it (comma list parallel to -addr)")
		probeURL = flag.String("probe", "", "comma-separated HTTP bases (parallel to -addr) probed for the highest replication term before each connection")
		getURL   = flag.String("get", "", "fetch this URL, print the body and exit (no feeding)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "overall deadline for connect, feed and settle")
		poll     = flag.Duration("poll", 200*time.Millisecond, "stats polling interval")
		rewind   = flag.Int("rewind", 256, "lines to re-send before the resume point after a reconnect")
		rate     = flag.Float64("rate", 0, "feed rate in lines/second (0 = as fast as the socket takes them)")
	)
	flag.Parse()

	if *getURL != "" {
		body, status, err := fetch(*getURL, *timeout)
		if err != nil {
			log.Fatal(err)
		}
		os.Stdout.Write(body)
		if status < 200 || status >= 300 {
			os.Exit(1)
		}
		return
	}

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 && flag.Arg(0) != "-" {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	lines, err := readLines(in)
	if err != nil {
		log.Fatal(err)
	}

	addrs := splitList(*addr)
	if len(addrs) == 0 {
		log.Fatal("-addr required")
	}
	statsURLs := splitList(*statsURL)
	probes := splitList(*probeURL)
	if len(probes) > 0 && len(probes) != len(addrs) {
		log.Fatalf("-probe lists %d bases for %d -addr entries; they must be parallel", len(probes), len(addrs))
	}

	deadline := time.Now().Add(*timeout)
	cur, sent := 0, 0
	delay := 250 * time.Millisecond
	for attempt := 0; sent < len(lines); attempt++ {
		if time.Now().After(deadline) {
			log.Fatalf("deadline: fed %d/%d lines", sent, len(lines))
		}
		if i, ok := probeBest(probes, 2*time.Second); ok {
			cur = i
		} else if attempt > 0 {
			// No term signal (no probes configured, or nobody answered
			// one): rotate blindly so a dead candidate can't pin us.
			cur = (cur + 1) % len(addrs)
		}
		start := sent - *rewind
		if start < 0 {
			start = 0
		}
		n, err := feed(addrs[cur], lines[start:], *rate, deadline)
		sent = start + n
		if err == nil {
			break
		}
		log.Printf("feed %s: %v after %d/%d lines; reconnecting", addrs[cur], err, sent, len(lines))
		d := delay/2 + time.Duration(rand.Int63n(int64(delay)))
		delay *= 2
		if delay > 5*time.Second {
			delay = 5 * time.Second
		}
		time.Sleep(d)
	}
	log.Printf("fed %d lines to %s", len(lines), addrs[cur])

	if len(statsURLs) == 0 {
		return
	}
	su := statsURLs[0]
	if len(statsURLs) > 1 {
		if len(statsURLs) != len(addrs) {
			log.Fatalf("-stats lists %d URLs for %d -addr entries; they must be parallel", len(statsURLs), len(addrs))
		}
		su = statsURLs[cur]
	}
	stats, err := settle(su, *poll, deadline)
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(stats)
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// readLines slurps the archive up front so reconnects can rewind to any
// line without re-reading (stdin is not seekable).
func readLines(in io.Reader) ([][]byte, error) {
	var lines [][]byte
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := make([]byte, 0, len(sc.Bytes())+1)
		line = append(line, sc.Bytes()...)
		lines = append(lines, append(line, '\n'))
	}
	return lines, sc.Err()
}

// probeBest asks every probe base for its replication term and returns
// the index of the highest-term 200 responder (false when none answer
// or no probes are configured).
func probeBest(probes []string, timeout time.Duration) (int, bool) {
	best, bestTerm, bestNode := -1, uint64(0), uint64(0)
	client := &http.Client{Timeout: timeout}
	for i, base := range probes {
		resp, err := client.Get(strings.TrimRight(base, "/") + "/v1/repl/manifest")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			continue
		}
		rt, rn := ingest.TermFromHeader(resp.Header)
		if best < 0 || ingest.TermBeats(rt, rn, bestTerm, bestNode) {
			best, bestTerm, bestNode = i, rt, rn
		}
	}
	return best, best >= 0
}

// feed writes lines over one connection, returning how many made it out.
// A nil error means every line was written and the connection closed
// cleanly; the caller resumes from the returned count otherwise.
func feed(addr string, lines [][]byte, rate float64, deadline time.Time) (int, error) {
	// Bound each connection attempt well under the overall deadline: the
	// outer reconnect loop re-probes and may pick a different candidate,
	// which a full-deadline dial against a dead one would starve.
	dialBy := time.Now().Add(3 * time.Second)
	if dialBy.After(deadline) {
		dialBy = deadline
	}
	conn, err := dialUntil(addr, dialBy)
	if err != nil {
		return 0, err
	}
	var interval time.Duration
	if rate > 0 {
		interval = time.Duration(float64(time.Second) / rate)
	}
	next := time.Now()
	w := bufio.NewWriter(conn)
	for i, line := range lines {
		if interval > 0 {
			if d := time.Until(next); d > 0 {
				// Paced feeds flush before sleeping so the daemon sees
				// lines at the configured rate, not in buffered bursts.
				if err := w.Flush(); err != nil {
					conn.Close()
					return i, err
				}
				time.Sleep(d)
			}
			next = next.Add(interval)
		}
		if _, err := w.Write(line); err != nil {
			conn.Close()
			return i, err
		}
	}
	if err := w.Flush(); err != nil {
		conn.Close()
		return len(lines), err
	}
	return len(lines), conn.Close()
}

// dialUntil retries the feed connection until the deadline so scripts
// can start polfeed immediately after the daemon without sleeping.
func dialUntil(addr string, deadline time.Time) (net.Conn, error) {
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// settle polls the status document until the daemon has demonstrably
// finished absorbing the feed: every feed connection has reached EOF,
// the submission queue is empty, and the ingestion counters are
// identical across three consecutive polls (so the final merge has
// landed). Counter stability alone is not enough — a long journal fsync
// can freeze every counter for hundreds of milliseconds mid-ingest and
// fake a settle.
func settle(url string, poll time.Duration, deadline time.Time) ([]byte, error) {
	var prev string
	stable := 0
	for {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("stats did not settle before deadline (%s)", url)
		}
		body, status, err := fetch(url, time.Until(deadline))
		if err != nil || status != http.StatusOK {
			time.Sleep(poll)
			continue
		}
		cur, drained, ok := counterKey(body)
		if ok && drained && cur == prev {
			if stable++; stable >= 2 {
				return body, nil
			}
		} else {
			stable = 0
		}
		prev = cur
		time.Sleep(poll)
	}
}

// counterKey reduces a status document to the counters that move while
// ingestion is still in flight (volatile fields like uptime are
// excluded so settle terminates) plus whether the daemon has drained:
// all feeds at EOF and nothing left in the submission queue. A document
// without an engine section has nothing to settle.
func counterKey(body []byte) (key string, drained, ok bool) {
	var s ingest.Status
	if err := json.Unmarshal(body, &s); err != nil || s.EngineSection == nil {
		return "", false, false
	}
	// Drained = every feed at EOF, nothing queued, and every emitted
	// observation folded into a published snapshot (a long merge can
	// freeze the counters for several polls while a trip is still
	// unpublished).
	drained = s.QueueDepth == 0 && s.Observations == s.MergedObservations
	for _, f := range s.Feeds {
		if !f.Closed {
			drained = false
		}
	}
	key = fmt.Sprintf("%d/%d/%d/%d/%d/%d",
		s.PositionsSeen, s.StaticsSeen, s.Accepted, s.Rejected, s.Groups, s.DegradedDropped)
	return key, drained, true
}

func fetch(url string, timeout time.Duration) ([]byte, int, error) {
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return body, resp.StatusCode, nil
}
