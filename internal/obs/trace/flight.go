package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// FlightDump is the JSON shape of one flight-recorder file: the
// last-K finished spans at the moment of an anomalous transition.
type FlightDump struct {
	Reason   string      `json:"reason"`
	Service  string      `json:"service"`
	UnixNano int64       `json:"unixNano"`
	Time     string      `json:"time"`
	Spans    []*SpanJSON `json:"spans"`
}

// RecordFlight dumps the last-K retained spans to a timestamped JSON
// file under the configured flight directory — the black-box record of
// what the process was doing when something anomalous happened (degraded
// transition, re-bootstrap, WAL corruption, watchdog anomaly). Dumps are
// rate-limited per reason so a flapping fault cannot fill the disk.
// Returns the written path; a nil tracer, unconfigured directory, or
// rate-limited call returns "" with a nil error.
func (t *Tracer) RecordFlight(reason string) (string, error) {
	if t == nil || t.opt.FlightDir == "" {
		return "", nil
	}
	now := time.Now()
	t.mu.Lock()
	if last, ok := t.flights[reason]; ok && now.Sub(last) < t.opt.FlightMinGap {
		t.mu.Unlock()
		return "", nil
	}
	t.flights[reason] = now
	t.mu.Unlock()

	spans := t.all()
	sort.Slice(spans, func(i, j int) bool { return spans[i].End.Before(spans[j].End) })
	if len(spans) > t.opt.FlightLast {
		spans = spans[len(spans)-t.opt.FlightLast:]
	}
	dump := FlightDump{
		Reason:   reason,
		Service:  t.Service(),
		UnixNano: now.UnixNano(),
		Time:     now.UTC().Format(time.RFC3339Nano),
		Spans:    make([]*SpanJSON, 0, len(spans)),
	}
	for _, s := range spans {
		dump.Spans = append(dump.Spans, t.spanJSON(s))
	}

	if err := os.MkdirAll(t.opt.FlightDir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("flight-%s-%s.json", now.UTC().Format("20060102T150405.000000000Z"), sanitizeReason(reason))
	path := filepath.Join(t.opt.FlightDir, name)
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// sanitizeReason maps a free-form reason to a filename-safe slug.
func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteRune('-')
		}
	}
	if b.Len() == 0 {
		return "anomaly"
	}
	return b.String()
}
