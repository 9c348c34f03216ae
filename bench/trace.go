package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one harness-side interval around a call into a layer. Parent is
// the index of the span that caused it in the same tracer, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // Unix nanoseconds
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// start opens a span and returns its index; parent is -1 for a root.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanCostNs measures what opening and closing one span costs.
func spanCostNs() float64 {
	const n = 20000
	tr := &tracer{}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tr.end(tr.start("calibration", -1))
	}
	return float64(time.Since(t0)) / n
}

// selfTimes returns, per span name, the summed duration of its spans minus
// the part of each interval that its direct children cover, and the number
// of spans of that name. Children are clipped to the parent's interval and
// overlapping children are counted once.
func selfTimes(spans []span) (self map[string]time.Duration, count map[string]int) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]time.Duration)
	count = make(map[string]int)
	for i, s := range spans {
		covered := coveredBy(s, children[i])
		self[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	return self, count
}

// coveredBy returns how many nanoseconds of p's interval its children cover.
func coveredBy(p span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeTrace writes the spans of a run as one JSON document.
func writeTrace(path, workload string, parts map[string][]span) error {
	doc := struct {
		Workload string            `json:"workload"`
		Spans    map[string][]span `json:"spans"`
	}{workload, parts}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
