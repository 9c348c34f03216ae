package dataflow

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/patternsoflife/pol/internal/obs"
)

// Metrics aggregates per-stage record counts, busy time and shuffle
// volume for a Context. All methods are safe for concurrent use.
type Metrics struct {
	mu          sync.Mutex
	stages      map[string]*StageMetrics
	order       []string
	shuffledRec int64
}

// StageMetrics is the record flow of one named stage.
type StageMetrics struct {
	Name       string
	RecordsIn  int64
	RecordsOut int64
	// Nanos is the stage's cumulative busy time across all partition
	// tasks — wall time spent inside this stage's own computation,
	// excluding its parents. Concurrent partitions each contribute, so
	// Nanos can exceed the job's wall-clock span.
	Nanos int64
}

// Duration returns the stage's cumulative busy time.
func (s StageMetrics) Duration() time.Duration { return time.Duration(s.Nanos) }

func newMetrics() *Metrics {
	return &Metrics{stages: make(map[string]*StageMetrics)}
}

// Record adds one task's record flow and busy time to a stage, creating
// the stage on first sight. Operators record their own stages; a caller
// that runs a step outside the graph (pipeline.Run's ordered merge of
// partials) records it here, so it appears beside them.
func (m *Metrics) Record(stage string, in, out int64, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.stages[stage]
	if !ok {
		s = &StageMetrics{Name: stage}
		m.stages[stage] = s
		m.order = append(m.order, stage)
	}
	s.RecordsIn += in
	s.RecordsOut += out
	s.Nanos += int64(d)
}

func (m *Metrics) addShuffle(records int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shuffledRec += records
}

// ShuffledRecords returns the total records moved through shuffles.
func (m *Metrics) ShuffledRecords() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.shuffledRec
}

// Stages returns copies of all stage metrics in first-seen order.
func (m *Metrics) Stages() []StageMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]StageMetrics, 0, len(m.order))
	for _, name := range m.order {
		out = append(out, *m.stages[name])
	}
	return out
}

// PublishTo records every stage's cumulative busy time into the shared
// pipeline stage-duration histogram family of reg — one observation per
// stage per call, meant to run once per completed job. A nil registry is
// a no-op.
func (m *Metrics) PublishTo(reg *obs.Registry) {
	if reg == nil {
		return
	}
	for _, s := range m.Stages() {
		obs.ObserveStage(reg, s.Name, s.Duration())
	}
}

// String renders a compact table of all stages, sorted by name for
// determinism.
func (m *Metrics) String() string {
	stages := m.Stages()
	sort.Slice(stages, func(i, j int) bool { return stages[i].Name < stages[j].Name })
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %12s %12s %12s\n", "stage", "in", "out", "busy")
	for _, s := range stages {
		fmt.Fprintf(&b, "%-40s %12d %12d %12s\n",
			s.Name, s.RecordsIn, s.RecordsOut, s.Duration().Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "shuffled records: %d\n", m.ShuffledRecords())
	return b.String()
}
