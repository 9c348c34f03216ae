package obs

import (
	"encoding/json"
	"log/slog"
	"math"
	"net/http"
	"sync"
	"time"

	"github.com/patternsoflife/pol/internal/stats"
)

// Watchdog metric names.
const (
	MetricWatchdogZScore    = "pol_watchdog_zscore"
	MetricWatchdogAnomaly   = "pol_watchdog_anomaly"
	MetricWatchdogMean      = "pol_watchdog_baseline_mean"
	MetricWatchdogStddev    = "pol_watchdog_baseline_stddev"
	MetricWatchdogValue     = "pol_watchdog_value"
	MetricWatchdogAnomalies = "pol_watchdog_anomalies_total"
)

// Anomaly is one detected threshold crossing: a sampled value whose
// z-score against the series' rolling baseline exceeded the threshold.
type Anomaly struct {
	Series string  `json:"series"`
	Value  float64 `json:"value"`
	Mean   float64 `json:"mean"`
	Stddev float64 `json:"stddev"`
	ZScore float64 `json:"zscore"`
	Unix   int64   `json:"unix"`
}

// WatchdogOptions configures the ops anomaly watchdog.
type WatchdogOptions struct {
	// Interval between samples when running via Start (default 10s).
	Interval time.Duration
	// Window is how many samples form the rolling baseline (default 60).
	Window int
	// MinSamples before anomaly detection engages (default 12).
	MinSamples int
	// ZThreshold is the |z-score| that flags an anomaly (default 3).
	ZThreshold float64
	// Logger receives a warning per detected anomaly when non-nil.
	Logger *slog.Logger
	// OnAnomaly, when non-nil, is called (outside the watchdog lock) for
	// every detected anomaly — the flight-recorder trigger: daemons wire
	// it to trace.Tracer.RecordFlight so an anomalous signal dumps the
	// recent span history for post-mortem analysis.
	OnAnomaly func(Anomaly)
}

// maxAnomalies bounds the retained anomaly history.
const maxAnomalies = 128

func (o WatchdogOptions) withDefaults() WatchdogOptions {
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	if o.Window <= 0 {
		o.Window = 60
	}
	if o.MinSamples <= 0 {
		o.MinSamples = 12
	}
	if o.ZThreshold <= 0 {
		o.ZThreshold = 3
	}
	return o
}

// wdSeries is one watched signal and its rolling baseline.
type wdSeries struct {
	name       string
	cumulative bool
	sample     func() float64

	prev    float64
	prevSet bool
	ring    []float64 // most recent opt.Window values, oldest first

	zGauge, flagGauge, meanGauge, stdGauge, valGauge *Gauge
}

// Watchdog maintains rolling mean/stddev baselines over operational
// signals (ingestion accept rate, reject rate, merge latency, ...) and
// flags samples whose z-score against the baseline crosses a threshold.
// Crossings are surfaced three ways: as registry gauges (per-series
// z-score and 0/1 anomaly flag), as slog warnings, and as a JSON history
// at the /v1/ops/anomalies endpoint.
//
// Cumulative series (monotone counters) are differentiated into per-second
// rates before baselining; value series (latencies, queue depths) are
// baselined directly.
type Watchdog struct {
	reg *Registry
	opt WatchdogOptions

	mu        sync.Mutex
	series    []*wdSeries
	anomalies []Anomaly
	lastStep  time.Time

	total *Counter

	startOnce sync.Once
	stopOnce  sync.Once
	quit      chan struct{}
	done      chan struct{}
}

// NewWatchdog builds a watchdog recording into reg.
func NewWatchdog(reg *Registry, opt WatchdogOptions) *Watchdog {
	opt = opt.withDefaults()
	return &Watchdog{
		reg:   reg,
		opt:   opt,
		total: reg.Counter(MetricWatchdogAnomalies, nil),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// WatchRate registers a cumulative counter; the watchdog baselines its
// per-second rate of change.
func (w *Watchdog) WatchRate(name string, sample func() float64) {
	w.watch(name, true, sample)
}

// WatchValue registers a directly-baselined signal (a latency, a depth).
func (w *Watchdog) WatchValue(name string, sample func() float64) {
	w.watch(name, false, sample)
}

func (w *Watchdog) watch(name string, cumulative bool, sample func() float64) {
	lb := Labels{"series": name}
	s := &wdSeries{
		name:       name,
		cumulative: cumulative,
		sample:     sample,
		zGauge:     w.reg.Gauge(MetricWatchdogZScore, lb),
		flagGauge:  w.reg.Gauge(MetricWatchdogAnomaly, lb),
		meanGauge:  w.reg.Gauge(MetricWatchdogMean, lb),
		stdGauge:   w.reg.Gauge(MetricWatchdogStddev, lb),
		valGauge:   w.reg.Gauge(MetricWatchdogValue, lb),
	}
	w.mu.Lock()
	w.series = append(w.series, s)
	w.mu.Unlock()
}

// Step takes one sample round at the given time. Exported so tests (and
// callers with their own schedulers) can drive the watchdog with a
// scripted clock; Start calls it on a ticker.
func (w *Watchdog) Step(now time.Time) {
	var fired []Anomaly
	defer func() {
		if w.opt.OnAnomaly != nil {
			for _, a := range fired {
				w.opt.OnAnomaly(a)
			}
		}
	}()
	w.mu.Lock()
	defer w.mu.Unlock()
	dt := now.Sub(w.lastStep)
	first := w.lastStep.IsZero()
	w.lastStep = now
	for _, s := range w.series {
		raw := s.sample()
		var value float64
		if s.cumulative {
			if !s.prevSet || first || dt <= 0 {
				s.prev, s.prevSet = raw, true
				continue
			}
			value = (raw - s.prev) / dt.Seconds()
			s.prev = raw
		} else {
			value = raw
		}
		if math.IsNaN(value) {
			continue
		}
		s.valGauge.Set(value)

		// Baseline over the current window, before admitting the new
		// sample, so a spike is judged against history that excludes it.
		var base stats.Welford
		for _, v := range s.ring {
			base.Add(v)
		}
		mean, std := base.Mean(), base.Std()
		if base.Weight() > 0 {
			s.meanGauge.Set(mean)
			s.stdGauge.Set(std)
		}
		if len(s.ring) >= w.opt.MinSamples && std > 0 {
			z := (value - mean) / std
			s.zGauge.Set(z)
			if math.Abs(z) >= w.opt.ZThreshold {
				s.flagGauge.Set(1)
				w.total.Inc()
				a := Anomaly{
					Series: s.name, Value: value, Mean: mean, Stddev: std,
					ZScore: z, Unix: now.Unix(),
				}
				w.anomalies = append(w.anomalies, a)
				fired = append(fired, a)
				if n := len(w.anomalies) - maxAnomalies; n > 0 {
					w.anomalies = append(w.anomalies[:0], w.anomalies[n:]...)
				}
				if w.opt.Logger != nil {
					w.opt.Logger.Warn("watchdog anomaly",
						"series", s.name, "value", value,
						"mean", mean, "stddev", std, "zscore", z)
				}
			} else {
				s.flagGauge.Set(0)
			}
		}
		s.ring = append(s.ring, value)
		if len(s.ring) > w.opt.Window {
			s.ring = append(s.ring[:0], s.ring[len(s.ring)-w.opt.Window:]...)
		}
	}
}

// Start launches the sampling loop. Safe to call once; Stop shuts it
// down.
func (w *Watchdog) Start() {
	w.startOnce.Do(func() {
		go func() {
			defer close(w.done)
			ticker := time.NewTicker(w.opt.Interval)
			defer ticker.Stop()
			for {
				select {
				case now := <-ticker.C:
					w.Step(now)
				case <-w.quit:
					return
				}
			}
		}()
	})
}

// Stop terminates the sampling loop started by Start.
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.quit) })
	select {
	case <-w.done:
	default:
		// Start was never called; nothing to wait for.
		w.startOnce.Do(func() { close(w.done) })
		<-w.done
	}
}

// Anomalies returns the retained anomaly history, oldest first.
func (w *Watchdog) Anomalies() []Anomaly {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Anomaly, len(w.anomalies))
	copy(out, w.anomalies)
	return out
}

// baselineView is the JSON shape of one series' current baseline.
type baselineView struct {
	Series  string  `json:"series"`
	Mean    float64 `json:"mean"`
	Stddev  float64 `json:"stddev"`
	Samples int     `json:"samples"`
	Last    float64 `json:"last"`
}

// Handler serves GET /v1/ops/anomalies: the per-series baselines and the
// retained anomaly history.
func (w *Watchdog) Handler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		w.mu.Lock()
		baselines := make([]baselineView, 0, len(w.series))
		for _, s := range w.series {
			var base stats.Welford
			for _, v := range s.ring {
				base.Add(v)
			}
			bv := baselineView{Series: s.name, Samples: len(s.ring)}
			if base.Weight() > 0 {
				bv.Mean, bv.Stddev = base.Mean(), base.Std()
				bv.Last = s.ring[len(s.ring)-1]
			}
			baselines = append(baselines, bv)
		}
		anomalies := make([]Anomaly, len(w.anomalies))
		copy(anomalies, w.anomalies)
		w.mu.Unlock()

		rw.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(rw)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]any{
			"baselines": baselines,
			"anomalies": anomalies,
		})
	})
}
