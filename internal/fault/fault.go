// Package fault is a stdlib-only failpoint registry for deterministic
// fault injection. Production code threads named points through its
// failure-prone operations (journal appends, fsyncs, checkpoint renames,
// task execution); tests and chaos harnesses arm those points with error,
// delay, or crash behaviors without touching the code under test.
//
// A point is armed with a compact spec:
//
//	spec := kind [ "(" arg ")" ] { modifier }
//	kind := "off" | "error" | "crash" | "delay"
//	modifier := "*" N   fire at most N times (one-shot when N=1)
//	          | "@" N   skip the first N evaluations
//	          | "%" P   fire with probability P percent (seeded PRNG)
//
// Examples:
//
//	error                        every hit returns an injected error
//	error(no space left on device)   with a custom message
//	error*1@2                    the third hit only
//	delay(50ms)%10               10% of hits sleep 50ms
//	crash                        first hit terminates the process
//
// The package-level Default registry is armed from the environment at
// first use: POL_FAILPOINTS holds ";"-separated "name=spec" pairs and
// POL_FAULT_SEED seeds the probabilistic modifier, so a run is exactly
// reproducible. Unarmed registries cost one atomic load per Hit.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel wrapped by every injected error; detect one
// with errors.Is or IsInjected.
var ErrInjected = errors.New("fault: injected")

// IsInjected reports whether err originated from an armed failpoint.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// Point kinds.
const (
	kindOff = iota
	kindError
	kindCrash
	kindDelay
)

// point is one armed failpoint.
type point struct {
	kind  int
	msg   string        // error message (kind == kindError)
	delay time.Duration // sleep (kind == kindDelay)
	limit int64         // max firings; <= 0 means unlimited
	skip  int64         // evaluations to pass before arming
	pct   float64       // firing probability percent; <= 0 means always

	evals atomic.Int64
	fires atomic.Int64
}

// Registry holds a set of named failpoints. The zero value is not ready;
// construct with New or NewSeeded. A nil *Registry is safe: every Hit
// returns nil.
type Registry struct {
	mu     sync.Mutex
	points map[string]*point
	rng    *rand.Rand
	armed  atomic.Int32

	// CrashFn, when non-nil, replaces process termination for crash-kind
	// points — a test hook. The default prints the point name to stderr
	// and exits with status 3.
	CrashFn func(name string)
}

// New returns an empty registry with the default deterministic seed.
func New() *Registry { return NewSeeded(1) }

// NewSeeded returns an empty registry whose probabilistic modifier draws
// from a PRNG with the given seed.
func NewSeeded(seed int64) *Registry {
	return &Registry{points: make(map[string]*point), rng: rand.New(rand.NewSource(seed))}
}

var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry, armed once from the
// POL_FAILPOINTS and POL_FAULT_SEED environment variables.
func Default() *Registry {
	defaultOnce.Do(func() {
		seed := int64(1)
		if s := os.Getenv("POL_FAULT_SEED"); s != "" {
			if n, err := strconv.ParseInt(s, 10, 64); err == nil {
				seed = n
			}
		}
		defaultReg = NewSeeded(seed)
		if env := os.Getenv("POL_FAILPOINTS"); env != "" {
			if err := defaultReg.EnableSet(env); err != nil {
				fmt.Fprintf(os.Stderr, "fault: bad POL_FAILPOINTS: %v\n", err)
			}
		}
	})
	return defaultReg
}

// Enable arms (or re-arms) the named point with the given spec.
// A spec of "" or "off" disarms it.
func (r *Registry) Enable(name, spec string) error {
	p, err := parseSpec(spec)
	if err != nil {
		return fmt.Errorf("fault: point %s: %w", name, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p == nil || p.kind == kindOff {
		if _, ok := r.points[name]; ok {
			delete(r.points, name)
			r.armed.Add(-1)
		}
		return nil
	}
	if _, ok := r.points[name]; !ok {
		r.armed.Add(1)
	}
	r.points[name] = p
	return nil
}

// EnableSet arms points from a ";"- or newline-separated list of
// "name=spec" pairs (the POL_FAILPOINTS syntax).
func (r *Registry) EnableSet(set string) error {
	for _, item := range strings.FieldsFunc(set, func(c rune) bool { return c == ';' || c == '\n' }) {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, spec, ok := strings.Cut(item, "=")
		if !ok || name == "" {
			return fmt.Errorf("fault: bad failpoint %q (want name=spec)", item)
		}
		if err := r.Enable(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// Disable disarms the named point.
func (r *Registry) Disable(name string) { _ = r.Enable(name, "off") }

// Count returns how many times the named point fired.
func (r *Registry) Count(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		return p.fires.Load()
	}
	return 0
}

// Active returns the sorted names of armed points (for startup logging).
func (r *Registry) Active() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.points))
	for name := range r.points {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Hit evaluates the named point: it returns an injected error, sleeps,
// terminates the process, or — the overwhelmingly common case — returns
// nil at the cost of one atomic load.
func (r *Registry) Hit(name string) error {
	if r == nil || r.armed.Load() == 0 {
		return nil
	}
	r.mu.Lock()
	p, ok := r.points[name]
	if !ok {
		r.mu.Unlock()
		return nil
	}
	n := p.evals.Add(1)
	if n <= p.skip {
		r.mu.Unlock()
		return nil
	}
	if p.limit > 0 && p.fires.Load() >= p.limit {
		r.mu.Unlock()
		return nil
	}
	if p.pct > 0 && r.rng.Float64()*100 >= p.pct {
		r.mu.Unlock()
		return nil
	}
	p.fires.Add(1)
	kind, msg, delay := p.kind, p.msg, p.delay
	crash := r.CrashFn
	r.mu.Unlock()

	switch kind {
	case kindDelay:
		time.Sleep(delay)
		return nil
	case kindCrash:
		if crash != nil {
			crash(name)
			return nil
		}
		fmt.Fprintf(os.Stderr, "fault: crash at %s\n", name)
		os.Exit(3)
	case kindError:
		if msg != "" {
			return fmt.Errorf("%w: %s: %s", ErrInjected, name, msg)
		}
		return fmt.Errorf("%w: %s", ErrInjected, name)
	}
	return nil
}

// Hit evaluates a point on the Default registry.
func Hit(name string) error { return Default().Hit(name) }

// parseSpec parses one point spec; "" and "off" return (nil, nil).
func parseSpec(spec string) (*point, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return nil, nil
	}
	p := &point{}

	// Kind and optional parenthesized argument.
	rest := spec
	kind := rest
	if i := strings.IndexAny(rest, "(*@%"); i >= 0 {
		kind = rest[:i]
		rest = rest[i:]
	} else {
		rest = ""
	}
	arg := ""
	if strings.HasPrefix(rest, "(") {
		j := strings.Index(rest, ")")
		if j < 0 {
			return nil, fmt.Errorf("unterminated argument in %q", spec)
		}
		arg = rest[1:j]
		rest = rest[j+1:]
	}
	switch kind {
	case "error":
		p.kind = kindError
		p.msg = arg
	case "crash":
		p.kind = kindCrash
	case "delay":
		p.kind = kindDelay
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("bad delay argument %q", arg)
		}
		p.delay = d
	default:
		return nil, fmt.Errorf("unknown kind %q in %q (want off|error|crash|delay)", kind, spec)
	}

	// Modifiers.
	for rest != "" {
		mod := rest[0]
		rest = rest[1:]
		j := strings.IndexAny(rest, "*@%")
		val := rest
		if j >= 0 {
			val = rest[:j]
			rest = rest[j:]
		} else {
			rest = ""
		}
		switch mod {
		case '*':
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad count modifier *%s", val)
			}
			p.limit = n
		case '@':
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad skip modifier @%s", val)
			}
			p.skip = n
		case '%':
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f <= 0 || f > 100 {
				return nil, fmt.Errorf("bad probability modifier %%%s", val)
			}
			p.pct = f
		default:
			return nil, fmt.Errorf("bad modifier %q in %q", string(mod), spec)
		}
	}
	return p, nil
}
