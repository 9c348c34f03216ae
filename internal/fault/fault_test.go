package fault

import (
	"errors"
	"testing"
	"time"
)

func TestParseSpecs(t *testing.T) {
	bad := []string{"explode", "error(", "delay", "delay(x)", "error*0", "error@-1", "error%0", "error%101", "error*x"}
	for _, s := range bad {
		r := New()
		if err := r.Enable("p", s); err == nil {
			t.Errorf("Enable(%q) accepted a bad spec", s)
		}
	}
	good := []string{"", "off", "error", "error(msg here)", "crash", "delay(1ms)", "error*3@2%50"}
	for _, s := range good {
		r := New()
		if err := r.Enable("p", s); err != nil {
			t.Errorf("Enable(%q): %v", s, err)
		}
	}
}

func TestErrorPoint(t *testing.T) {
	r := New()
	if err := r.Hit("p"); err != nil {
		t.Fatalf("unarmed hit: %v", err)
	}
	if err := r.Enable("p", "error(disk is gone)"); err != nil {
		t.Fatal(err)
	}
	err := r.Hit("p")
	if !IsInjected(err) {
		t.Fatalf("armed hit = %v, want injected error", err)
	}
	if got := err.Error(); got != "fault: injected: p: disk is gone" {
		t.Errorf("error text %q", got)
	}
	if r.Count("p") != 1 {
		t.Errorf("count = %d, want 1", r.Count("p"))
	}
	r.Disable("p")
	if err := r.Hit("p"); err != nil {
		t.Fatalf("disabled hit: %v", err)
	}
}

func TestSkipAndLimit(t *testing.T) {
	r := New()
	if err := r.Enable("p", "error*2@3"); err != nil {
		t.Fatal(err)
	}
	var fired int
	for i := 0; i < 10; i++ {
		if r.Hit("p") != nil {
			if i < 3 {
				t.Errorf("fired during skip window at eval %d", i)
			}
			fired++
		}
	}
	if fired != 2 {
		t.Errorf("fired %d times, want 2 (evals 4 and 5)", fired)
	}
}

func TestProbabilisticDeterminism(t *testing.T) {
	run := func(seed int64) []bool {
		r := NewSeeded(seed)
		if err := r.Enable("p", "error%30"); err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 64)
		for i := range out {
			out[i] = r.Hit("p") != nil
		}
		return out
	}
	a, b := run(7), run(7)
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at eval %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("30%% point fired %d/%d times", fired, len(a))
	}
}

func TestDelayPoint(t *testing.T) {
	r := New()
	if err := r.Enable("p", "delay(20ms)*1"); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if err := r.Hit("p"); err != nil {
		t.Fatalf("delay returned error: %v", err)
	}
	if d := time.Since(t0); d < 15*time.Millisecond {
		t.Errorf("delay slept %v, want ~20ms", d)
	}
}

func TestCrashHook(t *testing.T) {
	r := New()
	var crashed string
	r.CrashFn = func(name string) { crashed = name }
	if err := r.Enable("p", "crash@1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Hit("p"); err != nil || crashed != "" {
		t.Fatalf("crash fired during skip window (err=%v crashed=%q)", err, crashed)
	}
	if err := r.Hit("p"); err != nil {
		t.Fatal(err)
	}
	if crashed != "p" {
		t.Errorf("crash hook saw %q, want p", crashed)
	}
}

func TestEnableSet(t *testing.T) {
	r := New()
	if err := r.EnableSet("a=error*1; b=delay(1ms)\nc=crash"); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	got := r.Active()
	if len(got) != len(want) {
		t.Fatalf("active = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("active = %v, want %v", got, want)
		}
	}
	if err := r.EnableSet("oops"); err == nil {
		t.Error("bad set accepted")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if err := r.Hit("p"); err != nil {
		t.Fatal(err)
	}
	if r.Count("p") != 0 || r.Active() != nil {
		t.Error("nil registry not inert")
	}
}

func TestInjectedSentinel(t *testing.T) {
	r := New()
	if err := r.Enable("p", "error"); err != nil {
		t.Fatal(err)
	}
	if err := r.Hit("p"); !errors.Is(err, ErrInjected) {
		t.Errorf("errors.Is(ErrInjected) false for %v", err)
	}
	if IsInjected(errors.New("other")) {
		t.Error("foreign error classified as injected")
	}
}
