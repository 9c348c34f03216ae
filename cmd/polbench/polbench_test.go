package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/geo"
	"github.com/patternsoflife/pol/internal/hexgrid"
	"github.com/patternsoflife/pol/internal/model"
	"github.com/patternsoflife/pol/internal/routing"
)

// testFleet is small enough for the whole table to run in seconds and big
// enough for every check to hold on it (see EXPERIMENTS.md, "The checks").
var testFleet = config{exp: "all", vessels: 25, days: 30, seed: 77, width: 200}

// runAt runs cfg at a GOMAXPROCS and returns stdout, stderr and the exit
// status.
func runAt(t *testing.T, cfg config, exps []experiment, procs int) (string, string, int) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg.outDir = t.TempDir()
	var out, log bytes.Buffer
	code := run(cfg, exps, &out, &log)
	return out.String(), log.String(), code
}

// wallClock matches a sub-second duration as time.Duration prints one.
var wallClock = regexp.MustCompile(`[0-9](ms|µs|ns)\b`)

// TestPaperSectionOnTestFleet runs every experiment on the test fleet:
// every check passes, the route and baseline rows are the ones their
// exhaustive distance loops printed, and the section is the same bytes at GOMAXPROCS 1 and 2.
func TestPaperSectionOnTestFleet(t *testing.T) {
	out, log, code := runAt(t, testFleet, experiments, 2)
	if code != 0 {
		t.Fatalf("exit status %d; stderr:\n%s", code, log)
	}
	for _, e := range experiments {
		if !strings.Contains(out, "\n## "+e.id+" — "+e.title+"\n") {
			t.Errorf("section has no %s heading", e.id)
		}
	}
	if strings.Contains(out, "FAIL") || strings.Contains(out, "**error:**") {
		t.Errorf("a check failed:\n%s", out)
	}
	for _, want := range []string{
		"| 34 | 0 | 1462 cells | 100 % |",
		"| k-means hull baseline | 34 routes, 137407 hull vertices | 99.67 % |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("section lacks the exhaustive loops' row %q:\n%s", want, out)
		}
	}
	if wallClock.MatchString(out) {
		t.Errorf("a wall-clock figure reached the section:\n%s", out)
	}

	one, _, _ := runAt(t, testFleet, experiments, 1)
	if one != out {
		a, b := strings.Split(one, "\n"), strings.Split(out, "\n")
		for i := range min(len(a), len(b)) {
			if a[i] != b[i] {
				t.Fatalf("section differs at line %d:\nGOMAXPROCS 1: %s\nGOMAXPROCS 2: %s", i+1, a[i], b[i])
			}
		}
		t.Fatalf("section differs in length: %d lines at GOMAXPROCS 1, %d at 2", len(a), len(b))
	}
}

// TestEveryFailureListed forces failing checks and an erring experiment:
// the exit status is 1, stderr names every failure, and the experiments
// after a failure still run.
func TestEveryFailureListed(t *testing.T) {
	exps := []experiment{
		{"a", "first", "A claim.", func(*lab) (*report, error) {
			r := &report{}
			r.row("x", "y")
			r.row("1", "2")
			r.check("holds", true)
			r.check("broken one", false)
			return r, nil
		}},
		{"b", "second", "B claim.", func(*lab) (*report, error) { return nil, errors.New("no data") }},
		{"c", "third", "C claim.", func(*lab) (*report, error) {
			r := &report{}
			r.check("broken two", false)
			return r, nil
		}},
	}
	out, log, code := runAt(t, config{exp: "all"}, exps, runtime.GOMAXPROCS(0))
	if code != 1 {
		t.Fatalf("exit status %d, want 1", code)
	}
	for _, want := range []string{"FAIL a: broken one", "FAIL b: no data", "FAIL c: broken two"} {
		if !strings.Contains(log, want) {
			t.Errorf("stderr lacks %q:\n%s", want, log)
		}
	}
	if strings.Contains(log, "holds") {
		t.Errorf("stderr lists a passing check:\n%s", log)
	}
	for _, want := range []string{"| x | y |\n|---|---|\n| 1 | 2 |\n", "- pass: holds\n", "- **FAIL**: broken one\n", "**error:** no data\n", "- **FAIL**: broken two\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("section lacks %q:\n%s", want, out)
		}
	}
}

func TestUnknownExperimentRefused(t *testing.T) {
	out, log, code := runAt(t, config{exp: "table4,nosuch"}, experiments, runtime.GOMAXPROCS(0))
	if code != 2 || out != "" || !strings.Contains(log, `"nosuch"`) {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2, nothing, the unknown id", code, out, log)
	}
}

// refCovered is the coverage loop covered replaced: every report against
// every path cell's centre.
func refCovered(reports []model.PositionRecord, path []hexgrid.Cell) int {
	n := 0
	for _, r := range reports {
		best := math.Inf(1)
		for _, c := range path {
			if d := geo.Haversine(r.Pos, c.LatLng()); d < best {
				best = d
			}
		}
		if best < routeReach {
			n++
		}
	}
	return n
}

func TestCoveredMatchesExhaustiveLoop(t *testing.T) {
	l := newLab(testFleet, io.Discard)
	inv, err := l.ensureInv(6)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, v := range l.completedVoyages() {
		track := l.trackDuring(v)
		if len(track) < 40 {
			continue
		}
		dest, _ := l.gaz.ByID(v.Route.Dest)
		path, err := routing.Forecast(inv, v.Route.Origin, v.Route.Dest, v.VType, track[len(track)/4].Pos, dest.Pos)
		if err != nil {
			continue
		}
		// Reports off the lane too, so the search also answers "no".
		remaining := track[len(track)/4:]
		for i := range remaining {
			if i%3 == 0 {
				remaining[i].Pos = geo.Destination(remaining[i].Pos, 90, float64(i%90)*1e3)
			}
		}
		if got, want := covered(remaining, path), refCovered(remaining, path); got != want {
			t.Errorf("voyage %d: covered %d, exhaustive loop %d", v.MMSI, got, want)
		}
		if checked++; checked == 2 {
			return
		}
	}
	t.Fatalf("only %d voyages forecast on the test fleet", checked)
}
