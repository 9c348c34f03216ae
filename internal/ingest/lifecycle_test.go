package ingest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/obs"
)

var updateDocs = flag.Bool("update", false, "rewrite the generated lifecycle block of DESIGN.md")

// permNames names the permission bits in declaration order.
var permNames = [numPerms]string{"accept", "journal", "tickMerge", "foldAtMarker", "checkpoint",
	"serveRepl", "applyReplicated", "promote", "fenceOnHigherTerm", "resume"}

func permList(p perm) string {
	var names []string
	for i, n := range permNames {
		if p&(1<<i) != 0 {
			names = append(names, n)
		}
	}
	if names == nil {
		return "—"
	}
	return strings.Join(names, ", ")
}

// TestLifecycleTable walks every (state, event) pair through
// Engine.transition. What each state may do and where each edge leads is
// stated here once more, by name, so that a change to the tables in
// lifecycle.go has to be made twice on purpose.
func TestLifecycleTable(t *testing.T) {
	wantPerms := map[string]string{
		"standalone": "accept, tickMerge, serveRepl",
		"replaying":  "accept, foldAtMarker",
		"primary":    "accept, journal, tickMerge, checkpoint, serveRepl, fenceOnHigherTerm",
		"degraded":   "tickMerge, serveRepl, fenceOnHigherTerm, resume",
		"fenced":     "tickMerge",
		"applier":    "accept, foldAtMarker, serveRepl, applyReplicated, promote",
	}
	wantEdges := map[string]string{
		"replaying/replayed":     "primary",
		"primary/journalFailed":  "degraded",
		"primary/higherTerm":     "fenced",
		"degraded/journalFailed": "degraded",
		"degraded/higherTerm":    "fenced",
		"degraded/resumed":       "primary",
		"fenced/journalFailed":   "fenced",
		"fenced/higherTerm":      "fenced",
		"fenced/resumed":         "fenced",
		"applier/promoted":       "primary",
	}
	if int(numStates)-1 != len(wantPerms) {
		t.Fatalf("%d states in lifecycle.go, %d stated here", numStates-1, len(wantPerms))
	}
	defer func(was bool) { panicOnIllegal = was }(panicOnIllegal)
	legal := 0
	for st := stStandalone; st < numStates; st++ {
		name := states[st].name
		if got := permList(states[st].perms); got != wantPerms[name] {
			t.Errorf("state %s may %q, stated %q", name, got, wantPerms[name])
		}
		for ev := event(0); ev < numEvents; ev++ {
			edge := name + "/" + eventNames[ev]
			// fire runs the edge on a bare engine in state st and reports where
			// the state word ended up.
			fire := func() (from, to state, panicked bool) {
				e := &Engine{}
				e.state.Store(uint32(st))
				defer func() {
					panicked = recover() != nil
					if got := state(e.state.Load()); !panicked && got != to {
						t.Errorf("%s: state word holds %s, transition reported %s", edge, states[got].name, states[to].name)
					}
					to = state(e.state.Load())
				}()
				from, to = e.transition(ev)
				return from, to, false
			}
			want, ok := wantEdges[edge]
			if !ok {
				panicOnIllegal = true
				if _, _, panicked := fire(); !panicked {
					t.Errorf("%s: illegal edge did not panic under test", edge)
				}
				// In a daemon: counted, logged, state untouched.
				panicOnIllegal = false
				reg := obs.NewRegistry()
				e := &Engine{}
				e.registerMetrics(reg)
				e.state.Store(uint32(st))
				if from, to := e.transition(ev); from != st || to != st || state(e.state.Load()) != st {
					t.Errorf("%s: illegal edge moved the engine to %s", edge, states[to].name)
				}
				if !strings.Contains(reg.Expose(), "pol_ingest_illegal_transitions_total 1") {
					t.Errorf("%s: illegal edge not counted:\n%s", edge, grepLine(reg.Expose(), "illegal_transitions"))
				}
				continue
			}
			legal++
			panicOnIllegal = true
			from, to, panicked := fire()
			if panicked || from != st || states[to].name != want {
				t.Errorf("%s: landed in %s (panicked=%v), stated %s", edge, states[to].name, panicked, want)
			}
			if got := permList(states[to].perms); got != wantPerms[want] {
				t.Errorf("%s: arrives with %q, stated %q", edge, got, wantPerms[want])
			}
			if states[to].role != states[st].role && eventNames[ev] != "promoted" {
				t.Errorf("%s changes the role; only a promotion may", edge)
			}
		}
	}
	if legal != len(wantEdges) {
		t.Errorf("%d legal edges in lifecycle.go, %d stated here", legal, len(wantEdges))
	}

	// What the fold rule needs of any table, whatever its entries.
	for st := stStandalone; st < numStates; st++ {
		p, name := states[st].perms, states[st].name
		has := func(q perm) bool { return p&q != 0 }
		switch {
		case has(permTickMerge) && has(permFoldAtMarker):
			t.Errorf("%s folds both on its own tick and at markers", name)
		case has(permTickMerge) && !has(permJournal) && has(permAccept) && states[st].role == RolePrimary:
			t.Errorf("%s folds without a marker while its frontier still moves: no re-base could mark that fold", name)
		case has(permJournal) && (!has(permAccept) || states[st].role != RolePrimary):
			t.Errorf("%s journals without being an accepting primary", name)
		case has(permApplyReplicated) && (has(permJournal) || has(permTickMerge)):
			t.Errorf("%s applies a primary's history and writes its own", name)
		case has(permResume) && has(permAccept):
			t.Errorf("%s may resume though it never stopped accepting", name)
		}
	}
}

// lifecycleDoc renders the two tables the way DESIGN.md §4 prints them.
func lifecycleDoc() string {
	var b strings.Builder
	b.WriteString("  | state | role | " + strings.Join(permNames[:], " | ") + " |\n")
	b.WriteString("  |---|---|" + strings.Repeat(":-:|", numPerms) + "\n")
	for st := stStandalone; st < numStates; st++ {
		fmt.Fprintf(&b, "  | `%s` | %s |", states[st].name, states[st].role)
		for i := range permNames {
			if states[st].perms&(1<<i) != 0 {
				b.WriteString(" ✓ |")
			} else {
				b.WriteString("   |")
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("\n  Edges (every other state × event pair is illegal):\n\n")
	for st := stStandalone; st < numStates; st++ {
		for ev := event(0); ev < numEvents; ev++ {
			if to := edges[st][ev]; to != stNone {
				fmt.Fprintf(&b, "  - `%s` —%s→ `%s`\n", states[st].name, eventNames[ev], states[to].name)
			}
		}
	}
	return b.String()
}

// TestLifecycleDocMatchesTables keeps DESIGN.md's printed tables equal to
// the Go ones (go test ./internal/ingest -run LifecycleDoc -update rewrites
// the block).
func TestLifecycleDocMatchesTables(t *testing.T) {
	const begin, end = "  <!-- lifecycle tables: generated from internal/ingest/lifecycle.go -->\n", "  <!-- /lifecycle tables -->\n"
	path := filepath.Join("..", "..", "DESIGN.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < i {
		t.Fatalf("DESIGN.md has no %q … %q block", strings.TrimSpace(begin), strings.TrimSpace(end))
	}
	want := lifecycleDoc()
	if got := doc[i+len(begin) : j]; got != want {
		if *updateDocs {
			if err := os.WriteFile(path, []byte(doc[:i+len(begin)]+want+doc[j:]), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		t.Fatalf("DESIGN.md lifecycle block differs from lifecycle.go; run with -update. Want:\n%s", want)
	}
}
