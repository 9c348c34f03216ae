package trace

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The traceparent header is parsed on every traced API request from bytes
// the caller chose. The committed corpus under testdata/fuzz holds a valid
// value and the malformed shapes TestTraceparentMalformedProperty names
// (go test -run FuzzSeeds -update rewrites it).

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz seeds")

func fuzzSeeds() map[string][]string {
	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	return map[string][]string{
		"FuzzParseTraceparent": {
			valid,
			strings.Replace(valid, "-01", "-ff", 1), // other flags: accepted, formats as 01
			strings.ToUpper(valid),                  // uppercase hex
			"ff" + valid[2:],                        // forbidden version
			"00-" + strings.Repeat("0", 32) + valid[35:],      // zero trace id
			valid[:36] + strings.Repeat("0", 16) + valid[52:], // zero span id
			valid[:54],                          // truncated
			valid + "-x",                        // trailing junk
			strings.Replace(valid, "-", "_", 1), // bad separator
			valid[:10] + "\xff" + valid[11:],    // a non-hex byte
		},
	}
}

// TestFuzzSeedsCommitted keeps testdata/fuzz populated: every target has
// its seeds on disk.
func TestFuzzSeedsCommitted(t *testing.T) {
	for target, seeds := range fuzzSeeds() {
		dir := filepath.Join("testdata", "fuzz", target)
		for i, seed := range seeds {
			path := filepath.Join(dir, fmt.Sprintf("seed-%d", i))
			if *updateSeeds {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(fmt.Sprintf("go test fuzz v1\nstring(%q)\n", seed)), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if _, err := os.Stat(path); err != nil {
				t.Errorf("%v (run go test ./internal/obs/trace -run FuzzSeeds -update)", err)
			}
		}
	}
}

// FuzzParseTraceparent: parsing never panics and agrees with the parser
// it replaced; whatever parses is a valid context whose formatted value
// keeps the input's version, IDs and separators (only the flags
// normalise, to 01); and parse → format is a fixed point.
func FuzzParseTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceparent(v)
		if rsc, rok := refParseTraceparent(v); sc != rsc || ok != rok {
			t.Fatalf("%q: parsed %+v %v, reference %+v %v", v, sc, ok, rsc, rok)
		}
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("%q rejected with a non-zero context %+v", v, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("%q parsed to an invalid context", v)
		}
		formatted := FormatTraceparent(sc)
		if formatted[:53] != v[:53] {
			t.Fatalf("%q formats as %q", v, formatted)
		}
		again, ok := ParseTraceparent(formatted)
		if !ok || again != sc || FormatTraceparent(again) != formatted {
			t.Fatalf("%q → %q does not parse back to the same context", v, formatted)
		}
	})
}

// refParseTraceparent is ParseTraceparent as it stood before hex.Decode,
// the reference the current version is held to.
func refParseTraceparent(v string) (SpanContext, bool) {
	if len(v) != 55 {
		return SpanContext{}, false
	}
	if v[2] != '-' || v[35] != '-' || v[52] != '-' {
		return SpanContext{}, false
	}
	if v[:2] != "00" || !isHex(v[53:]) {
		return SpanContext{}, false
	}
	if !isHex(v[3:35]) {
		return SpanContext{}, false
	}
	tid, ok := ParseTraceID(v[3:35])
	if !ok {
		return SpanContext{}, false
	}
	var sid SpanID
	if !isHex(v[36:52]) {
		return SpanContext{}, false
	}
	for i := 0; i < 8; i++ {
		hi, lo := refHexVal(v[36+2*i]), refHexVal(v[37+2*i])
		sid[i] = hi<<4 | lo
	}
	if sid.IsZero() {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: tid, SpanID: sid}, true
}

func refHexVal(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}
