package api

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// The writer's string escaping is held to encoding/json's by a fuzz
// target whose committed corpus under testdata/fuzz covers every escape
// class (go test -run FuzzSeeds -update rewrites it).

var updateSeeds = flag.Bool("update", false, "rewrite testdata/fuzz seeds")

// fuzzSeeds holds, per target, the inputs committed as its corpus: plain
// ASCII, each escaped byte class, U+2028/U+2029, invalid and truncated
// UTF-8, and an error message as the handlers build it.
func fuzzSeeds() map[string][]string {
	return map[string][]string{
		"FuzzAppendJSONString": {
			"Rotterdam",
			"\"quoted\" \\ back\bslash\f\n\r\t\x00\x1f\x7f",
			"<script>&amp;</script>",
			"line\xe2\x80\xa8sep\xe2\x80\xa9para",
			"bad \xff\xfe utf8 \xe2\x80 cut \xf0\x9f\x9a",
			"caf\xc3\xa9 \xf0\x9f\x9a\xa2 \xe2\x82\xac",
			fmt.Sprintf("unknown port %q", "a<b&c\xe2\x80\xa8\xff"),
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
				t.Errorf("%v (run go test ./internal/api -run FuzzSeeds -update)", err)
			}
		}
	}
}

// FuzzAppendJSONString: for any input, string or bytes, the writer quotes
// exactly as json.Marshal does.
func FuzzAppendJSONString(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("%q: writer %q, encoding/json %q", s, got, want)
		}
		if got := appendJSONString(nil, []byte(s)); !bytes.Equal(got, want) {
			t.Fatalf("%q as bytes: writer %q, encoding/json %q", s, got, want)
		}
	})
}

// TestFloatSpellingMatchesEncodingJSON holds the writer's numbers to
// json.Marshal's: the 'e' form outside [1e-6, 1e21) with its exponent
// cleanup, signed zero, the extremes, and random bit patterns.
func TestFloatSpellingMatchesEncodingJSON(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.99999e-7, 1e-7, 1.5e-9, 1e20, 1e21,
		-1e21, 123456789012345678, 1e100, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 51.92, -179.999}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100000; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		want, err := json.Marshal(v)
		if err != nil {
			continue // NaN and ±Inf: the writer's null is TestWriteJSONNeverAnswersEmpty's
		}
		j := &jsonBody{}
		j.f64("", v)
		if !bytes.Equal(j.b, want) {
			t.Fatalf("%v (%#x): writer %q, encoding/json %q", v, math.Float64bits(v), j.b, want)
		}
	}
}
