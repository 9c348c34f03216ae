package stats

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestTopNExactWithinCapacity(t *testing.T) {
	s := NewTopN(10)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			s.Add(uint64(i))
		}
	}
	top := s.Top(3)
	if len(top) != 3 {
		t.Fatalf("want 3 entries, got %d", len(top))
	}
	if top[0].Key != 4 || top[0].Count != 5 || top[0].Error != 0 {
		t.Errorf("top entry %+v, want key 4 count 5 error 0", top[0])
	}
	if top[1].Key != 3 || top[2].Key != 2 {
		t.Errorf("ranking wrong: %+v", top)
	}
}

func TestTopNHeavyHitterGuarantee(t *testing.T) {
	// With capacity k, any key with frequency > total/k must be present.
	s := NewTopN(8)
	rng := rand.New(rand.NewSource(13))
	const total = 100000
	for i := 0; i < total; i++ {
		r := rng.Float64()
		switch {
		case r < 0.4:
			s.Add(1) // 40%
		case r < 0.7:
			s.Add(2) // 30%
		case r < 0.85:
			s.Add(3) // 15%
		default:
			s.Add(uint64(4 + rng.Intn(1000))) // long tail
		}
	}
	top := s.Top(3)
	keys := map[uint64]bool{}
	for _, e := range top {
		keys[e.Key] = true
	}
	for _, k := range []uint64{1, 2, 3} {
		if !keys[k] {
			t.Errorf("heavy hitter %d missing from top-3: %+v", k, top)
		}
	}
	if top[0].Key != 1 || top[1].Key != 2 || top[2].Key != 3 {
		t.Errorf("heavy hitters misranked: %+v", top)
	}
}

func TestTopNCountUpperBound(t *testing.T) {
	s := NewTopN(4)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 50000; i++ {
		k := uint64(rng.Intn(100))
		truth[k]++
		s.Add(k)
	}
	for _, e := range s.Entries() {
		if e.Count < truth[e.Key] {
			t.Errorf("key %d: estimated %d below true %d (must be upper bound)", e.Key, e.Count, truth[e.Key])
		}
		if e.Count-e.Error > truth[e.Key] {
			t.Errorf("key %d: count-error %d exceeds true %d", e.Key, e.Count-e.Error, truth[e.Key])
		}
	}
}

func TestTopNWeighted(t *testing.T) {
	s := NewTopN(4)
	s.AddWeighted(7, 100)
	s.AddWeighted(8, 50)
	s.AddWeighted(7, 25)
	if got := s.counters[s.find(7)].Count; got != 125 {
		t.Errorf("count(7) = %d, want 125", got)
	}
	if s.find(99) >= 0 {
		t.Error("untracked key tracked")
	}
	s.AddWeighted(9, 0)
	if s.Len() != 2 {
		t.Error("zero weight must be ignored")
	}
}

func TestTopNMergePreservesHeavyHitters(t *testing.T) {
	a := NewTopN(8)
	b := NewTopN(8)
	for i := 0; i < 1000; i++ {
		a.Add(1)
		b.Add(2)
	}
	for i := 0; i < 600; i++ {
		a.Add(3)
		b.Add(3)
	}
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < 500; i++ {
		a.Add(uint64(10 + rng.Intn(50)))
		b.Add(uint64(10 + rng.Intn(50)))
	}
	a.Merge(b)
	if a.Len() > 8 {
		t.Errorf("merged sketch exceeds capacity: %d", a.Len())
	}
	top := a.Top(3)
	keys := map[uint64]uint64{}
	for _, e := range top {
		keys[e.Key] = e.Count
	}
	if keys[3] < 1200 {
		t.Errorf("key 3 (split across sketches) must rank with ≈1200: %+v", top)
	}
	if keys[1] < 1000 || keys[2] < 1000 {
		t.Errorf("per-sketch heavy hitters must survive merge: %+v", top)
	}
}

func TestTopNMergeNilAndEmpty(t *testing.T) {
	s := NewTopN(4)
	s.Add(1)
	s.Merge(nil)
	s.Merge(NewTopN(4))
	if s.Len() != 1 || s.counters[s.find(1)].Count != 1 {
		t.Error("nil/empty merges must be no-ops")
	}
}

func TestTopNDeterministicOrder(t *testing.T) {
	s := NewTopN(8)
	for k := uint64(0); k < 8; k++ {
		s.Add(k) // all counts equal
	}
	e := s.Entries()
	for i := 1; i < len(e); i++ {
		if e[i-1].Count == e[i].Count && e[i-1].Key >= e[i].Key {
			t.Fatalf("ties must sort by ascending key: %+v", e)
		}
	}
}

func TestTopNCapacityClamp(t *testing.T) {
	s := NewTopN(0)
	s.Add(1)
	s.Add(2)
	if s.Len() != 1 {
		t.Errorf("capacity clamps to 1, len %d", s.Len())
	}
}

func TestTopNBinaryRoundTrip(t *testing.T) {
	s := NewTopN(16)
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 10000; i++ {
		s.Add(uint64(rng.Intn(40)))
	}
	buf := s.AppendBinary(nil)
	got, rest, err := DecodeTopN(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("%d trailing bytes", len(rest))
	}
	if got.Len() != s.Len() {
		t.Fatalf("len %d vs %d", got.Len(), s.Len())
	}
	want := s.Entries()
	have := got.Entries()
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("entry %d: %+v vs %+v", i, have[i], want[i])
		}
	}
	if _, _, err := DecodeTopN(buf[:3]); err == nil {
		t.Error("truncated input must fail")
	}
	if _, _, err := DecodeTopN(nil); err == nil {
		t.Error("empty input must fail")
	}
}

// TestTopNDecodedBehavesLikeBuilt: a decoded sketch (table sized to its
// entries) and the built one it came from (table grown key by key) encode,
// merge and keep admitting keys alike — at the inventory's capacity and at
// one past AppendBinary's stack array.
func TestTopNDecodedBehavesLikeBuilt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, capacity := range []int{16, 40} {
		for _, keys := range []int{0, 1, 3, capacity, 5 * capacity} {
			build := func(n int) *TopN {
				s := NewTopN(capacity)
				for i := 0; i < n; i++ {
					s.AddWeighted(uint64(rng.Intn(keys+1)), uint64(1+rng.Intn(3)))
				}
				return s
			}
			x, y := build(20*keys), build(7*keys)
			enc := x.AppendBinary(nil)
			dec, rest, err := DecodeTopN(enc)
			if err != nil || len(rest) != 0 {
				t.Fatalf("cap %d keys %d: decode: %v (%d trailing)", capacity, keys, err, len(rest))
			}
			if !bytes.Equal(dec.AppendBinary(nil), enc) {
				t.Fatalf("cap %d keys %d: decode∘encode changed the bytes", capacity, keys)
			}
			x.Merge(y)
			dec.Merge(y)
			for k := uint64(1000); k < 1000+uint64(capacity); k++ {
				x.Add(k)
				dec.Add(k)
			}
			if x.Len() != capacity || !bytes.Equal(dec.AppendBinary(nil), x.AppendBinary(nil)) {
				t.Fatalf("cap %d keys %d: decoded and built sketches diverge after merge+add", capacity, keys)
			}
		}
	}
}

// TestTopNAppendBinaryDoesNotAllocate: a segment write encodes three
// sketches per group into a reused buffer.
func TestTopNAppendBinaryDoesNotAllocate(t *testing.T) {
	s := NewTopN(16)
	for k := uint64(0); k < 40; k++ {
		s.AddWeighted(k%23, k)
	}
	buf := make([]byte, 0, 1024)
	if n := testing.AllocsPerRun(100, func() { buf = s.AppendBinary(buf[:0]) }); n != 0 {
		t.Errorf("AppendBinary allocates %.0f times per call", n)
	}
}

func BenchmarkTopNAdd(b *testing.B) {
	s := NewTopN(16)
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(rng.Intn(100))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(keys[i%1024])
	}
}

func BenchmarkTopNMerge(b *testing.B) {
	mk := func(seed int64) *TopN {
		s := NewTopN(16)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 10000; i++ {
			s.Add(uint64(rng.Intn(64)))
		}
		return s
	}
	x, y := mk(1), mk(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := NewTopN(16)
		z.Merge(x)
		z.Merge(y)
	}
}
