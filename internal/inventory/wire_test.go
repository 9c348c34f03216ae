package inventory

import (
	"encoding/binary"
	"strings"
	"testing"

	"github.com/patternsoflife/pol/internal/model"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	fine, dense := buildFineInventory(t)
	data, err := Marshal(fine)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(fine, back) {
		t.Fatal("round-tripped inventory differs from the original")
	}
	if back.Info() != fine.Info() {
		t.Errorf("build info %+v, want %+v", back.Info(), fine.Info())
	}
	// The round-tripped copy is mutable (not a frozen snapshot).
	s, _ := back.Get(GroupKey{Set: GSCell, Cell: dense})
	if s == nil {
		t.Fatal("dense cell missing after round trip")
	}
	if _, err := Unmarshal(data[:len(data)/2]); err == nil {
		t.Error("truncated image must fail to decode")
	}
	// A partial from a worker of the fixed-width build is refused by its
	// version, before any of its summaries is misread as the dense form.
	binary.LittleEndian.PutUint32(data[len(wireMagic):], 1)
	if _, err := Unmarshal(data); err == nil || !strings.Contains(err.Error(), "wire image version 1, only version 2 is read") {
		t.Errorf("version-1 wire image: %v", err)
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	a, dense := buildFineInventory(t)
	b, _ := buildFineInventory(t)
	if !Equal(a, b) {
		t.Fatal("identical builds must compare equal")
	}
	if !Equal(a.Snapshot(), b) {
		t.Fatal("a frozen snapshot must compare equal to its source's twin")
	}

	// A single extra observation in one group breaks equality.
	key := GroupKey{Set: GSCell, Cell: dense}
	s, _ := b.Get(key)
	rec := model.TripRecord{}
	rec.MMSI = 999999999
	rec.Time = 42
	rec.Pos = dense.LatLng()
	b.Observe(key, Observation{Rec: rec})
	_ = s
	if Equal(a, b) {
		t.Fatal("diverged summaries must compare unequal")
	}

	// Group-count and resolution mismatches.
	c := New(a.Info())
	if Equal(a, c) {
		t.Fatal("different group counts must compare unequal")
	}
	info := a.Info()
	info.Resolution++
	d := New(info)
	if Equal(c, d) {
		t.Fatal("different resolutions must compare unequal")
	}
	if !Equal(nil, nil) || Equal(a, nil) {
		t.Fatal("nil handling")
	}
}
