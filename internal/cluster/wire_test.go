package cluster

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/explore"
)

// randomMeta draws a valid pending-metadata list: strictly increasing
// pos (with the item<<32|branch jumps real layers have), parents from
// −1 up, selections of 0–3 bytes.
func randomMeta(rng *rand.Rand, n int) []explore.PendMeta {
	meta := make([]explore.PendMeta, n)
	pos := uint64(rng.Intn(3))
	for i := range meta {
		if rng.Intn(4) == 0 {
			pos += uint64(rng.Intn(5)+1) << 32
		} else {
			pos += uint64(rng.Intn(3) + 1)
		}
		sel := make([]byte, rng.Intn(4))
		rng.Read(sel)
		meta[i] = explore.PendMeta{Pos: pos, Parent: int32(rng.Intn(1000)) - 1, Sel: string(sel)}
	}
	return meta
}

func TestClusterWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 17, 1000} {
		meta := randomMeta(rng, n)
		got, err := DecodeMeta(AppendMeta(nil, meta))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !slices.Equal(got, meta) {
			t.Fatalf("n=%d: pending metadata did not round-trip", n)
		}
		gids := make([]int32, n)
		g := int32(rng.Intn(3))
		for i := range gids {
			gids[i] = g
			g += int32(rng.Intn(9) + 1)
		}
		back, err := DecodeGids(AppendGids(nil, gids))
		if err != nil || !slices.Equal(back, gids) {
			t.Fatalf("n=%d: gid list did not round-trip (%v)", n, err)
		}
	}
	// Extremes of the value ranges.
	edge := []explore.PendMeta{{Pos: 0, Parent: -1}, {Pos: math.MaxUint64, Parent: math.MaxInt32, Sel: "\xff"}}
	if got, err := DecodeMeta(AppendMeta(nil, edge)); err != nil || !slices.Equal(got, edge) {
		t.Fatalf("edge metadata did not round-trip: %v %v", got, err)
	}
	if got, err := DecodeGids(AppendGids(nil, []int32{0, math.MaxInt32})); err != nil || !slices.Equal(got, []int32{0, math.MaxInt32}) {
		t.Fatalf("edge gids did not round-trip: %v %v", got, err)
	}
}

// TestClusterWireRejects: an absent, foreign, other-version, truncated
// or unordered payload is an ErrBadPayload — never an empty list.
func TestClusterWireRejects(t *testing.T) {
	meta := AppendMeta(nil, []explore.PendMeta{{Pos: 5, Parent: 1, Sel: "\x01"}, {Pos: 9, Parent: 2}})
	gids := AppendGids(nil, []int32{3, 4, 10})
	oldVersion := append([]byte(nil), meta...)
	oldVersion[4] = wireVersion + 1
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"absent", nil},
		{"empty", []byte{}},
		{"json", []byte(`{"meta":[]}`)},
		{"gid list as metadata", gids},
		{"other version", oldVersion},
		{"truncated header", meta[:4]},
		{"truncated entry", meta[:len(meta)-1]},
		{"trailing bytes", append(append([]byte(nil), meta...), 0)},
		{"huge count", append(append([]byte(nil), meta[:5]...), 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"repeated pos", AppendMeta(nil, []explore.PendMeta{{Pos: 5}, {Pos: 5}})},
		{"decreasing pos", AppendMeta(nil, []explore.PendMeta{{Pos: 5}, {Pos: 4}})},
		{"parent below -1", AppendMeta(nil, []explore.PendMeta{{Pos: 1, Parent: -2}})},
	} {
		if got, err := DecodeMeta(tc.b); !errors.Is(err, ErrBadPayload) {
			t.Errorf("metadata %s: got %v, %v; want ErrBadPayload", tc.name, got, err)
		}
	}
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"absent", nil},
		{"metadata as gid list", meta},
		{"truncated", gids[:len(gids)-1]},
		{"repeated gid", AppendGids(nil, []int32{2, 2})},
		{"decreasing gid", AppendGids(nil, []int32{2, 1})},
		{"negative gid", AppendGids(nil, []int32{-1})},
	} {
		if got, err := DecodeGids(tc.b); !errors.Is(err, ErrBadPayload) {
			t.Errorf("gids %s: got %v, %v; want ErrBadPayload", tc.name, got, err)
		}
	}
}

// FuzzClusterMetaDecode: arbitrary bytes either decode or fail with
// ErrBadPayload (never panic), and whatever decodes re-encodes to a
// payload that decodes to the same list — decode∘encode is the
// identity on every list the decoder accepts. The gid-list decoder is
// held to the same contract.
func FuzzClusterMetaDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	f.Add(AppendMeta(nil, nil))
	f.Add(AppendMeta(nil, randomMeta(rng, 3)))
	f.Add(AppendMeta(nil, randomMeta(rng, 40)))
	f.Add(AppendGids(nil, []int32{0, 1, 5, 1 << 20}))
	f.Add([]byte("CCPM\x01\x02\x00\x01\x00\x01\x01\x01\x00"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		meta, err := DecodeMeta(b)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("unclassified metadata error: %v", err)
			}
		} else {
			back, err := DecodeMeta(AppendMeta(nil, meta))
			if err != nil || !slices.Equal(back, meta) {
				t.Fatalf("metadata decode∘encode is not the identity: %v", err)
			}
		}
		gids, err := DecodeGids(b)
		if err != nil {
			if !errors.Is(err, ErrBadPayload) {
				t.Fatalf("unclassified gid error: %v", err)
			}
			return
		}
		back, err := DecodeGids(AppendGids(nil, gids))
		if err != nil || !slices.Equal(back, gids) {
			t.Fatalf("gid decode∘encode is not the identity: %v", err)
		}
	})
}
