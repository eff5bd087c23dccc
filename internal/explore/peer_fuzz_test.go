package explore

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// appendTestFrame encodes records in the frontier frame layout; probe
// records carry sel, capcheck records (sel == nil) only the key.
func appendTestFrame(words int, shard int, keys [][]uint64, capcheck bool) []byte {
	b := append([]byte(nil), frameMagic[:]...)
	b = append(b, frameVersion, 0)
	b = binary.LittleEndian.AppendUint16(b, uint16(words))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for i, key := range keys {
		if capcheck {
			b = append(b, recCapCheck)
			b = binary.LittleEndian.AppendUint32(b, uint32(shard))
		} else {
			b = append(b, recProbe)
			b = binary.LittleEndian.AppendUint32(b, uint32(shard))
			b = binary.LittleEndian.AppendUint64(b, uint64(i)<<32|uint64(i%3))
			b = binary.LittleEndian.AppendUint32(b, uint32(i))
			b = append(b, 1, byte(i%3))
		}
		for _, w := range key {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	return b
}

// FuzzFrameIngest: peerEngine.Ingest parses frames that arrive from
// other processes, so over arbitrary bytes — seeded with well-formed
// probe and capcheck frames for the hosted shard, a frame for a shard
// this peer does not host, and a record whose key belongs to another
// shard — it must return an error or accept, never panic. Whatever it
// accepts leaves the shard drainable in strictly increasing pos order
// (the order the coordinator's merge relies on).
func FuzzFrameIngest(f *testing.F) {
	factory, err := CC(core.CC2, hypergraph.CommitteeRing(3), CCOptions{Init: InitCC})
	if err != nil {
		f.Fatal(err)
	}
	opts := Options{Mode: sim.SelectCentral, MaxStates: 1000, Workers: 1}
	newPeer := func(tb testing.TB) PeerEngine {
		e, err := NewPeer(factory, opts, PeerConfig{NShards: 2, Hosted: []int{0}, Self: 0})
		if err != nil {
			tb.Fatal(err)
		}
		return e
	}
	m := factory()
	words := m.Codec.Words
	var own, foreign [][]uint64
	for _, key := range sampleKeys(m, 64) {
		if ShardOf(hashWords(key), 2) == 0 {
			own = append(own, key)
		} else {
			foreign = append(foreign, key)
		}
	}
	if len(own) == 0 || len(foreign) == 0 {
		f.Fatal("sample keys do not cover both shards")
	}
	if err := newPeer(f).Ingest(appendTestFrame(words, 0, own, false)); err != nil {
		f.Fatalf("well-formed frame rejected: %v", err)
	}
	if err := newPeer(f).Ingest(appendTestFrame(words, 0, foreign[:1], false)); err == nil {
		f.Fatal("accepted a probe for a key that another shard owns")
	}
	f.Add(appendTestFrame(words, 0, own, false))
	f.Add(appendTestFrame(words, 0, own[:1], true))
	f.Add(appendTestFrame(words, 1, foreign, false))
	f.Add(appendTestFrame(words, 0, foreign[:1], false))
	f.Add(appendTestFrame(words, 0, nil, false))
	f.Add([]byte("CCFW"))
	f.Fuzz(func(t *testing.T, frame []byte) {
		e := newPeer(t)
		defer e.Close()
		if err := e.Ingest(frame); err != nil {
			return
		}
		meta, err := e.PendMeta(0)
		if err != nil {
			t.Fatalf("PendMeta after an accepted frame: %v", err)
		}
		for i := 1; i < len(meta); i++ {
			if meta[i].Pos <= meta[i-1].Pos {
				t.Fatalf("accepted frame left pending entries out of pos order: %d then %d", meta[i-1].Pos, meta[i].Pos)
			}
		}
		if err := e.Commit(0, 0, nil, false); err != nil {
			t.Fatalf("dropping the accepted entries: %v", err)
		}
	})
}

// sampleKeys encodes the model's first n initial configurations.
func sampleKeys[S sim.Cloneable[S]](m *Model[S], n int) [][]uint64 {
	var keys [][]uint64
	m.Inits(func(cfg []S) bool {
		key := make([]uint64, m.Codec.Words)
		m.Codec.Encode(key, cfg)
		keys = append(keys, key)
		return len(keys) < n
	})
	return keys
}
