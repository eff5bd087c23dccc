package pubsub

import (
	"fmt"
	"math/rand"
	"testing"
)

// scanVictim is the retirement rule as a full scan of every topic —
// the oracle the indexed retireOneLocked must agree with: the
// subscriber-less topic that is done, if any is, and otherwise
// running, with the oldest last touch.
func scanVictim(b *Broker) *topic {
	var victim *topic
	for _, t := range b.topics {
		if len(t.subs) > 0 {
			continue
		}
		if victim == nil ||
			(t.done && !victim.done) ||
			(t.done == victim.done && t.stamp < victim.stamp) {
			victim = t
		}
	}
	return victim
}

// TestRetireMatchesScan drives brokers at their topic cap through
// random publish / subscribe / close sequences over a name pool larger
// than the cap, and checks every topic creation retired exactly the
// topic the full scan picks.
func TestRetireMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		maxTopics := 2 + rng.Intn(12)
		b := New(Options{MaxTopics: maxTopics})
		var subs []*Sub
		retired := 0
		for step := 0; step < 3000; step++ {
			name := fmt.Sprintf("t%d", rng.Intn(3*maxTopics))
			before := make(map[string]*topic, len(b.topics))
			for k, v := range b.topics {
				before[k] = v
			}
			var want *topic
			if _, ok := b.topics[name]; !ok && len(b.topics) >= maxTopics {
				want = scanVictim(b)
			}
			switch op := rng.Intn(10); {
			case op < 4:
				b.Publish(name, TypeProgress, step)
			case op < 6:
				b.Publish(name, TypeVerdict, step)
			case op < 8:
				subs = append(subs, b.Subscribe(name, 0))
			default:
				if len(subs) > 0 {
					i := rng.Intn(len(subs))
					subs[i].Close()
					subs = append(subs[:i], subs[i+1:]...)
				}
				continue
			}
			for k, v := range before {
				if b.topics[k] == v {
					continue
				}
				if v != want {
					t.Fatalf("seed %d step %d: retired %s, full scan picks %v", seed, step, k, want)
				}
				want = nil
				retired++
			}
			if want != nil {
				t.Fatalf("seed %d step %d: scan picks %s, nothing was retired", seed, step, want.name)
			}
		}
		if retired == 0 {
			t.Fatalf("seed %d: no topic was ever retired", seed)
		}
	}
}

// TestRetireIndexStaysBounded: watchers coming and going on running
// topics under the cap retire nothing, and the late heap's stale
// entries are compacted away instead of growing with every departure.
func TestRetireIndexStaysBounded(t *testing.T) {
	b := New(Options{MaxTopics: 64})
	for i := 0; i < 20_000; i++ {
		name := fmt.Sprintf("t%d", i%32)
		b.Publish(name, TypeProgress, i)
		b.Subscribe(name, 0).Close()
	}
	if n := b.Topics(); n != 32 {
		t.Fatalf("%d topics, want 32", n)
	}
	if n := len(b.late); n > 3*32+64 {
		t.Fatalf("late heap holds %d entries for 32 topics", n)
	}
}
