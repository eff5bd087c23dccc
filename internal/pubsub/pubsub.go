// Package pubsub is the push-based result plane's core: an in-process
// topic broker plus the wire codec its events travel over (Server-Sent
// Events framing, shared by the HTTP watch endpoints and the verdict
// gossip plane).
//
// The broker is built for one asymmetry: publishers are explorations
// and must never block, subscribers are network clients and may be
// arbitrarily slow. Every subscriber therefore owns a bounded queue;
// a publish that finds a queue full evicts that subscriber (closing
// its channel with an eviction mark) instead of waiting. Each topic
// keeps a bounded replay ring of its most recent events, so a client
// reconnecting with the SSE Last-Event-ID header resumes from where
// it dropped — or, past the ring, from the most recent events plus
// the terminal one, which is the part that must never be lost.
//
// Topics are cheap, created on first use, and retired once they are
// done (a terminal-typed event was published) and the last subscriber
// detaches; the serving layer synthesizes terminal events for
// watchers who arrive later than that from the job records and the
// verdict store, so retiring a ring never strands a client.
package pubsub

import (
	"container/heap"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
)

// Canonical event types. The broker itself treats the type as opaque
// except for terminality; these are the vocabulary the serving tier
// publishes and the load harness understands.
const (
	// TypeProgress: a running exploration's counter snapshot
	// (states, frontier, depth, states/sec).
	TypeProgress = "progress"
	// TypeCell: one campaign cell reached a terminal state (per-cell
	// progress on a campaign topic).
	TypeCell = "cell"
	// TypeVerdict: a job completed with a verdict (terminal).
	TypeVerdict = "verdict"
	// TypeFailed: a job or campaign failed (terminal).
	TypeFailed = "failed"
	// TypeDone: a campaign completed all cells (terminal).
	TypeDone = "done"
	// TypeAnnounce: a gossip peer announcing newly committed store
	// keys (the gossip wire reuses the event codec; announcements are
	// not topic traffic and are never terminal).
	TypeAnnounce = "announce"
)

// IsTerminal reports whether an event of this type ends its topic:
// subscribers stop reading after one, and the broker retires the
// topic once its last subscriber detaches.
func IsTerminal(typ string) bool {
	return typ == TypeVerdict || typ == TypeFailed || typ == TypeDone
}

// Event is one message on a topic. Seq is 1-based and per-topic — it
// becomes the SSE id, so Last-Event-ID resume is a per-topic
// watermark. Events synthesized outside the broker (replays of
// already-terminal jobs) carry Seq 0 and are sent without an id line,
// which by the SSE contract leaves the client's Last-Event-ID
// untouched.
type Event struct {
	Seq  uint64          `json:"seq"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// Options parameterize a Broker. The defaults suit the serving tier:
// a ring deep enough to cover reconnect races, a queue deep enough to
// absorb scheduling jitter but shallow enough that a stuck client is
// evicted within one exploration chunk.
type Options struct {
	// RingSize is the per-topic replay buffer depth (default 128).
	RingSize int
	// QueueSize is the per-subscriber queue depth (default 256). Must
	// be at least RingSize so a Last-Event-ID replay always fits.
	QueueSize int
	// MaxTopics bounds the retained topic count (default 8192): past
	// it, creating a topic retires the oldest subscriber-less one.
	// Topics with live subscribers are never retired.
	MaxTopics int
}

// Broker is the topic fan-out. Safe for concurrent use.
type Broker struct {
	opts Options

	mu     sync.Mutex
	topics map[string]*topic
	// The retirement index makes picking the MaxTopics victim O(1)
	// amortized instead of a scan of every topic. Every topic that can
	// be retired (no subscribers) is in exactly one place: the list of
	// its done state, in stamp order, when it got there by a touch; or
	// the late heap, when its last subscriber left a running topic —
	// which makes it retirable at an old stamp without a touch, so it
	// cannot go to the list tail. The late heap holds stale entries
	// too; current checks them as they surface.
	clock uint64
	lists [2]topicList // [0] running topics, [1] done topics
	late  lateHeap

	published atomic.Int64
	evictions atomic.Int64
}

type topic struct {
	name string
	seq  uint64
	buf  []Event // replay ring, oldest first, len <= RingSize
	subs map[*Sub]struct{}
	done bool
	// stamp orders topics by their last publish or subscribe, for cap
	// eviction: a broker-wide counter, so no two touches tie.
	stamp uint64
	// list is the retirement list holding t (nil if none), with t's
	// neighbours in it.
	list       *topicList
	prev, next *topic
}

// topicList is a doubly linked list of topics, oldest stamp first.
type topicList struct{ head, tail *topic }

func (l *topicList) push(t *topic) {
	t.list, t.prev, t.next = l, l.tail, nil
	if l.tail != nil {
		l.tail.next = t
	} else {
		l.head = t
	}
	l.tail = t
}

func unlist(t *topic) {
	l := t.list
	if l == nil {
		return
	}
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		l.head = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	} else {
		l.tail = t.prev
	}
	t.list, t.prev, t.next = nil, nil, nil
}

// lateEntry is a late-heap entry: a running topic as of the moment its
// last subscriber left.
type lateEntry struct {
	t     *topic
	stamp uint64
}

// lateHeap is a min-heap of entries by stamp.
type lateHeap []lateEntry

func (h lateHeap) Len() int           { return len(h) }
func (h lateHeap) Less(i, j int) bool { return h[i].stamp < h[j].stamp }
func (h lateHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *lateHeap) Push(x any)        { *h = append(*h, x.(lateEntry)) }
func (h *lateHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = lateEntry{}
	*h = old[:len(old)-1]
	return e
}

// Sub is one subscription. Read from Events() until it is closed;
// a closed channel means the topic ended (terminal event delivered),
// the subscription was evicted as a slow consumer (check Evicted), or
// Close was called.
type Sub struct {
	b     *Broker
	t     *topic
	ch    chan Event
	state atomic.Int32 // 0 live, 1 evicted, 2 closed
}

// New builds a Broker.
func New(opts Options) *Broker {
	if opts.RingSize <= 0 {
		opts.RingSize = 128
	}
	if opts.QueueSize < opts.RingSize {
		opts.QueueSize = max(opts.RingSize, 256)
	}
	if opts.MaxTopics <= 0 {
		opts.MaxTopics = 8192
	}
	return &Broker{opts: opts, topics: map[string]*topic{}}
}

// topicLocked returns (creating if needed) the named topic; the
// caller touches it once its done state and subscribers are settled.
// Caller holds b.mu.
func (b *Broker) topicLocked(name string) *topic {
	t := b.topics[name]
	if t == nil {
		if len(b.topics) >= b.opts.MaxTopics {
			b.retireOneLocked()
		}
		t = &topic{name: name, subs: map[*Sub]struct{}{}}
		b.topics[name] = t
	}
	return t
}

// touchLocked records a publish or subscribe on t: the newest stamp,
// and the tail of its done state's list if it has no subscribers.
func (b *Broker) touchLocked(t *topic) {
	b.clock++
	t.stamp = b.clock
	unlist(t)
	if len(t.subs) == 0 {
		l := &b.lists[0]
		if t.done {
			l = &b.lists[1]
		}
		l.push(t)
	}
}

// currentLate reports whether a late-heap entry still stands for a
// retirable topic: not retired, not touched (or listed) since, and
// still without subscribers.
func (b *Broker) currentLate(e lateEntry) bool {
	return b.topics[e.t.name] == e.t && e.t.stamp == e.stamp && e.t.list == nil && len(e.t.subs) == 0
}

// retireOneLocked drops the stalest subscriber-less topic (preferring
// done ones) to make room under MaxTopics. If every topic has live
// subscribers the map grows past the cap — subscriber-held topics are
// bounded by the connection count, which the serving tier already
// caps.
func (b *Broker) retireOneLocked() {
	victim := b.lists[1].head
	if victim == nil {
		victim = b.lists[0].head
		for len(b.late) > 0 && !b.currentLate(b.late[0]) {
			heap.Pop(&b.late)
		}
		if len(b.late) > 0 && (victim == nil || b.late[0].stamp < victim.stamp) {
			victim = heap.Pop(&b.late).(lateEntry).t
		}
	}
	if victim != nil {
		unlist(victim)
		delete(b.topics, victim.name)
	}
}

// leftLocked indexes a running topic whose last subscriber just left.
func (b *Broker) leftLocked(t *topic) {
	// Compact once stale entries outnumber the topics: O(1) amortized
	// over the pushes since the last compaction.
	if len(b.late) > 2*len(b.topics)+64 {
		live := b.late[:0]
		for _, e := range b.late {
			if b.currentLate(e) {
				live = append(live, e)
			}
		}
		clear(b.late[len(live):])
		b.late = live
		heap.Init(&b.late)
	}
	heap.Push(&b.late, lateEntry{t, t.stamp})
}

// Publish marshals data, assigns the topic's next sequence number and
// fans the event out. It never blocks: a subscriber whose queue is
// full is evicted (channel closed, Evicted() true) rather than
// waited for. A terminal-typed event marks the topic done; a later
// publish on the same topic reopens it (job records can be recreated
// after eviction, and their watchers should keep working).
func (b *Broker) Publish(name, typ string, data any) (Event, error) {
	raw, err := json.Marshal(data)
	if err != nil {
		return Event{}, fmt.Errorf("pubsub: marshal %s event: %v", typ, err)
	}
	b.mu.Lock()
	t := b.topicLocked(name)
	t.seq++
	ev := Event{Seq: t.seq, Type: typ, Data: raw}
	t.buf = append(t.buf, ev)
	if len(t.buf) > b.opts.RingSize {
		t.buf = t.buf[1:]
	}
	t.done = IsTerminal(typ)
	var evicted []*Sub
	for s := range t.subs {
		select {
		case s.ch <- ev:
		default:
			// Slow consumer: drop the subscription, never the publisher.
			delete(t.subs, s)
			evicted = append(evicted, s)
		}
	}
	b.touchLocked(t)
	b.mu.Unlock()
	for _, s := range evicted {
		if s.state.CompareAndSwap(0, 1) {
			close(s.ch)
			b.evictions.Add(1)
		}
	}
	b.published.Add(1)
	return ev, nil
}

// Subscribe attaches to a topic, replaying any buffered events with
// Seq > after into the subscription's queue first (after = 0 replays
// the whole ring; an after beyond the ring's oldest entry resumes
// from what the ring still holds — recent progress plus the terminal
// event, the part that matters).
func (b *Broker) Subscribe(name string, after uint64) *Sub {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topicLocked(name)
	s := &Sub{b: b, t: t, ch: make(chan Event, b.opts.QueueSize)}
	for _, ev := range t.buf {
		if ev.Seq > after {
			s.ch <- ev // fits: QueueSize >= RingSize
		}
	}
	t.subs[s] = struct{}{}
	b.touchLocked(t)
	return s
}

// Events is the subscription's receive channel. It is closed on
// terminal delivery only by the subscriber itself calling Close;
// readers should stop at the first IsTerminal event.
func (s *Sub) Events() <-chan Event { return s.ch }

// Evicted reports whether the broker dropped this subscription as a
// slow consumer (its channel is closed).
func (s *Sub) Evicted() bool { return s.state.Load() == 1 }

// Close detaches the subscription. Idempotent; retires the topic if
// it is done and this was the last subscriber.
func (s *Sub) Close() {
	s.b.mu.Lock()
	_, live := s.t.subs[s]
	delete(s.t.subs, s)
	if len(s.t.subs) == 0 && s.b.topics[s.t.name] == s.t {
		if s.t.done {
			// The ring has served its purpose: terminal watchers from
			// here on are synthesized from the job record / verdict store.
			unlist(s.t)
			delete(s.b.topics, s.t.name)
		} else if live {
			s.b.leftLocked(s.t)
		}
	}
	s.b.mu.Unlock()
	if live && s.state.CompareAndSwap(0, 2) {
		close(s.ch)
	}
}

// Topics reports the retained topic count (a /metrics gauge).
func (b *Broker) Topics() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.topics)
}

// Published reports the total events published (a /metrics counter).
func (b *Broker) Published() int64 { return b.published.Load() }

// Evictions reports the slow-consumer subscriptions dropped (a
// /metrics counter).
func (b *Broker) Evictions() int64 { return b.evictions.Load() }
