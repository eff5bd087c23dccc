package explore

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/sim"
)

// This file is the peer half of the distributed checker: a PeerEngine
// hosts a subset of the hash-range shards of the global visited set and
// expands its slice of each BFS layer, shipping successors it does not
// own to the owning peer as binary frontier frames. The other half — the
// coordinator that drives the layer barriers, merges the per-shard
// pending metadata into the global promotion order and assigns dense
// global ids (gids) — lives in internal/cluster.
//
// Determinism carries over from the single-node engine unchanged,
// because nothing that decides the result moves:
//
//   - every successor still carries pos = item<<32|branch with item the
//     *global* layer index (gid − firstGid of the layer), so each pos
//     value is proposed for exactly one key by exactly one expansion and
//     the min-merge under the owning shard's lock is a strict total
//     order, independent of frame arrival order;
//   - promotion stays serial: the coordinator merges the per-shard
//     pos-sorted pending lists (each shard's kept subset is a prefix of
//     its own list, because the global kept set is a pos prefix) and the
//     peer promotes in exactly that order, so gids are assigned in the
//     single-node discovery order;
//   - the at-cap decision is layer-global (the coordinator broadcasts
//     "cluster-wide promoted count >= MaxStates"), matching the
//     single-node States() check which only moves between layers.
//
// A shard — not a peer — is the unit of recovery: SnapshotShard writes a
// checkpoint-format image of one shard at a layer barrier, and
// AdoptShard rebuilds it on any surviving peer, which is what lets the
// cluster tolerate node loss mid-layer (survivors roll their pending
// state back to the barrier; the arena only mutates at commit time, so
// no snapshot restore is needed for them).

// ShardOf maps a state hash to its owning shard: the high word of
// hash×n, which is monotone in hash — shard s owns the contiguous hash
// range [s·2⁶⁴/n, (s+1)·2⁶⁴/n). The shard count is fixed at cluster
// start (one per initial peer); node loss moves whole shards to
// adopters instead of re-hashing.
func ShardOf(hash uint64, n int) int {
	hi, _ := bits.Mul64(hash, uint64(n))
	return int(hi)
}

// Defaulted returns a copy of o with the zero-value knobs resolved the
// way ExploreCtx resolves them, so a cluster coordinator and its peer
// engines agree on MaxBranch/MaxViolations/Workers without each
// re-implementing the defaults.
func (o Options) Defaulted() Options {
	if o.MaxBranch == 0 {
		o.MaxBranch = 1 << 16
	}
	if o.MaxViolations == 0 {
		o.MaxViolations = 5
	}
	if o.Workers <= 0 {
		o.Workers = par.Workers
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	return o
}

// DecodeSel decodes a packed selection string (one byte per selected
// process) into the selection slice a TraceStep carries; "" decodes to
// nil, matching the initial-configuration step.
func DecodeSel(s string) []int { return decodeSel(s) }

// RenderKey decodes an encoded state and renders it the way trace steps
// are rendered — the cluster coordinator's analogue of the in-process
// trace builder, which holds the arena and calls render directly.
func (m *Model[S]) RenderKey(key []uint64) string {
	cfg := make([]S, m.Prog.NumProcs)
	m.Codec.Decode(cfg, key)
	return m.render(cfg)
}

// PendMeta is the promotion-relevant view of one pending entry: what
// the coordinator needs to merge shards into the global discovery order
// and extend its parent/selection trace arrays. Parent is a gid; Sel is
// the packed selection (one byte per selected process).
type PendMeta struct {
	Pos    uint64
	Parent int32
	Sel    string
}

// LayerViol is one violation detected during a peer's slice of a layer
// expansion, tagged with the global layer item index so the coordinator
// can reproduce the single-node report order (a stable sort by Item;
// one item is expanded by exactly one worker on exactly one peer).
type LayerViol struct {
	Item int      `json:"item"`
	Kind string   `json:"kind"`
	Msg  string   `json:"msg"`
	Sel  []int    `json:"sel,omitempty"`
	Key  []uint64 `json:"key,omitempty"`
}

// LayerReport is a peer's order-insensitive aggregate for one layer —
// the cluster analogue of the per-worker layerAgg, folded across the
// peer's workers. Sums, maxima and ORs commute, so the coordinator's
// fold over peers cannot show in the result.
type LayerReport struct {
	Deadlocks    int         `json:"deadlocks"`
	Transitions  int64       `json:"transitions"`
	MaxEnabled   int         `json:"maxEnabled"`
	Truncated    bool        `json:"truncated"`
	Incorrect    bool        `json:"incorrect"`
	Viols        []LayerViol `json:"viols,omitempty"`
	SendFailures int         `json:"sendFailures,omitempty"`
}

// PeerEngine is the coordinator-facing surface of one cluster peer. All
// methods except Ingest, PendMeta and Commit are called from the
// coordinator's serial phases, one at a time; PendMeta and Commit may
// run concurrently for distinct hosted shards (each touches only its
// own shard); Ingest is called concurrently with Expand (frames arrive
// while workers expand) and is internally synchronized by the visited
// set's striped locks.
type PeerEngine interface {
	// Seed enumerates the model's full deterministic init stream and
	// probes the configurations owned by a hosted shard (pos = stream
	// position, parent −1), stopping early once the local pending count
	// exceeds MaxStates — provably past the global kept prefix.
	Seed() error
	// Expand expands this peer's slice of the current layer: every
	// state promoted into a hosted shard at the last commit. firstGid
	// anchors the global item numbering (item = gid − firstGid); atCap
	// is the coordinator's layer-global state-bound decision.
	Expand(depth int, firstGid int32, atCap bool) (*LayerReport, error)
	// FinishLayer returns (and clears) the truncation flag accumulated
	// from ingested at-cap membership queries. Separate from Expand's
	// report because frames for this peer may still arrive after its
	// own expansion slice is done; the coordinator calls it once every
	// peer's Expand has returned.
	FinishLayer() bool
	// PendMeta drains a hosted shard's pending entries in deterministic
	// pos order and returns their promotion metadata.
	PendMeta(shard int) ([]PendMeta, error)
	// Commit promotes the first keep drained entries of the shard (in
	// the PendMeta order) under the coordinator-assigned gids, drops
	// the rest, and runs the between-layer housekeeping.
	Commit(shard int, keep int, gids []int32, housekeep bool) error
	// Keys returns the encoded states of the given gids, which must
	// have been committed to the given hosted shard (trace rebuilding).
	Keys(shard int, gids []int32) ([][]uint64, error)
	// SnapshotShard streams a restorable image of one hosted shard.
	// Only legal at a layer barrier (no pending entries).
	SnapshotShard(shard int, w io.Writer) error
	// AdoptShard rebuilds a shard this peer does not host from a
	// SnapshotShard stream — the work-migration path after node loss.
	AdoptShard(shard int, r io.Reader) error
	// Rollback discards every hosted shard's pending entries and the
	// ingested at-cap flag, returning the peer to the last layer
	// barrier. The arena only mutates at commit, so this is all a
	// surviving peer needs before a layer is retried.
	Rollback() error
	// SetRoute replaces the shard→peer routing table (after adoption).
	SetRoute(route []int) error
	// SetSender installs the frame transport: send must deliver the
	// frame to peer dst's Ingest before returning and must not retain
	// the frame. Expand calls it from one sender goroutine per
	// destination (so concurrently for distinct destinations), with at
	// most sendQueue further frames queued behind each call, and
	// returns only once every frame has been sent. A send error is
	// absorbed into the layer report's SendFailures (the coordinator
	// rolls the layer back), never a wrong result.
	SetSender(send func(dst int, frame []byte) error)
	// Ingest applies one frame from a remote peer: probe records enter
	// the owning shard's pending set (the pos min-merge makes arrival
	// order irrelevant), membership queries fold into the FinishLayer
	// flag.
	Ingest(frame []byte) error
	// Hosted returns the sorted shard ids this peer currently hosts.
	Hosted() []int
	// States returns the promoted-state count across hosted shards.
	States() int
	// Close releases the hosted shards' resources.
	Close()
}

// PeerConfig places one engine inside a cluster.
type PeerConfig struct {
	// NShards is the cluster-wide shard count (fixed at start).
	NShards int
	// Hosted lists the shards this peer owns initially.
	Hosted []int
	// Self is this peer's index (frames it emits carry it implicitly
	// via the sender; a peer never sends to itself).
	Self int
	// FlushRecords caps the records buffered per (worker, destination)
	// outbox before a frame is flushed mid-expansion (0 = 512). Tests
	// shrink it to force multi-frame traffic on small instances.
	FlushRecords int
}

// peerShard is one hosted slice of the global visited set.
type peerShard struct {
	vs *Visited
	// gidOf maps this shard's dense local ids to their global ids.
	// Strictly increasing: within a commit the kept entries arrive in
	// global promotion order, and across commits gids only grow.
	gidOf []int32
	// layerFrom is the first local id of the current frontier layer
	// (the states committed last barrier, expanded this layer).
	layerFrom int32
	// drained caches the Drain between PendMeta and Commit so both see
	// the same order without re-sorting.
	drained []Fresh
}

type peerEngine[S sim.Cloneable[S]] struct {
	opts     Options
	wss      []*workerState[S]
	nShards  int
	self     int
	flushAt  int
	words    int
	ohash    [32]byte
	shards   map[int]*peerShard
	hosted   []int // sorted
	route    []int // shard -> peer
	send     func(dst int, frame []byte) error
	outboxes []*peerOutbox
	// queues hold each destination's flushed frames for its sender
	// goroutine (live only inside Expand); free recycles sent frame
	// buffers back to the workers' outboxes.
	queues []chan []byte
	free   chan []byte

	capTrunc  atomic.Bool
	sendFails atomic.Int64
}

// sendQueue is how many flushed frames may wait behind the one a
// destination's sender is sending: enough to keep the sender busy while
// workers refill their outboxes, few enough that a slow peer costs at
// most sendQueue+1 frames of memory per destination before the workers
// block on it.
const sendQueue = 4

// NewPeer builds a shard-hosting engine for one cluster peer. newModel
// and opts must be identical on every peer (and on the coordinator);
// opts is normalized with Defaulted, and Workers sizes this peer's
// expansion pool.
func NewPeer[S sim.Cloneable[S]](newModel func() *Model[S], opts Options, cfg PeerConfig) (PeerEngine, error) {
	opts = opts.Defaulted()
	if cfg.NShards < 1 {
		return nil, fmt.Errorf("explore: cluster needs at least one shard")
	}
	if cfg.Self < 0 || cfg.Self >= cfg.NShards {
		return nil, fmt.Errorf("explore: peer index %d out of range [0,%d)", cfg.Self, cfg.NShards)
	}
	if cfg.FlushRecords <= 0 {
		cfg.FlushRecords = 512
	}
	e := &peerEngine[S]{
		opts:    opts,
		nShards: cfg.NShards,
		self:    cfg.Self,
		flushAt: cfg.FlushRecords,
		shards:  make(map[int]*peerShard),
		route:   make([]int, cfg.NShards),
	}
	for s := range e.route {
		e.route[s] = s // identity while peers == shards
	}
	e.wss = make([]*workerState[S], opts.Workers)
	for i := range e.wss {
		e.wss[i] = newWorkerState(newModel(), &e.opts)
	}
	m0 := e.wss[0].model
	e.words = m0.Codec.Words
	e.ohash = optionsHash(m0.Name, e.words, m0.Prog.NumProcs, &e.opts)
	for _, s := range cfg.Hosted {
		if s < 0 || s >= cfg.NShards {
			return nil, fmt.Errorf("explore: hosted shard %d out of range [0,%d)", s, cfg.NShards)
		}
		if _, dup := e.shards[s]; dup {
			return nil, fmt.Errorf("explore: shard %d hosted twice", s)
		}
		e.shards[s] = &peerShard{vs: e.newShardVisited()}
	}
	e.rebuildHosted()
	e.outboxes = make([]*peerOutbox, opts.Workers)
	for w := range e.outboxes {
		ob := &peerOutbox{e: e}
		ob.init()
		e.outboxes[w] = ob
		e.wss[w].cl = &peerHooks{sink: ob.sink, capMiss: ob.capMiss}
	}
	e.queues = make([]chan []byte, cfg.NShards)
	// Room for every buffer that can exist: one per (worker,
	// destination) outbox plus a full queue and one in flight per
	// destination — so a returned buffer is never dropped.
	e.free = make(chan []byte, cfg.NShards*(opts.Workers+sendQueue+1))
	return e, nil
}

func (e *peerEngine[S]) newShardVisited() *Visited {
	vs := NewVisited(e.words)
	// Frames ingest concurrently with the local workers' probes, so the
	// serial fast path is never safe on a peer.
	vs.SetSerial(false)
	vs.SetFS(e.opts.FS)
	return vs
}

func (e *peerEngine[S]) rebuildHosted() {
	e.hosted = e.hosted[:0]
	for s := range e.shards {
		e.hosted = append(e.hosted, s)
	}
	slices.Sort(e.hosted)
}

func (e *peerEngine[S]) Hosted() []int { return slices.Clone(e.hosted) }

func (e *peerEngine[S]) States() int {
	n := 0
	for _, s := range e.hosted {
		n += e.shards[s].vs.States()
	}
	return n
}

func (e *peerEngine[S]) SetSender(send func(dst int, frame []byte) error) { e.send = send }

func (e *peerEngine[S]) SetRoute(route []int) error {
	if len(route) != e.nShards {
		return fmt.Errorf("explore: route length %d != %d shards", len(route), e.nShards)
	}
	e.route = slices.Clone(route)
	return nil
}

func (e *peerEngine[S]) Close() {
	for _, ps := range e.shards {
		ps.vs.Close()
	}
	e.shards = map[int]*peerShard{}
	e.hosted = nil
}

// catchIO converts the arena's ioPanic escape hatch into an error on
// the engine's serial entry points (Expand guards per worker itself).
func catchIO(err *error) {
	if r := recover(); r != nil {
		ip, ok := r.(ioPanic)
		if !ok {
			panic(r)
		}
		*err = fmt.Errorf("explore: %w", ip.err)
	}
}

func (e *peerEngine[S]) Seed() (err error) {
	defer catchIO(&err)
	ws0 := e.wss[0]
	seq := uint64(0)
	ws0.model.Inits(func(cfg []S) bool {
		key := ws0.canonKey(cfg)
		h := hashWords(key)
		if ps, ok := e.shards[ShardOf(h, e.nShards)]; ok {
			ps.vs.Probe(key, h, seq, -1, nil)
		}
		seq++
		if e.opts.MaxStates <= 0 {
			return true
		}
		// The single-node stream stops once *global* pending exceeds the
		// bound; a peer only sees its local count, which trails the
		// global one, so it stops no earlier — it can only see extra
		// keys whose stream positions are past the global kept prefix,
		// and the merge discards exactly those.
		pending := 0
		for _, s := range e.hosted {
			pending += e.shards[s].vs.Pending()
		}
		return pending <= e.opts.MaxStates
	})
	return nil
}

type layerItem struct {
	vs  *Visited
	lid int32
	gid int32
}

func (e *peerEngine[S]) Expand(depth int, firstGid int32, atCap bool) (rep *LayerReport, err error) {
	e.sendFails.Store(0)
	var items []layerItem
	for _, s := range e.hosted {
		ps := e.shards[s]
		for lid := ps.layerFrom; lid < int32(ps.vs.States()); lid++ {
			items = append(items, layerItem{vs: ps.vs, lid: lid, gid: ps.gidOf[lid]})
		}
	}
	workers := len(e.wss)
	aggs := make([]layerAgg, workers)
	var mu sync.Mutex
	var expandErr error
	var senders sync.WaitGroup
	for dst := range e.queues {
		q := make(chan []byte, sendQueue)
		e.queues[dst] = q
		senders.Add(1)
		go func() {
			defer senders.Done()
			e.runSender(dst, q)
		}()
	}
	par.ForEachWorker(len(items), workers, func(w, i int) {
		defer func() {
			if r := recover(); r != nil {
				ip, ok := r.(ioPanic)
				if !ok {
					panic(r)
				}
				mu.Lock()
				if expandErr == nil {
					expandErr = ip.err
				}
				mu.Unlock()
			}
		}()
		it := items[i]
		ws := e.wss[w]
		ws.cl.atCap = atCap
		ws.cl.parent = it.gid
		ws.expand(it.vs, &aggs[w], it.lid, int(it.gid-firstGid), depth)
	})
	for _, ob := range e.outboxes {
		ob.flushAll()
	}
	for _, q := range e.queues {
		close(q)
	}
	senders.Wait()
	if expandErr != nil {
		return nil, fmt.Errorf("explore: %w", expandErr)
	}
	rep = &LayerReport{SendFailures: int(e.sendFails.Load())}
	for w := range aggs {
		a := &aggs[w]
		rep.Deadlocks += a.deadlocks
		rep.Transitions += a.transitions
		rep.Truncated = rep.Truncated || a.truncated
		rep.Incorrect = rep.Incorrect || a.incorrect
		if a.maxEnabled > rep.MaxEnabled {
			rep.MaxEnabled = a.maxEnabled
		}
		for _, iv := range a.viols {
			rep.Viols = append(rep.Viols, LayerViol{
				Item: iv.item, Kind: iv.wv.kind, Msg: iv.wv.msg, Sel: iv.wv.sel, Key: iv.wv.key,
			})
		}
	}
	return rep, nil
}

func (e *peerEngine[S]) FinishLayer() bool {
	return e.capTrunc.Swap(false)
}

func (e *peerEngine[S]) shard(s int) (*peerShard, error) {
	ps, ok := e.shards[s]
	if !ok {
		return nil, fmt.Errorf("explore: shard %d is not hosted by peer %d", s, e.self)
	}
	return ps, nil
}

func (e *peerEngine[S]) PendMeta(shard int) (meta []PendMeta, err error) {
	defer catchIO(&err)
	ps, err := e.shard(shard)
	if err != nil {
		return nil, err
	}
	ps.drained = ps.vs.Drain()
	meta = make([]PendMeta, len(ps.drained))
	for i, f := range ps.drained {
		meta[i] = PendMeta{Pos: f.Pos, Parent: f.Parent, Sel: f.Sel}
	}
	return meta, nil
}

func (e *peerEngine[S]) Commit(shard int, keep int, gids []int32, housekeep bool) (err error) {
	defer catchIO(&err)
	ps, err := e.shard(shard)
	if err != nil {
		return err
	}
	if ps.drained == nil {
		ps.drained = ps.vs.Drain()
	}
	if keep != len(gids) || keep > len(ps.drained) {
		return fmt.Errorf("explore: commit of %d entries (%d gids) does not fit %d pending", keep, len(gids), len(ps.drained))
	}
	oldFrom := ps.layerFrom
	nBefore := int32(ps.vs.States())
	for i, f := range ps.drained {
		if i < keep {
			ps.vs.Promote(f)
			ps.gidOf = append(ps.gidOf, gids[i])
		} else {
			ps.vs.Drop(f)
		}
	}
	ps.drained = nil
	ps.vs.Reset()
	if housekeep {
		if err := ps.vs.Housekeep(oldFrom); err != nil {
			return err
		}
	}
	ps.layerFrom = nBefore
	return nil
}

func (e *peerEngine[S]) Keys(shard int, gids []int32) (keys [][]uint64, err error) {
	defer catchIO(&err)
	ps, err := e.shard(shard)
	if err != nil {
		return nil, err
	}
	keys = make([][]uint64, len(gids))
	for i, g := range gids {
		lid, ok := slices.BinarySearch(ps.gidOf, g)
		if !ok {
			return nil, fmt.Errorf("explore: gid %d is not committed to shard %d", g, shard)
		}
		keys[i] = copyWords(ps.vs.Key(int32(lid)))
	}
	return keys, nil
}

func (e *peerEngine[S]) Rollback() error {
	for _, s := range e.hosted {
		ps := e.shards[s]
		ps.drained = nil
		for _, f := range ps.vs.Drain() {
			ps.vs.Drop(f)
		}
		ps.vs.Reset()
	}
	e.capTrunc.Store(false)
	return nil
}

// --- shard snapshots (the unit of work migration) ------------------------------

var shardMagic = [8]byte{'C', 'C', 'S', 'H', 'D', '0' + checkpointVersion, '\r', '\n'}

func (e *peerEngine[S]) SnapshotShard(shard int, w io.Writer) (err error) {
	defer catchIO(&err)
	ps, err := e.shard(shard)
	if err != nil {
		return err
	}
	if ps.vs.Pending() != 0 {
		return fmt.Errorf("explore: shard %d snapshot requested mid-layer (%d pending)", shard, ps.vs.Pending())
	}
	c := newCkptWriter(w)
	c.bytes(shardMagic[:])
	c.bytes(e.ohash[:])
	c.int(e.nShards)
	c.int(shard)
	c.int(e.words)
	c.int(ps.vs.States())
	c.i32(ps.layerFrom)
	for _, g := range ps.gidOf {
		c.i32(g)
	}
	if c.err == nil {
		if c.err = ps.vs.writeArenaHashed(c); c.err != nil {
			return c.err
		}
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], c.sum.Sum64())
	if c.err == nil {
		_, c.err = c.w.Write(b[:])
	}
	if c.err == nil {
		c.err = c.w.Flush()
	}
	return c.err
}

func (e *peerEngine[S]) AdoptShard(shard int, r io.Reader) (err error) {
	defer catchIO(&err)
	if _, hosted := e.shards[shard]; hosted {
		return fmt.Errorf("explore: shard %d is already hosted by peer %d", shard, e.self)
	}
	if shard < 0 || shard >= e.nShards {
		return fmt.Errorf("explore: shard %d out of range [0,%d)", shard, e.nShards)
	}
	c := newCkptReader(r)
	var magic [8]byte
	c.bytes(magic[:])
	if c.err == nil && magic != shardMagic {
		return fmt.Errorf("explore: not a shard snapshot (or version drift)")
	}
	var ohash [32]byte
	c.bytes(ohash[:])
	if c.err == nil && ohash != e.ohash {
		return fmt.Errorf("explore: shard snapshot is for a different (model, options) tuple")
	}
	if n := c.int(); c.err == nil && n != e.nShards {
		return fmt.Errorf("explore: shard snapshot from a %d-shard cluster, want %d", n, e.nShards)
	}
	if s := c.int(); c.err == nil && s != shard {
		return fmt.Errorf("explore: snapshot holds shard %d, want %d", s, shard)
	}
	if w := c.int(); c.err == nil && w != e.words {
		return fmt.Errorf("explore: shard snapshot word width %d != codec %d", w, e.words)
	}
	nstates := c.int()
	layerFrom := c.i32()
	if c.err == nil && (nstates < 0 || nstates > snapLimit/8/e.words) {
		return fmt.Errorf("explore: shard snapshot state count %d out of range", nstates)
	}
	if c.err == nil && (layerFrom < 0 || int(layerFrom) > nstates) {
		return fmt.Errorf("explore: shard snapshot layer start %d out of range", layerFrom)
	}
	var gidOf []int32
	if c.err == nil {
		gidOf = make([]int32, nstates)
		prev := int32(-1)
		for i := range gidOf {
			gidOf[i] = c.i32()
			if c.err == nil && gidOf[i] <= prev {
				return fmt.Errorf("explore: shard snapshot gid table is not increasing")
			}
			prev = gidOf[i]
		}
	}
	if c.err != nil {
		return fmt.Errorf("explore: shard snapshot read: %v", c.err)
	}
	vs := e.newShardVisited()
	arenaBytes := int64(nstates) * int64(e.words) * 8
	if err := vs.RestoreArena(io.LimitReader(hashedReader{c}, arenaBytes), nstates, layerFrom); err != nil {
		vs.Close()
		return err
	}
	want := c.sum.Sum64()
	var b [8]byte
	if _, err := io.ReadFull(c.r, b[:]); err != nil {
		vs.Close()
		return fmt.Errorf("explore: shard snapshot checksum: %v", err)
	}
	if got := binary.LittleEndian.Uint64(b[:]); got != want {
		vs.Close()
		return fmt.Errorf("explore: shard snapshot checksum mismatch (torn or corrupted file)")
	}
	e.shards[shard] = &peerShard{vs: vs, gidOf: gidOf, layerFrom: layerFrom}
	e.rebuildHosted()
	return nil
}

// --- frontier frames -----------------------------------------------------------

// Frame layout (little-endian), reusing the codec's raw word encoding
// for state keys:
//
//	header:  "CCFW" u8 version u8 0 u16 words u32 count
//	probe:   u8 1  u32 shard  u64 pos  u32 parent  u8 selLen  sel  key
//	capchk:  u8 2  u32 shard  key
const (
	frameVersion   = 1
	frameHeaderLen = 12
	recProbe       = 1
	recCapCheck    = 2
)

var frameMagic = [4]byte{'C', 'C', 'F', 'W'}

// peerOutbox buffers outgoing records for one worker, one frame buffer
// per destination peer, so expansion never takes a lock to emit a
// record; frames flush at the record threshold and at expansion end.
type peerOutbox struct {
	e interface {
		outCtx() (nShards int, flushAt int, words int)
		routeOf(shard int) int
		localShard(shard int) *peerShard
		// deliver takes ownership of frame and returns a buffer to
		// build the next frame in.
		deliver(dst int, frame []byte) []byte
	}
	bufs   [][]byte
	counts []int
}

func (ob *peerOutbox) init() {
	nShards, _, _ := ob.e.outCtx()
	ob.bufs = make([][]byte, nShards)
	ob.counts = make([]int, nShards)
	for d := range ob.bufs {
		ob.bufs[d] = ob.header(make([]byte, 0, 1<<12))
	}
}

// header starts a frame in buf (count patched at flush).
func (ob *peerOutbox) header(buf []byte) []byte {
	_, _, words := ob.e.outCtx()
	buf = append(buf[:0], frameMagic[:]...)
	buf = append(buf, frameVersion, 0)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(words))
	return binary.LittleEndian.AppendUint32(buf, 0)
}

func (ob *peerOutbox) sink(key []uint64, hash uint64, pos uint64, parent int32, sel []byte) {
	shard := ShardOf(hash, len(ob.bufs))
	if ps := ob.e.localShard(shard); ps != nil {
		ps.vs.Probe(key, hash, pos, parent, sel)
		return
	}
	dst := ob.e.routeOf(shard)
	buf := ob.bufs[dst]
	buf = append(buf, recProbe)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	buf = binary.LittleEndian.AppendUint64(buf, pos)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(parent))
	buf = append(buf, byte(len(sel)))
	buf = append(buf, sel...)
	for _, w := range key {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	ob.bufs[dst] = buf
	ob.bump(dst)
}

func (ob *peerOutbox) capMiss(key []uint64, hash uint64) bool {
	shard := ShardOf(hash, len(ob.bufs))
	if ps := ob.e.localShard(shard); ps != nil {
		return !ps.vs.Contains(key, hash)
	}
	dst := ob.e.routeOf(shard)
	buf := ob.bufs[dst]
	buf = append(buf, recCapCheck)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(shard))
	for _, w := range key {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	ob.bufs[dst] = buf
	ob.bump(dst)
	// The owner answers the membership question and folds a miss into
	// its own FinishLayer flag; truncation is a layer-global OR, so
	// where the bit lands cannot show in the result.
	return false
}

func (ob *peerOutbox) bump(dst int) {
	ob.counts[dst]++
	if _, flushAt, _ := ob.e.outCtx(); ob.counts[dst] >= flushAt {
		ob.flush(dst)
	}
}

func (ob *peerOutbox) flush(dst int) {
	if ob.counts[dst] == 0 {
		return
	}
	buf := ob.bufs[dst]
	binary.LittleEndian.PutUint32(buf[8:frameHeaderLen], uint32(ob.counts[dst]))
	ob.bufs[dst] = ob.header(ob.e.deliver(dst, buf))
	ob.counts[dst] = 0
}

func (ob *peerOutbox) flushAll() {
	for d := range ob.bufs {
		ob.flush(d)
	}
}

func (e *peerEngine[S]) outCtx() (int, int, int) { return e.nShards, e.flushAt, e.words }
func (e *peerEngine[S]) routeOf(shard int) int   { return e.route[shard] }
func (e *peerEngine[S]) localShard(shard int) *peerShard {
	return e.shards[shard]
}
func (e *peerEngine[S]) noteCapTrunc() { e.capTrunc.Store(true) }

// deliver queues a flushed frame for dst's sender, blocking while that
// destination already has sendQueue frames waiting, and hands back a
// recycled buffer.
func (e *peerEngine[S]) deliver(dst int, frame []byte) []byte {
	e.queues[dst] <- frame
	select {
	case buf := <-e.free:
		return buf
	default:
		return make([]byte, 0, 1<<12)
	}
}

// runSender sends dst's frames in queue order until Expand closes the
// queue, counting each failed send; a failure does not stop the later
// frames, so every frame is either acknowledged or counted.
func (e *peerEngine[S]) runSender(dst int, q <-chan []byte) {
	for frame := range q {
		if e.send == nil || e.send(dst, frame) != nil {
			e.sendFails.Add(1)
		}
		select {
		case e.free <- frame:
		default:
		}
	}
}

func (e *peerEngine[S]) Ingest(frame []byte) (err error) {
	defer catchIO(&err)
	if len(frame) < frameHeaderLen {
		return fmt.Errorf("explore: short frontier frame (%d bytes)", len(frame))
	}
	if [4]byte(frame[:4]) != frameMagic || frame[4] != frameVersion {
		return fmt.Errorf("explore: not a frontier frame (or version drift)")
	}
	if w := int(binary.LittleEndian.Uint16(frame[6:8])); w != e.words {
		return fmt.Errorf("explore: frame word width %d != codec %d", w, e.words)
	}
	count := int(binary.LittleEndian.Uint32(frame[8:frameHeaderLen]))
	p := frame[frameHeaderLen:]
	key := make([]uint64, e.words)
	keyBytes := 8 * e.words
	for rec := 0; rec < count; rec++ {
		if len(p) < 5 {
			return fmt.Errorf("explore: truncated frontier frame (record %d)", rec)
		}
		kind := p[0]
		shard := int(binary.LittleEndian.Uint32(p[1:5]))
		p = p[5:]
		ps, ok := e.shards[shard]
		if !ok {
			return fmt.Errorf("explore: frame for shard %d, which peer %d does not host (stale route?)", shard, e.self)
		}
		switch kind {
		case recProbe:
			if len(p) < 13 {
				return fmt.Errorf("explore: truncated frontier frame (record %d)", rec)
			}
			pos := binary.LittleEndian.Uint64(p[:8])
			parent := int32(binary.LittleEndian.Uint32(p[8:12]))
			selLen := int(p[12])
			p = p[13:]
			if len(p) < selLen+keyBytes {
				return fmt.Errorf("explore: truncated frontier frame (record %d)", rec)
			}
			sel := p[:selLen]
			p = p[selLen:]
			for i := range key {
				key[i] = binary.LittleEndian.Uint64(p[i*8:])
			}
			p = p[keyBytes:]
			h := hashWords(key)
			if ShardOf(h, e.nShards) != shard {
				return fmt.Errorf("explore: frame record %d: key is not owned by shard %d", rec, shard)
			}
			ps.vs.Probe(key, h, pos, parent, sel)
		case recCapCheck:
			if len(p) < keyBytes {
				return fmt.Errorf("explore: truncated frontier frame (record %d)", rec)
			}
			for i := range key {
				key[i] = binary.LittleEndian.Uint64(p[i*8:])
			}
			p = p[keyBytes:]
			h := hashWords(key)
			if ShardOf(h, e.nShards) != shard {
				return fmt.Errorf("explore: frame record %d: key is not owned by shard %d", rec, shard)
			}
			if !ps.vs.Contains(key, h) {
				e.noteCapTrunc()
			}
		default:
			return fmt.Errorf("explore: unknown frontier record kind %d", kind)
		}
	}
	if len(p) != 0 {
		return fmt.Errorf("explore: %d trailing bytes after frontier frame", len(p))
	}
	return nil
}
