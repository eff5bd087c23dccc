package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/store"
)

// cell is one exhaustive job with its pinned reference: the exact
// state and transition counts, the verdict, and the SHA-256 of the
// verdict bytes ExecuteOpts produces for it at this commit.
type cell struct {
	spec        store.JobSpec
	states      int
	transitions int64
	verdict     string
	sha         string
}

// warmCell is the first request of every explore workload's setup; its
// counts are the ones BENCH_explore.json pins for the same cell.
var warmCell = cell{
	spec:   store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc-full"},
	states: 63172, transitions: 172036, verdict: "verified",
	sha: "b7b259f6a806def08e5984b4346d34d8cdf84b7ababbe517120ece1df5d75af6",
}

// verifyCells is the verify grid; each cell stresses one part of the
// explorer (see README.md).
var verifyCells = []cell{
	{spec: store.JobSpec{Alg: "cc1", Topo: "triples:3", Daemon: "all-subsets", Init: "legit", MaxStates: 400_000},
		states: 400000, transitions: 10789242, verdict: "bounded",
		sha: "82577083c8470a99b35e1ab0c2a3bc631331205f55ba607dfd1c50f73ff1f205"},
	{spec: store.JobSpec{Alg: "token-ring", Topo: "ring:7", Daemon: "central", MaxStates: 600_000},
		states: 600000, transitions: 4942716, verdict: "bounded",
		sha: "983637fcd8cd242d921b4d4ef3d84c5201e1f4f2b7cabc5a7408bb6bde4904a6"},
	{spec: store.JobSpec{Alg: "cc2", Topo: "ring:5", Daemon: "central", Init: "cc", MaxStates: -1},
		states: 828919, transitions: 3143416, verdict: "verified",
		sha: "012dcfcd306626f0674db46c8432bac8380ee6fa1e6febc8c86d611b1840635e"},
	{spec: store.JobSpec{Alg: "token-ring", Topo: "ring:7", Daemon: "central", Symmetry: true, MaxStates: 150_000},
		states: 150000, transitions: 1194420, verdict: "bounded",
		sha: "c752124b860c80f9e7094116475495265aae5abe4cb13a51eda48d38dbb98034"},
	{spec: store.JobSpec{Alg: "cc2", Topo: "ring:4", Daemon: "central", Init: "cc-full", MaxStates: 300_000},
		states: 300000, transitions: 1075816, verdict: "bounded",
		sha: "f514c8cab99a52528034fe8cca9e7aa7c90572ab28ecc14595d97f50646735d0"},
}

// tinyCells are the smoke-test grid: the same cells capped small, with
// no pinned counts (the read-back and cross-path checks still apply).
func tinyCells(cells []cell) []cell {
	out := make([]cell, len(cells))
	for i, c := range cells {
		c.spec.MaxStates = 2000
		out[i] = cell{spec: c.spec}
	}
	return out
}

func shaHex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// check compares a result and its bytes against the cell's pins.
func (c cell) check(res *explore.Result, raw []byte) error {
	if c.verdict == "" {
		return nil
	}
	if res.States != c.states || res.Transitions != c.transitions || res.Verdict() != c.verdict {
		return fmt.Errorf("%s: got %d states, %d transitions, %s; pinned %d, %d, %s",
			c.spec.Canonical(), res.States, res.Transitions, res.Verdict(), c.states, c.transitions, c.verdict)
	}
	if c.sha != "" && shaHex(raw) != c.sha {
		return fmt.Errorf("%s: verdict bytes sha256 %s, pinned %s", c.spec.Canonical(), shaHex(raw), c.sha)
	}
	return nil
}

// phases are the explorer's timings derived from the Progress hook:
// Progress fires at every chunk boundary, so the gap before the first
// one is init seeding plus the first chunk, gaps inside a BFS layer are
// expansion, gaps that cross a layer boundary are serial promotion and
// housekeeping, and the time after the last one is the tail.
type phases struct {
	mu     sync.Mutex
	ticks  []time.Time
	depths []int
}

func (p *phases) hook(pr explore.Progress) {
	p.mu.Lock()
	p.ticks = append(p.ticks, time.Now())
	p.depths = append(p.depths, pr.Depth)
	p.mu.Unlock()
}

type phaseTimes struct{ seed, expand, layerGap, tail time.Duration }

func (p *phases) split(start, end time.Time) phaseTimes {
	var t phaseTimes
	if len(p.ticks) == 0 {
		t.seed = end.Sub(start)
		return t
	}
	t.seed = p.ticks[0].Sub(start)
	for i := 1; i < len(p.ticks); i++ {
		gap := p.ticks[i].Sub(p.ticks[i-1])
		if p.depths[i] == p.depths[i-1] {
			t.expand += gap
		} else {
			t.layerGap += gap
		}
	}
	t.tail = end.Sub(p.ticks[len(p.ticks)-1])
	return t
}

// layerSpans records one explore.layer span per BFS layer, as children
// of the ExecuteOpts span: a layer ends at its last chunk boundary.
func (p *phases) layerSpans(tr *tracer, parent int64, start, end time.Time) {
	from := start
	for i := range p.ticks {
		if i+1 < len(p.ticks) && p.depths[i+1] == p.depths[i] {
			continue
		}
		tr.add(fmt.Sprintf("explore.layer.%d", p.depths[i]), from, p.ticks[i], parent, "")
		from = p.ticks[i]
	}
	tr.add("explore.tail", from, end, parent, "")
}

// exploreTotals accumulates the verify and cluster per-cell figures.
type exploreTotals struct {
	ops                 Recorder // ms per cell
	states              int
	transitions         int64
	layers, checkpoints int
	phase               phaseTimes
	execWall            time.Duration
	symStates           int
	symWall             time.Duration
	maxStates           int
	perCell             map[string]*Recorder
	cellPhase           map[string]phaseTimes
}

// runExploreCell executes one cell the way cccheck -cache does: probe
// the store, explore (ExecuteOpts, or ExecuteCluster when peers are
// given), Put. It then reads the entry back and checks its bytes
// against what Put returned, against the pinned reference, and — when
// ref is given — against single-node bytes.
func (b *bench) runExploreCell(st *timedStore, c cell, workers int, peers []string, ref []byte, tot *exploreTotals) {
	b.attempt()
	spec := c.spec.Canonical()
	opID := b.tr.reserve()
	start := time.Now()
	if _, _, hit := st.Get(spec); hit {
		b.fail("%s: fresh store already holds the cell", spec)
		return
	}
	var ph phases
	var stats explore.RunStats
	eo := campaign.ExecOptions{Workers: workers, Stats: &stats}
	cs := time.Now()
	var res *explore.Result
	var err error
	name := "campaign.ExecuteOpts"
	if peers != nil {
		name = "campaign.ExecuteCluster"
		res, err = campaign.ExecuteCluster(context.Background(), spec, peers, eo)
	} else {
		eo.Checkpoints, eo.CheckpointEvery, eo.Progress = st, 1_000_000, ph.hook
		res, err = campaign.ExecuteOpts(context.Background(), spec, eo)
	}
	ce := time.Now()
	if err != nil {
		b.fail("%s: %v", spec, err)
		return
	}
	raw, err := st.Put(spec, res)
	end := time.Now()
	if err != nil {
		b.fail("%s: put: %v", spec, err)
		return
	}
	execID := b.tr.add(name, cs, ce, opID, "")
	if peers == nil {
		ph.layerSpans(b.tr, execID, cs, ce)
	}
	b.tr.addID(opID, "op.cell", start, end, 0, "")

	_, back, ok := st.Get(spec)
	switch {
	case !ok || !bytes.Equal(back, raw):
		b.fail("%s: read-back bytes differ from the bytes Put returned", spec)
		return
	case ref != nil && !bytes.Equal(raw, ref):
		b.fail("%s: cluster bytes differ from single-node ExecuteOpts bytes", spec)
		return
	}
	if err := c.check(res, raw); err != nil {
		b.fail("%v", err)
		return
	}
	wall := end.Sub(start)
	tot.ops.AddDur(wall)
	tot.states += res.States
	tot.maxStates = max(tot.maxStates, res.States)
	tot.transitions += res.Transitions
	tot.layers += res.Depth
	tot.checkpoints += stats.CheckpointsWritten
	tot.execWall += ce.Sub(cs)
	key := cellName(spec)
	if peers == nil {
		p := ph.split(cs, ce)
		tot.phase.seed += p.seed
		tot.phase.expand += p.expand
		tot.phase.layerGap += p.layerGap
		tot.phase.tail += p.tail
		if tot.cellPhase == nil {
			tot.cellPhase = map[string]phaseTimes{}
		}
		// Each phase shows on its own cell: seeding on cc-full,
		// expansion on triples, promotion between layers on ring:5.
		q := tot.cellPhase[key]
		q.seed, q.expand, q.layerGap, q.tail = q.seed+p.seed, q.expand+p.expand, q.layerGap+p.layerGap, q.tail+p.tail
		tot.cellPhase[key] = q
	}
	if spec.Symmetry {
		tot.symStates += res.States
		tot.symWall += ce.Sub(cs)
	}
	if tot.perCell == nil {
		tot.perCell = map[string]*Recorder{}
	}
	if tot.perCell[key] == nil {
		tot.perCell[key] = &Recorder{}
	}
	tot.perCell[key].AddDur(wall)
}

func cellName(s store.JobSpec) string {
	n := strings.NewReplacer("/", "_", ":", "").Replace(s.String())
	if s.MaxStates > 0 {
		n += fmt.Sprintf("_%dk", s.MaxStates/1000)
	}
	return n
}

// passes is how many whole passes over a grid fit the measured
// seconds, at least one: every run measures complete passes, so the
// mix of cells — and with it states/s — is the same in every run.
func passes(seconds, nominal float64) int {
	return max(1, int(math.Round(seconds/nominal)))
}

func runVerify(b *bench) error {
	workers := runtime.NumCPU()
	cells := verifyCells
	if b.o.tiny {
		cells = tinyCells(cells)
	}
	b.env["engine"] = "dir"
	b.env["workers"] = workers
	b.env["cells"] = len(cells)

	// Setup, setupRepeats times: open a fresh store and run the warm-up
	// cell through the same path as every timed cell.
	var setups []float64
	var st *timedStore
	for i := range setupRepeats {
		t := time.Now()
		s, err := b.openStore("dir", fmt.Sprintf("store-%d", i))
		if err != nil {
			return err
		}
		var warm exploreTotals
		b.runExploreCell(s, warmCell, workers, nil, nil, &warm)
		setups = append(setups, time.Since(t).Seconds())
		st = s
	}
	b.e2e["setup_s"] = metric{median(setups), "s"}

	// The grid is the input; it is the same for every seed, in a fixed
	// order (the order moves the heap peak).
	grid := cells
	n := passes(b.o.seconds, 15)
	var tot exploreTotals
	b.begin()
	for pass := range n {
		if pass > 0 {
			// Every pass starts from an empty cache, like the first.
			var err error
			if st, err = b.openStore("dir", fmt.Sprintf("pass-%d", pass)); err != nil {
				return err
			}
		}
		for _, c := range grid {
			b.runExploreCell(st, c, workers, nil, nil, &tot)
		}
	}
	b.end(tot.ops.N())
	b.heapPeak()
	b.exploreMetrics(&tot, true)
	return nil
}

// exploreMetrics reports the verify/cluster figures: states/s and
// mean cell time end to end, and the explorer's phases per layer.
func (b *bench) exploreMetrics(tot *exploreTotals, progress bool) {
	wallMs := tot.ops.Sum()
	b.e2e["work_per_s"] = metric{float64(tot.states) / (wallMs / 1e3), "1/s"}
	b.e2e["op_ms"] = metric{tot.ops.Mean(), "ms"}
	b.row("states_per_s", float64(tot.states)/(wallMs/1e3), "1/s", tot.ops.N())
	for _, k := range sortedKeys(tot.perCell) {
		b.row("cell."+k+"_s", tot.perCell[k].Mean()/1e3, "s", tot.perCell[k].N())
		if p, ok := tot.cellPhase[k]; ok {
			b.row("cell."+k+".seed_s", p.seed.Seconds(), "s", 0)
			b.row("cell."+k+".expand_s", p.expand.Seconds(), "s", 0)
			b.row("cell."+k+".layer_gap_s", p.layerGap.Seconds(), "s", 0)
		}
	}
	b.row("explore.states", float64(tot.states), "count", 0)
	b.row("explore.transitions", float64(tot.transitions), "count", 0)
	b.row("explore.layers", float64(tot.layers), "count", 0)
	b.row("explore.checkpoints", float64(tot.checkpoints), "count", 0)
	exec := tot.execWall.Seconds()
	if progress {
		b.row("explore.seed_s", tot.phase.seed.Seconds(), "s", 0)
		b.row("explore.expand_s", tot.phase.expand.Seconds(), "s", 0)
		b.row("explore.layer_gap_s", tot.phase.layerGap.Seconds(), "s", 0)
		b.row("explore.tail_s", tot.phase.tail.Seconds(), "s", 0)
	}
	if tot.symWall > 0 {
		b.row("explore.sym_states_per_s", float64(tot.symStates)/tot.symWall.Seconds(), "1/s", 0)
	}
	if tot.states > 0 {
		b.row("explore.alloc_bytes_per_state", float64(b.win.alloc)/float64(tot.states), "B", 0)
		// The peak heap is reached in the largest cell.
		b.row("explore.heap_bytes_per_state", float64(b.win.peak.Load())/float64(tot.maxStates), "B", 0)
	}
	if b.tr == nil {
		return
	}
	b.layer["explore.states_per_op"] = metric{float64(tot.states) / float64(max(tot.ops.N(), 1)), "count"}
	if progress && exec > 0 {
		b.layer["explore.seed_frac"] = metric{tot.phase.seed.Seconds() / exec, "frac"}
		b.layer["explore.expand_frac"] = metric{tot.phase.expand.Seconds() / exec, "frac"}
		b.layer["explore.layer_gap_frac"] = metric{tot.phase.layerGap.Seconds() / exec, "frac"}
		b.layer["explore.tail_frac"] = metric{tot.phase.tail.Seconds() / exec, "frac"}
	}
}

func (b *bench) path(name string) string { return filepath.Join(b.dir, name) }

// openStore opens a verdict store of the given engine under the run's
// scratch directory, on a counting FS, behind the timing wrapper.
func (b *bench) openStore(engine, name string) (*timedStore, error) {
	st, err := store.OpenEngine(engine, b.path(name), b.fs())
	if err != nil {
		return nil, err
	}
	ts := newTimedStore(st, b.tr)
	b.stores = append(b.stores, ts)
	return ts, nil
}

// resultBytes is the JSON a store entry's result is encoded as (the
// single-node reference for the cluster workload).
func resultBytes(res *explore.Result) []byte {
	raw, _ := json.Marshal(res)
	return raw
}
