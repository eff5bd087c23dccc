package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/serve"
	"repro/internal/store"
)

// clusterCells run through campaign.ExecuteCluster: the only workload
// that exercises explore/peer.go and the BSP barrier.
var clusterCells = []cell{
	{spec: store.JobSpec{Alg: "token-ring", Topo: "ring:7", Daemon: "central", MaxStates: 300_000}},
	{spec: store.JobSpec{Alg: "cc1", Topo: "triples:3", Daemon: "all-subsets", Init: "legit", MaxStates: 200_000}},
}

// clusterWarm is the cluster setup's first request: one BFS layer of
// init seeding, so it costs one round of barrier RPCs, not dozens.
var clusterWarm = cell{spec: store.JobSpec{Alg: "cc2", Topo: "ring:4", Daemon: "central", Init: "cc-full", MaxStates: 3000}}

const clusterPeers = 2

// startCluster opens one shared store directory through a handle per
// peer and starts the peers on it.
func (b *bench) startCluster(dir string) ([]*peer, []string, error) {
	var peers []*peer
	var urls []string
	for range clusterPeers {
		st, err := b.openStore("dir", dir)
		if err != nil {
			return nil, nil, err
		}
		ln, url, err := listen()
		if err != nil {
			return nil, nil, err
		}
		p, err := b.startPeer(ln, url, st, serve.Config{Jobs: 1, JobWorkers: 1}, nil)
		if err != nil {
			return nil, nil, err
		}
		peers = append(peers, p)
		urls = append(urls, url)
	}
	return peers, urls, nil
}

func closeAll(peers []*peer) {
	for _, p := range peers {
		p.close()
	}
}

// singleNode computes the reference bytes: ExecuteOpts on one node.
func singleNode(c cell, workers int) ([]byte, error) {
	res, err := campaign.ExecuteOpts(context.Background(), c.spec, campaign.ExecOptions{Workers: workers})
	if err != nil {
		return nil, err
	}
	return resultBytes(res), nil
}

func runCluster(b *bench) error {
	nproc := runtime.NumCPU()
	peerWorkers := max(1, nproc/clusterPeers)
	cells := clusterCells
	if b.o.tiny {
		cells = tinyCells(cells)
	}
	b.env["engine"] = "dir"
	b.env["workers"] = fmt.Sprintf("%d peers x %d", clusterPeers, peerWorkers)
	b.env["cells"] = len(cells)

	// Single-node references (not timed).
	refs := map[string][]byte{}
	for _, c := range append([]cell{clusterWarm}, cells...) {
		raw, err := singleNode(c, nproc)
		if err != nil {
			return err
		}
		refs[c.spec.Canonical().Key()] = raw
	}

	var setups []float64
	var peers []*peer
	var urls []string
	for i := range setupRepeats {
		closeAll(peers)
		t := time.Now()
		var err error
		peers, urls, err = b.startCluster(fmt.Sprintf("shared-%d", i))
		if err != nil {
			return err
		}
		var warm exploreTotals
		b.runExploreCell(peers[0].st, clusterWarm, peerWorkers, urls, refs[clusterWarm.spec.Canonical().Key()], &warm)
		setups = append(setups, time.Since(t).Seconds())
	}
	defer func() { closeAll(peers) }()
	b.e2e["setup_s"] = metric{median(setups), "s"}

	grid := cells // the same for every seed, like verify's
	n := passes(b.o.seconds, 10)
	var tot exploreTotals
	b.begin()
	for pass := range n {
		if pass > 0 {
			// Every pass starts from an empty shared store, like the first.
			closeAll(peers)
			var err error
			if peers, urls, err = b.startCluster(fmt.Sprintf("shared-pass-%d", pass)); err != nil {
				return err
			}
		}
		for _, c := range grid {
			b.runExploreCell(peers[0].st, c, peerWorkers, urls, refs[c.spec.Canonical().Key()], &tot)
		}
	}
	b.end(tot.ops.N())
	b.heapPeak()
	b.exploreMetrics(&tot, false)

	// Barrier RPC time per method, from the middleware on every peer.
	rpc := map[string]float64{}
	var frames int
	var frameBytes int64
	total := 0.0
	for _, p := range peers {
		p.mw.mu.Lock()
		for name, r := range p.mw.routes {
			switch {
			case strings.HasPrefix(name, "cluster.rpc."):
				rpc[name] += r.Sum() / 1e3
				total += r.Sum() / 1e3
			case name == "cluster.frontier":
				frames += r.N()
			}
		}
		frameBytes += p.mw.rpcIn["cluster.frontier"]
		p.mw.mu.Unlock()
	}
	if b.tr != nil {
		for _, name := range sortedKeys(rpc) {
			b.row(name+"_s", rpc[name], "s", 0)
		}
		if total > 0 {
			b.row("cluster.expand_frac", rpc["cluster.rpc.expand"]/total, "frac", 0)
		}
		b.row("cluster.non_expand_s", total-rpc["cluster.rpc.expand"], "s", 0)
		b.row("cluster.frontier_frames", float64(frames), "count", 0)
		b.row("cluster.frontier_bytes", float64(frameBytes), "B", 0)
		b.row("cluster.store_write_bytes", float64(b.fsDelta().WriteBytes), "B", 0)
		b.layer["cluster.rpc_frac"] = metric{total / (tot.ops.Sum() / 1e3), "frac"}
		b.layer["serve.requests_per_op"] = metric{float64(b.serverRequests()) / float64(b.ops), "count"}
	}
	return nil
}

// serverRequests counts requests the middleware saw in the timed part.
func (b *bench) serverRequests() int {
	n := 0
	for _, m := range b.mws {
		for _, r := range m.routeStats() {
			n += r.N()
		}
	}
	return n
}
