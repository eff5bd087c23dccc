package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/hypergraph"
	"repro/internal/sim"
)

// watchedEngine wraps a peer engine to audit its asynchronous frame
// sender from outside: it counts every send the engine starts and
// every one that fails, tracks sends in flight per destination, and
// checks at the end of each Expand that no send is still running and
// that the report's SendFailures is exactly the failures it saw.
type watchedEngine struct {
	explore.PeerEngine
	t        *testing.T
	inflight []atomic.Int32 // per destination
	sent     atomic.Int64
	failed   atomic.Int64
	reports  map[int]*explore.LayerReport // per depth, last attempt
}

func (w *watchedEngine) SetSender(send func(dst int, frame []byte) error) {
	w.PeerEngine.SetSender(func(dst int, frame []byte) error {
		if n := w.inflight[dst].Add(1); n > 1 {
			w.t.Errorf("%d sends in flight to peer %d at once, want at most 1", n, dst)
		}
		defer w.inflight[dst].Add(-1)
		w.sent.Add(1)
		if w.sent.Load()%8 == 0 {
			// A slow link: lets the queues fill so workers block on
			// the window.
			time.Sleep(50 * time.Microsecond)
		}
		err := send(dst, frame)
		if err != nil {
			w.failed.Add(1)
		}
		return err
	})
}

func (w *watchedEngine) Expand(depth int, firstGid int32, atCap bool) (*explore.LayerReport, error) {
	w.sent.Store(0)
	w.failed.Store(0)
	rep, err := w.PeerEngine.Expand(depth, firstGid, atCap)
	for dst := range w.inflight {
		if n := w.inflight[dst].Load(); n != 0 {
			w.t.Errorf("Expand returned with %d sends to peer %d still in flight", n, dst)
		}
	}
	if err == nil && int64(rep.SendFailures) != w.failed.Load() {
		w.t.Errorf("depth %d: report counts %d send failures, sender saw %d of %d fail",
			depth, rep.SendFailures, w.failed.Load(), w.sent.Load())
	}
	w.reports[depth] = rep
	return rep, err
}

// runWatched runs the coordinator over a Local transport of watched
// engines (one frame per record, the most traffic the sender can
// see), checks its report against single-node, and returns the engines.
func runWatched(t *testing.T, npeers int, loss []chaos.PeerLoss) []*watchedEngine {
	factory := mustCC(t, core.CC2, hypergraph.CommitteeRing(3), explore.CCOptions{Init: explore.InitCC})
	opts := explore.Options{
		Mode: sim.SelectCentral, MaxStates: 6_000, Workers: 2,
		CheckDeadlock: true, CheckClosure: true,
	}
	watched := make([]*watchedEngine, npeers)
	engines := make([]explore.PeerEngine, npeers)
	for p := range engines {
		e, err := explore.NewPeer(factory, opts, explore.PeerConfig{
			NShards: npeers, Hosted: []int{p}, Self: p, FlushRecords: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		watched[p] = &watchedEngine{
			PeerEngine: e, t: t, inflight: make([]atomic.Int32, npeers),
			reports: map[int]*explore.LayerReport{},
		}
		engines[p] = watched[p]
	}
	tr := cluster.NewLocal(cluster.LocalConfig{
		Engines: engines, Snapshots: cluster.NewMemSnapshots(), Loss: loss,
	})
	defer tr.Close()
	res, err := cluster.Run(context.Background(), factory, opts, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if ref := oracleJSON(t, factory, opts); !bytes.Equal(got, ref) {
		t.Fatalf("cluster report differs from single-node:\n%s\nvs\n%s", got, ref)
	}
	return watched
}

// TestAsyncSenderDrainsBeforeExpandReturns: with every record its own
// frame and a slow link, each destination has one send in flight at a
// time, Expand returns only after every frame was sent, and the
// verdict is unchanged.
func TestAsyncSenderDrainsBeforeExpandReturns(t *testing.T) {
	watched := runWatched(t, 3, nil)
	for p, w := range watched {
		if len(w.reports) < 2 {
			t.Fatalf("peer %d expanded %d layers; the run is too small to exercise the sender", p, len(w.reports))
		}
	}
}

// TestAsyncSenderPeerLoss: a peer killed mid-layer after two frames
// keeps sending into a dead link; every one of its later frames fails,
// Expand still returns with each failure counted in SendFailures (the
// coordinator's cue to roll back), and after adoption the verdict is
// byte-identical to single-node.
func TestAsyncSenderPeerLoss(t *testing.T) {
	const depth = 2
	watched := runWatched(t, 3, []chaos.PeerLoss{{Peer: 1, Depth: depth, FramesBeforeDeath: 2}})
	rep := watched[1].reports[depth]
	if rep == nil || rep.SendFailures == 0 {
		t.Fatalf("the killed peer's layer-%d report counts no send failures: %+v", depth, rep)
	}
}
