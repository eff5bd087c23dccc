package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/pubsub"
	"repro/internal/serve"
	"repro/internal/store"
)

// missClasses are the synchronous random-init job families, with init
// counts chosen so each is a ≈25 ms exploration on one worker of a
// 2-CPU Xeon: a narrow job-size spread keeps the verdict latency
// quantiles steady across seeds.
var missClasses = []struct {
	alg, topo string
	inits     int
}{
	{"cc1", "ring:3", 230}, {"cc1", "ring:4", 107}, {"cc1", "star:4", 240},
	{"cc2", "ring:3", 430}, {"cc2", "ring:4", 160}, {"cc2", "star:4", 290},
	{"cc3", "ring:3", 344}, {"cc3", "ring:4", 128}, {"cc3", "star:4", 267},
}

// missSpecs returns a generator of fresh, distinct small specs made
// from the seed. The mix is stratified, not drawn: nine of every ten
// cycle through missClasses with seeded random inits, the tenth is a
// CC2 central run under a distinct state cap. Every seed explores the
// same mix of job sizes; only the inits and caps differ. It is not safe
// for concurrent use.
func missSpecs(seed int64) func() store.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	i := 0
	return func() store.JobSpec {
		for {
			var s store.JobSpec
			if k := i % (len(missClasses) + 1); k == len(missClasses) {
				s = store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc-full",
					MaxStates: 6000 + rng.Intn(1000)}
			} else {
				c := missClasses[k]
				s = store.JobSpec{Alg: c.alg, Topo: c.topo, Daemon: "synchronous",
					Init: "random", RandomInits: c.inits, Seed: 1 + rng.Int63n(1<<40)}
			}
			i++
			s = s.Canonical()
			if seen[s.Key()] || campaign.Validate(s) != nil {
				continue
			}
			seen[s.Key()] = true
			return s
		}
	}
}

// fleet is the serve-miss topology: two ccserve peers, each with its
// own store, gossiping committed verdicts to each other.
func (b *bench) startFleet(tag string) ([]*peer, error) {
	lns := make([]net.Listener, 2)
	urls := make([]string, 2)
	for i := range 2 {
		ln, url, err := listen()
		if err != nil {
			return nil, err
		}
		lns[i], urls[i] = ln, url
	}
	var peers []*peer
	for i := range 2 {
		st, err := b.openStore("dir", fmt.Sprintf("%s-peer%d", tag, i))
		if err != nil {
			return nil, err
		}
		p, err := b.startPeer(lns[i], urls[i], st, serve.Config{Jobs: 2}, []string{urls[1-i]})
		if err != nil {
			return nil, err
		}
		peers = append(peers, p)
	}
	return peers, nil
}

// warmVerdicts is how many fresh verdicts serve-miss runs before its
// timed part.
const warmVerdicts = 20

func runServeMiss(b *bench) error {
	b.env["engine"] = "dir"
	b.env["clients"] = clients
	b.env["peers"] = 2
	b.env["server_jobs"] = 2
	// The open loop offers rate, well under capacity; the closed-loop
	// bursts run burst verdicts per second of open loop, about capacity
	// on a 2-vCPU machine, so they take about as long in all as the open
	// loop.
	rate, burst, span := 20.0, 70.0, time.Duration(b.o.seconds/2*float64(time.Second))
	if b.o.tiny {
		rate = 25
	}
	rng := rand.New(rand.NewSource(b.o.seed))
	dues := arrivals(rng, rate, span)
	gen := missSpecs(b.o.seed)
	var genMu sync.Mutex
	fresh := func() store.JobSpec {
		genMu.Lock()
		defer genMu.Unlock()
		return gen()
	}

	cl := newClient(b.tr)
	defer cl.close()
	var firstEvent, fleetHit Recorder
	var explored atomic.Int64
	// verdict submits spec to p, follows its watch stream to the
	// terminal event, fetches the result, and checks the bytes against
	// what the peer's store.Put returned. It returns when the terminal
	// event arrived.
	verdict := func(parent int64, p *peer, spec store.JobSpec) (time.Time, bool) {
		b.attempt()
		body, _ := json.Marshal(spec)
		code, data, err := cl.do(parent, "POST", p.url+"/v1/jobs", body)
		var j jobReply
		if err == nil && (code == 200 || code == 202) {
			err = json.Unmarshal(data, &j)
		} else if err == nil {
			err = fmt.Errorf("status %d: %s", code, data)
		}
		if err != nil {
			b.fail("submit %s: %v", spec, err)
			return time.Time{}, false
		}
		first, ev, err := cl.watch(parent, p.url+"/v1/jobs/"+j.ID+"/watch")
		terminal := time.Now()
		if err != nil || ev.Type != pubsub.TypeVerdict {
			b.fail("watch %s: %v (event %q: %s)", spec, err, ev.Type, ev.Data)
			return terminal, false
		}
		firstEvent.AddDur(first)
		var view struct {
			States int64 `json:"states"`
		}
		json.Unmarshal(ev.Data, &view)
		explored.Add(view.States)
		code, raw, err := cl.do(parent, "GET", p.url+"/v1/jobs/"+j.ID+"/result", nil)
		want, ok := p.st.putRaw(spec.Key())
		switch {
		case err != nil || code != 200:
			b.fail("result %s: status %d: %v", spec, code, err)
		case !ok:
			b.fail("%s: served without a store.Put on the peer", spec)
		case string(raw) != string(want):
			b.fail("%s: served bytes differ from the bytes Put returned", spec)
		default:
			return terminal, true
		}
		return terminal, false
	}
	// fleetCheck polls the other peer until it serves the verdict as a
	// hit (gossip converged), from the terminal event on the first.
	fleetCheck := func(parent int64, other *peer, spec store.JobSpec, terminal time.Time, want []byte) {
		b.attempt()
		deadline := terminal.Add(20 * time.Second)
		for {
			code, raw, err := cl.do(parent, "GET", other.url+"/v1/jobs/"+spec.Key()+"/result", nil)
			switch {
			case err != nil:
				b.fail("fleet %s: %v", spec, err)
				return
			case code == 200 && string(raw) == string(want):
				fleetHit.AddDur(time.Since(terminal))
				return
			case code == 200:
				b.fail("fleet %s: the other peer serves different bytes", spec)
				return
			case time.Now().After(deadline):
				b.fail("fleet %s: not a hit on the other peer after 20 s (status %d)", spec, code)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Every set-up answers the same spec, a miss on its fresh stores,
	// so the set-ups do the same work; its cap lies outside the pool's
	// 6000–6999, so no arrival repeats it.
	first := store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc-full", MaxStates: 5000}.Canonical()
	var setups []float64
	var peers []*peer
	m := b.mark()
	for i := range serveSetups {
		closeAll(peers)
		b.forget(m)
		t := time.Now()
		var err error
		if peers, err = b.startFleet(fmt.Sprintf("fleet%d", i)); err != nil {
			return err
		}
		verdict(0, peers[0], first)
		setups = append(setups, time.Since(t).Seconds())
	}
	defer closeAll(peers)
	b.e2e["setup_s"] = metric{median(setups), "s"}

	// The open-loop plan, fixed by the seed: which peer, whether the
	// arrival duplicates an in-flight spec (≈10%), whether its fleet
	// convergence is sampled (every other arrival).
	type arrival struct {
		spec  store.JobSpec
		peer  int
		dup   bool
		fleet bool
	}
	plan := make([]arrival, len(dues))
	for i := range plan {
		plan[i] = arrival{spec: fresh(), peer: i % 2, dup: rng.Float64() < 0.1, fleet: i%2 == 1}
	}
	var inMu sync.Mutex
	inflight := map[int]arrival{}
	var verdicts, dupJoins Recorder
	opSpan := func(name string, start time.Time, id int64) {
		b.tr.addID(id, name, start, time.Now(), 0, "")
	}

	// Warm-up, untimed: a few fresh verdicts on each peer, so the timed
	// part starts from peers that have explored, stored and gossiped.
	closedLoop(0, warmVerdicts, time.Minute, func(i int) { verdict(0, peers[i%2], fresh()) })

	b.begin()
	explored.Store(0)
	run := b.interleave(dues, span, burst, func(i int, due time.Time) {
		id := b.tr.reserve()
		a := plan[i]
		inMu.Lock()
		if a.dup {
			// Resubmit a spec another client has in flight, to the same
			// peer: it joins the in-flight job (singleflight).
			for _, other := range inflight {
				a.spec, a.peer, a.fleet = other.spec, other.peer, false
				break
			}
		}
		inflight[i] = a
		inMu.Unlock()
		terminal, ok := verdict(id, peers[a.peer], a.spec)
		inMu.Lock()
		delete(inflight, i)
		inMu.Unlock()
		if ok {
			verdicts.AddDur(time.Since(due))
			if a.spec != plan[i].spec {
				dupJoins.Add(1)
			}
		}
		opSpan("op.verdict", due, id)
		if ok && a.fleet {
			want, _ := peers[a.peer].st.putRaw(a.spec.Key())
			fid := b.tr.reserve()
			fs := time.Now()
			fleetCheck(fid, peers[1-a.peer], a.spec, terminal, want)
			opSpan("op.fleet", fs, fid)
		}
	}, func(i int) {
		id := b.tr.reserve()
		start := time.Now()
		verdict(id, peers[i%2], fresh())
		opSpan("op.verdict", start, id)
	})
	b.end(verdicts.N() + run.closedOps)
	b.heapMean()

	p50, ok := verdicts.Quantile(0.5)
	if !ok {
		return fmt.Errorf("only %d verdicts in the open-loop phase", verdicts.N())
	}
	b.e2e["op_ms"] = metric{p50, "ms"}
	b.e2e["work_per_s"] = metric{run.rate, "1/s"}
	b.quantileRows("verdict", "ms", &verdicts)
	b.row("verdict_mean_ms", verdicts.Mean(), "ms", verdicts.N())
	b.row("verdict_offered_rps", rate, "1/s", 0)
	b.row("verdict_capacity_rps", run.rate, "1/s", run.closedOps)
	b.quantileRows("fleet_hit", "ms", &fleetHit)
	b.row("fleet_hit_mean_ms", fleetHit.Mean(), "ms", fleetHit.N())
	b.row("duplicate_submissions", float64(dupJoins.N()), "count", 0)
	b.quantileRows("pubsub.watch_first_event", "ms", &firstEvent)
	b.row("pubsub.watch_first_event_mean_ms", firstEvent.Mean(), "ms", firstEvent.N())
	b.quantileRows("loadgen.late", "ms", run.late)
	b.row("loadgen.late_max_ms", run.late.Max(), "ms", run.late.N())

	// Gossip: announces and ingests per node, and how many of the
	// other peer's commits each ingested.
	var puts, ingested int64
	for _, p := range peers {
		sv := p.gossip.StatusView()
		ingested += sv.Ingested
		var announced int64
		for _, l := range sv.Neighbors {
			announced += l.AnnouncedTo
		}
		b.row("gossip.announces."+strings.TrimPrefix(p.url, "http://"), float64(announced), "count", 0)
		p.st.mu.Lock()
		puts += int64(len(p.st.put))
		p.st.mu.Unlock()
	}
	b.row("gossip.ingested", float64(ingested), "count", 0)
	// Every Put is either a job's commit or a gossip ingest.
	if committed := puts - ingested; committed > 0 {
		b.row("gossip.ingest_ratio", float64(ingested)/float64(committed), "frac", 0)
	}
	var putBytes int64
	for _, p := range peers {
		p.st.mu.Lock()
		putBytes += p.st.putBytes
		p.st.mu.Unlock()
	}
	if putBytes > 0 {
		b.row("store.write_bytes_per_verdict_byte", float64(b.fsDelta().WriteBytes)/float64(putBytes), "ratio", 0)
	}
	b.serveRows(cl, peers, run.late)
	b.row("explore.states", float64(explored.Load()), "count", 0)
	b.layer["explore.states_per_op"] = metric{float64(explored.Load()) / float64(b.ops), "count"}
	return nil
}
