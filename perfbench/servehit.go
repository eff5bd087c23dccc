package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/serve"
	"repro/internal/store"
)

// corpusBases are small cells whose results the corpus stores under
// many MaxStates values above their reached state count: every entry
// is then a correct verdict under a distinct content key.
var corpusBases = []store.JobSpec{
	{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit"},
	{Alg: "cc1", Topo: "ring:3", Daemon: "central", Init: "cc"},
	{Alg: "cc3", Topo: "ring:3", Daemon: "central", Init: "cc"},
	{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc-full"},
	{Alg: "cc1", Topo: "ring:3", Daemon: "all-subsets", Init: "cc-full"},
}

var (
	baseOnce    sync.Once
	baseResults []*explore.Result
	baseErr     error
)

func bases() ([]*explore.Result, error) {
	baseOnce.Do(func() {
		for _, s := range corpusBases {
			res, err := campaign.ExecuteOpts(context.Background(), s, campaign.ExecOptions{Workers: 1})
			if err != nil {
				baseErr = err
				return
			}
			baseResults = append(baseResults, res)
		}
	})
	return baseResults, baseErr
}

// corpus is a store of n real verdicts and the bytes Put returned for
// each.
type corpus struct {
	specs []store.JobSpec
	refs  map[string][]byte
}

// corpusSize is the serve-hit corpus: about 10^4 entries, but fewer
// than the 8192 topics ccserve's watch broker keeps (pubsub's default
// MaxTopics). With more keys than topics the broker retires a topic,
// by a scan of all of them, for every request to a key it dropped, and
// which keys it holds settles only over hundreds of thousands of
// requests: the hit rate drifted by a third within one run. The
// smoke-test size still exceeds the 1024 jobs ccserve keeps in memory,
// so hits read the store.
func corpusSize(tiny bool) int {
	if tiny {
		return 1500
	}
	return 8000
}

// buildCorpus fills dir with n entries through the given engine. It
// skips fsync: this is input preparation, not a measured write.
func (b *bench) buildCorpus(dir, engine string, n int) (*corpus, error) {
	res, err := bases()
	if err != nil {
		return nil, err
	}
	fsys := newCountFS(nil)
	fsys.noSync = true
	st, err := store.OpenEngine(engine, dir, fsys)
	if err != nil {
		return nil, err
	}
	c := &corpus{refs: make(map[string][]byte, n)}
	for i := range n {
		k := i % len(corpusBases)
		spec := corpusBases[k]
		spec.MaxStates = res[k].States + 1 + i/len(corpusBases)
		spec = spec.Canonical()
		raw, err := st.Put(spec, res[k])
		if err != nil {
			st.Close()
			return nil, err
		}
		c.specs = append(c.specs, spec)
		c.refs[spec.Key()] = raw
	}
	return c, st.Close()
}

// filterCase is one /v1/verdicts query and the count the corpus implies.
type filterCase struct {
	filter string
	want   int
}

func (c *corpus) filters() []filterCase {
	var out []filterCase
	for _, f := range []string{"alg=cc1", "alg=cc2", "alg=cc3", "alg=cc2,daemon=central", "verdict=verified"} {
		flt, _ := store.ParseFilter(f)
		n := 0
		for _, s := range c.specs {
			if flt.Match(s, "verified") {
				n++
			}
		}
		out = append(out, filterCase{f, n})
	}
	return out
}

// jobReply is the part of a job view the benchmark reads.
type jobReply struct {
	ID string `json:"id"`
}

// fetchVerdict submits spec and fetches its result bytes, following the
// documented "not ready" path: a submission that joined an in-flight
// placeholder gets 202 (cached:false) and polls the result until it is
// done. It returns the verdict bytes.
func (c *client) fetchVerdict(parent int64, base string, spec store.JobSpec) ([]byte, error) {
	body, _ := json.Marshal(spec)
	code, data, err := c.do(parent, "POST", base+"/v1/jobs", body)
	if err != nil {
		return nil, err
	}
	if code != 200 && code != 202 {
		return nil, fmt.Errorf("submit %s: status %d: %s", spec, code, data)
	}
	var j jobReply
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("submit %s: %v", spec, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, data, err = c.do(parent, "GET", base+"/v1/jobs/"+j.ID+"/result", nil)
		if err != nil {
			return nil, err
		}
		switch {
		case code == 200:
			return data, nil
		case code != 202 || time.Now().After(deadline):
			return nil, fmt.Errorf("result %s: status %d: %s", spec, code, data)
		}
		time.Sleep(time.Millisecond)
	}
}

func runServeHit(b *bench) error {
	n := corpusSize(b.o.tiny)
	b.env["engine"] = "dir"
	b.env["corpus"] = n
	b.env["clients"] = clients
	b.env["server_jobs"] = 2
	dir := b.path("corpus")
	t := time.Now()
	corp, err := b.buildCorpus(dir, "dir", n)
	if err != nil {
		return err
	}
	b.row("corpus.build_s", time.Since(t).Seconds(), "s", 0)

	rng := rand.New(rand.NewSource(b.o.seed))
	// Zipf popularity over a seed-permuted corpus: a popular head the
	// server keeps in memory (RetainJobs, 1024 jobs), a tail read from
	// the store. No request trace exists to fit it to; the offset is
	// chosen so that about seven in ten hits read the store, and the
	// median hit, which op_ms reports, is a store read. The table's
	// store.read_frac is the measured share.
	perm := rng.Perm(n)
	zipf := rand.NewZipf(rng, 1.1, 200, uint64(n-1))
	var zmu sync.Mutex
	nextSpec := func() store.JobSpec {
		zmu.Lock()
		defer zmu.Unlock()
		return corp.specs[perm[zipf.Uint64()]]
	}
	cl := newClient(b.tr)
	defer cl.close()
	hit := func(parent int64, spec store.JobSpec, base string) bool {
		b.attempt()
		raw, err := cl.fetchVerdict(parent, base, spec)
		switch {
		case err != nil:
			b.fail("%v", err)
		case !bytes.Equal(raw, corp.refs[spec.Key()]):
			b.fail("%s: served bytes differ from the bytes Put returned", spec)
		default:
			return true
		}
		return false
	}

	// Setup: restart over the corpus the way ccserve starts (open, GC
	// of temp files and checkpoints), serve, and answer a first request.
	// The first request is the same corpus entry every time, so it is
	// always a store read; the first restart warms the directory and is
	// not timed.
	var setups, opens []float64
	var p *peer
	m := b.mark()
	for i := range serveSetups + 1 {
		if p != nil {
			p.close()
			b.forget(m)
		}
		t := time.Now()
		st, err := b.openStore("dir", "corpus")
		if err != nil {
			return err
		}
		open := time.Since(t).Seconds()
		st.GCTemp()
		st.GCCheckpoints()
		ln, url, err := listen()
		if err != nil {
			return err
		}
		if p, err = b.startPeer(ln, url, st, serve.Config{Jobs: 2}, nil); err != nil {
			return err
		}
		hit(0, corp.specs[0], p.url)
		if i > 0 {
			opens = append(opens, open)
			setups = append(setups, time.Since(t).Seconds())
		}
	}
	defer p.close()
	b.e2e["setup_s"] = metric{median(setups), "s"}
	b.row("store.open_s", median(opens), "s", len(opens))

	// Warm-up, untimed: one request for every corpus entry, from the
	// least popular to the most, then Zipf hits. A long-running server
	// has seen its whole corpus: its watch broker holds a topic for
	// every key, the most popular jobs are the ones it keeps in memory,
	// and the entries' files are in the page cache. Without the sweep
	// the broker gained topics throughout the timed part, at a rate that
	// moved with the seed.
	sweep := func(i int) { hit(0, corp.specs[perm[n-1-i]], p.url) }
	if done, _ := closedLoop(0, n, time.Minute, sweep); done < n {
		b.fail("warm-up sweep stopped after %d of %d hits", done, n)
	}
	closedLoop(0, n/2, time.Minute, func(int) { hit(0, nextSpec(), p.url) })

	// The open loop offers rate, well under capacity, so it measures
	// latency rather than a queue; the closed-loop bursts run burst hits
	// per second of open loop, about capacity on a 2-vCPU machine, so
	// they take about as long in all as the open loop.
	rate, burst, span := 400.0, 5000.0, time.Duration(b.o.seconds/2*float64(time.Second))
	if b.o.tiny {
		rate = 50
	}
	// Poisson hits, plus a filter query every 2 s at fixed times: a
	// query builds a response of thousands of rows, so a run with one
	// query more than another would hold more heap and more CPU.
	type arrival struct {
		due   time.Duration
		query int // index into filters, or -1 for a hit
		spec  store.JobSpec
	}
	var plan []arrival
	for _, d := range arrivals(rng, rate, span) {
		plan = append(plan, arrival{due: d, query: -1, spec: nextSpec()})
	}
	filters := corp.filters()
	for k, d := 0, time.Second/2; d < span; k, d = k+1, d+2*time.Second {
		plan = append(plan, arrival{due: d, query: k % len(filters)})
	}
	slices.SortStableFunc(plan, func(a, b arrival) int { return cmp.Compare(a.due, b.due) })
	dues := make([]time.Duration, len(plan))
	for i, a := range plan {
		dues[i] = a.due
	}
	var hits, queries Recorder
	opSpan := func(name string, start time.Time, id int64) {
		b.tr.addID(id, name, start, time.Now(), 0, "")
	}

	b.begin()
	run := b.interleave(dues, span, burst, func(i int, due time.Time) {
		id := b.tr.reserve()
		if q := plan[i].query; q >= 0 {
			f := filters[q]
			b.attempt()
			code, data, err := cl.do(id, "GET", p.url+"/v1/verdicts?filter="+url.QueryEscape(f.filter), nil)
			var reply struct {
				Count int `json:"count"`
			}
			if err == nil {
				err = json.Unmarshal(data, &reply)
			}
			switch {
			case err != nil || code != 200:
				b.fail("query %s: status %d: %v", f.filter, code, err)
			case reply.Count != f.want:
				b.fail("query %s: %d rows, the corpus holds %d", f.filter, reply.Count, f.want)
			default:
				queries.AddDur(time.Since(due))
			}
			opSpan("op.query", due, id)
			return
		}
		if hit(id, plan[i].spec, p.url) {
			hits.AddDur(time.Since(due))
		}
		opSpan("op.hit", due, id)
	}, func(int) {
		id := b.tr.reserve()
		start := time.Now()
		hit(id, nextSpec(), p.url)
		opSpan("op.hit", start, id)
	})
	openOps := hits.N()
	b.end(openOps + queries.N() + run.closedOps)
	b.heapMean()

	p50, ok := hits.Quantile(0.5)
	if !ok {
		return fmt.Errorf("only %d hits in the open-loop phase", hits.N())
	}
	b.e2e["op_ms"] = metric{p50, "ms"}
	b.e2e["work_per_s"] = metric{run.rate, "1/s"}
	b.quantileRows("hit", "ms", &hits)
	b.row("hit_offered_rps", rate, "1/s", 0)
	b.row("hit_capacity_rps", run.rate, "1/s", run.closedOps)
	b.quantileRows("query", "ms", &queries)
	b.row("query_mean_ms", queries.Mean(), "ms", queries.N())
	b.quantileRows("loadgen.late", "ms", run.late)
	b.row("loadgen.late_max_ms", run.late.Max(), "ms", run.late.N())
	if openOps > 0 {
		f := float64(run.openReads) / float64(openOps)
		b.row("store.read_frac", f, "frac", openOps)
		b.layer["store.read_frac"] = metric{f, "frac"}
	}
	b.serveRows(cl, []*peer{p}, run.late)
	return nil
}

// storeReads counts Get and GetByKey calls so far in the timed part.
func (b *bench) storeReads() int {
	n := int64(0)
	for _, s := range b.stores {
		n += s.nReads.Load()
	}
	return int(n)
}
