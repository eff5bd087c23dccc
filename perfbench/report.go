package main

import (
	"strings"
)

// perLayer is the traced run's metric set, in BENCHMARK.json order.
// Every workload reports every name; a layer a workload does not
// exercise reads 0 (only shares and counts can be 0 — every time
// below is measured on all four workloads).
var perLayer = []struct{ name, unit string }{
	{"cpu_util", "frac"},
	{"gc_cpu_frac", "frac"},
	{"alloc_kb_per_op", "KB"},
	{"client.busy_frac", "frac"},
	{"serve.busy_frac", "frac"},
	{"campaign.busy_frac", "frac"},
	{"explore.busy_frac", "frac"},
	{"store.busy_frac", "frac"},
	{"fs.busy_frac", "frac"},
	{"explore.states_per_op", "count"},
	{"explore.seed_frac", "frac"},
	{"explore.expand_frac", "frac"},
	{"explore.layer_gap_frac", "frac"},
	{"explore.tail_frac", "frac"},
	{"store.read_us", "us"},
	{"store.read_frac", "frac"},
	{"store.calls_per_op", "count"},
	{"fs.syncs_per_op", "count"},
	{"fs.write_kb_per_op", "KB"},
	{"fs.read_kb_per_op", "KB"},
	{"serve.requests_per_op", "count"},
	{"cluster.rpc_frac", "frac"},
	{"loadgen.late_frac", "frac"},
	{"store.dir.open_ms", "ms"},
	{"store.log.open_ms", "ms"},
	{"store.dir.replay_us_per_call", "us"},
	{"store.log.replay_us_per_call", "us"},
	{"store.dir.disk_bytes_per_entry", "B"},
	{"store.log.disk_bytes_per_entry", "B"},
	{"trace.spans_per_op", "count"},
}

// finishLayers keeps exactly the perLayer names, filling the ones the
// workload did not touch with 0.
func (b *bench) finishLayers() {
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		v := b.layer[m.name]
		out[m.name] = metric{v.Value, m.unit}
	}
	b.layer = out
}

// serveRows reports what the serve workloads share: the server's own
// counters scraped from /metrics and, traced, per-route server time
// from the middleware and client time minus server time on the same
// request.
func (b *bench) serveRows(cl *client, peers []*peer, late *Recorder) {
	counters := map[string]float64{}
	for _, p := range peers {
		for k, v := range scrape(cl, p.url) {
			counters[k] += v
		}
	}
	b.row("serve.shed", counters["ccserve_requests_shed_total"], "count", 0)
	b.row("serve.deduped_submissions", counters["ccserve_jobs_deduped_total"], "count", 0)
	b.row("pubsub.events_published", counters["ccserve_events_published_total"], "count", 0)
	b.row("pubsub.evictions", counters["ccserve_watch_evictions_total"], "count", 0)
	if b.tr == nil {
		return
	}
	b.layer["loadgen.late_frac"] = metric{lateFrac(late), "frac"}
	b.layer["serve.requests_per_op"] = metric{float64(b.serverRequests()) / float64(b.ops), "count"}
	routes := map[string]*Recorder{}
	var first Recorder
	for _, p := range peers {
		for name, r := range p.mw.routeStats() {
			if routes[name] == nil {
				routes[name] = &Recorder{}
			}
			routes[name].Merge(r)
		}
		p.mw.mu.Lock()
		f := p.mw.first
		p.mw.mu.Unlock()
		first.Merge(f)
	}
	for _, name := range sortedKeys(routes) {
		b.quantileRows("serve."+name, "ms", routes[name])
		b.row("serve."+name+"_mean_ms", routes[name].Mean(), "ms", routes[name].N())
	}
	b.quantileRows("serve.watch_first_byte", "ms", &first)
	// Client overhead: the client span minus the server span with the
	// same request id — the transport's share of a request.
	server := map[string]int64{}
	spans := b.tr.snapshot()
	t0 := b.win.start.Sub(b.tr.t0).Nanoseconds()
	for _, sp := range spans {
		if sp.Req != "" && strings.HasPrefix(sp.Name, "serve.") && sp.Start >= t0 {
			server[sp.Req] = sp.End - sp.Start
		}
	}
	var overhead Recorder
	for _, sp := range spans {
		if s, ok := server[sp.Req]; ok && strings.HasPrefix(sp.Name, "client.") && sp.Name != "client.watch" {
			overhead.Add(float64(sp.End-sp.Start-s) / 1e6)
		}
	}
	b.quantileRows("serve.client_overhead", "ms", &overhead)
}
