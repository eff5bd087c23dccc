// Command perfbench is the repository's benchmark: one process runs one
// named workload against the checker built from this source tree,
// checks every verdict it produces against reference bytes, and prints
// the workload's metrics. The last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}; the lines before it
// are a human-readable table with sample counts and the environment.
//
//	bash perfbench/run.sh --workload verify --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the workload
// twice — untraced, then traced with spans recorded in memory — prints
// the per-layer metrics and the tracing overhead, and writes the spans
// to .bench_build/out/. See perfbench/README.md for the workloads and
// the layer → metric → end-to-end map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s
// is the median. A serve workload's set-up takes tens of milliseconds,
// so small that scheduling noise moves it; those repeat serveSetups
// times.
const (
	setupRepeats = 7
	serveSetups  = 31
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*bench) error{
	"verify":     runVerify,
	"serve-hit":  runServeHit,
	"serve-miss": runServeMiss,
	"cluster":    runCluster,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes, set by the package's tests
	work     string // scratch root inside the checkout
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one line of the human-readable table: a named metric with
// its sample count (0 for derived values that are not quantiles).
type row struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// bench is one pass of a workload: its options, tracer (nil when
// untraced), the wrappers it installed, and everything it measured.
type bench struct {
	o   options
	dir string
	tr  *tracer

	attempted, failed atomic.Int64
	failMu            sync.Mutex
	failures          []string

	stores []*timedStore
	fss    []*countFS
	mws    []*middleware

	e2e   map[string]metric
	layer map[string]metric
	rows  []row
	env   map[string]any
	win   *window // the timed part
	ops   int     // operations in the timed part
}

func newBench(o options, tr *tracer, tag string) (*bench, error) {
	dir := filepath.Join(o.work, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &bench{o: o, dir: dir, tr: tr, e2e: map[string]metric{}, layer: map[string]metric{},
		env: map[string]any{}}, nil
}

// fail counts one wrong or failed operation and keeps its message.
func (b *bench) fail(format string, args ...any) {
	b.failed.Add(1)
	b.failMu.Lock()
	if len(b.failures) < 20 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
	b.failMu.Unlock()
}

// attempt counts one operation whose outcome is checked.
func (b *bench) attempt() { b.attempted.Add(1) }

func (b *bench) fs() *countFS {
	f := newCountFS(b.tr)
	b.fss = append(b.fss, f)
	return f
}

func (b *bench) row(name string, v float64, unit string, n int) {
	b.rows = append(b.rows, row{name, v, unit, n})
}

// quantileRows adds name_p50/p99 rows for whichever quantiles the
// recorder's sample count supports.
func (b *bench) quantileRows(name, unit string, r *Recorder) {
	for _, q := range []struct {
		suffix string
		q      float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		if v, ok := r.Quantile(q.q); ok {
			b.row(name+"_"+q.suffix+"_"+unit, v, unit, r.N())
		}
	}
}

// window measures process-level quantities over the timed part: wall
// and CPU time, GC CPU, bytes allocated, and the Go heap in use
// sampled every 2 ms.
type window struct {
	start         time.Time
	wall          time.Duration
	cpu0, cpu     time.Duration
	gc0, gcCPU    float64
	alloc0, alloc uint64
	peak          atomic.Uint64
	stop          chan struct{}
	sampled       sync.WaitGroup
	fs0           []ioCounts
	heapSamples   Recorder // MB, every sample taken while not paused
	paused        atomic.Bool
	liveMax       atomic.Uint64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readMetrics(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

const (
	mHeap  = "/memory/classes/heap/objects:bytes"
	mGC    = "/cpu/classes/gc/total:cpu-seconds"
	mAlloc = "/gc/heap/allocs:bytes"
)

// wrapperMark is how many wrappers the bench holds at some point.
type wrapperMark struct{ stores, fss, mws int }

func (b *bench) mark() wrapperMark { return wrapperMark{len(b.stores), len(b.fss), len(b.mws)} }

// forget drops the wrappers registered since m. A set-up that closed
// its peers calls it, so their servers and stores are garbage before
// the timed part instead of counting in its heap samples.
func (b *bench) forget(m wrapperMark) {
	b.stores = slices.Delete(b.stores, m.stores, len(b.stores))
	b.fss = slices.Delete(b.fss, m.fss, len(b.fss))
	b.mws = slices.Delete(b.mws, m.mws, len(b.mws))
}

// begin starts the timed part: it collects garbage first so no earlier
// phase's heap carries into the samples, resets the wrappers' per-call
// recorders, and snapshots every counter it later reports as a delta.
func (b *bench) begin() {
	runtime.GC()
	for _, s := range b.stores {
		s.reset()
	}
	for _, m := range b.mws {
		m.reset()
	}
	w := &window{stop: make(chan struct{})}
	for _, f := range b.fss {
		w.fs0 = append(w.fs0, f.counts())
	}
	s := readMetrics(mGC, mAlloc, mHeap)
	w.gc0, w.alloc0 = s[0].Value.Float64(), s[1].Value.Uint64()
	w.peak.Store(s[2].Value.Uint64())
	w.cpu0 = cpuTime()
	w.sampled.Add(1)
	go func() {
		defer w.sampled.Done()
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		sample := []metrics.Sample{{Name: mHeap}, {Name: "/gc/heap/live:bytes"}}
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				if w.paused.Load() {
					continue
				}
				metrics.Read(sample)
				if v := sample[0].Value.Uint64(); v > w.peak.Load() {
					w.peak.Store(v)
				}
				w.heapSamples.Add(float64(sample[0].Value.Uint64()) / 1e6)
				if v := sample[1].Value.Uint64(); v > w.liveMax.Load() {
					w.liveMax.Store(v)
				}
			}
		}
	}()
	w.start = time.Now()
	b.win = w
}

// pauseHeap pauses or resumes heap sampling within the timed part.
func (b *bench) pauseHeap(p bool) { b.win.paused.Store(p) }

// end closes the timed part; ops is the number of operations in it.
func (b *bench) end(ops int) {
	w := b.win
	w.wall = time.Since(w.start)
	w.cpu = cpuTime() - w.cpu0
	close(w.stop)
	w.sampled.Wait()
	s := readMetrics(mGC, mAlloc)
	w.gcCPU, w.alloc = s[0].Value.Float64()-w.gc0, s[1].Value.Uint64()-w.alloc0
	b.ops = max(ops, 1)
}

// heapPeak reports heap_mb as the batch workloads' peak: the 99th
// percentile of the 2 ms samples, reached in the largest cell. (The
// single highest sample depends on where a GC cycle happened to fall.)
func (b *bench) heapPeak() {
	v, ok := b.win.heapSamples.Quantile(0.99)
	if !ok {
		v = b.win.heapSamples.Max()
	}
	b.e2e["heap_mb"] = metric{v, "MB"}
}

// heapMean reports heap_mb as the serve workloads' footprint: the mean
// of the 2 ms samples. Their highest samples fall wherever a GC cycle
// or a filter query's multi-megabyte response happened to peak, and
// swing by 20–50% between identical runs; the mean follows what the
// server holds.
func (b *bench) heapMean() {
	b.e2e["heap_mb"] = metric{b.win.heapSamples.Mean(), "MB"}
}

// fsDelta sums the counting filesystems' counters over the timed part.
func (b *bench) fsDelta() ioCounts {
	var t ioCounts
	for i, f := range b.fss {
		d := f.counts()
		if i < len(b.win.fs0) {
			d = d.sub(b.win.fs0[i])
		}
		t.Calls += d.Calls
		t.ReadBytes += d.ReadBytes
		t.WriteBytes += d.WriteBytes
		t.Syncs += d.Syncs
	}
	return t
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: verify | serve-hit | serve-miss | cluster")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans and tracing overhead")
	flag.Parse()
	o.trace = *traceFlag == 1
	run, ok := workloads[o.workload]
	if !ok || flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad arguments\n", o.workload)
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fatal(err)
	}
	o.work = work
	out, err := execute(o, run)
	os.RemoveAll(work)
	if err != nil {
		fatal(err)
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// output is the final line's object.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute runs the workload (twice when traced: untraced, then traced,
// each for half the seconds), prints the human table, writes the
// result file and returns the contract line.
func execute(o options, run func(*bench) error) (output, error) {
	runs := []*bench{}
	do := func(tr *tracer, tag string, seconds float64) error {
		oo := o
		oo.seconds = seconds
		b, err := newBench(oo, tr, tag)
		if err != nil {
			return err
		}
		runs = append(runs, b)
		if err := run(b); err != nil {
			return fmt.Errorf("%s: %w", o.workload, err)
		}
		b.common()
		return nil
	}
	if o.trace {
		if err := do(nil, "untraced", o.seconds/2); err != nil {
			return output{}, err
		}
		if err := do(newTracer(), "traced", o.seconds/2); err != nil {
			return output{}, err
		}
	} else if err := do(nil, "run", o.seconds); err != nil {
		return output{}, err
	}
	final := runs[len(runs)-1]
	res := output{Metrics: final.e2e}
	if o.trace {
		res.Metrics = final.layer
	}
	for _, b := range runs {
		res.Attempted += b.attempted.Load()
		res.Failed += b.failed.Load()
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	report(o, runs, res)
	return res, writeResult(o, runs, res)
}

// common adds the metrics every workload reports: the process-level
// figures of the timed part, and in a traced pass the per-layer busy
// shares derived from the spans.
func (b *bench) common() {
	w, ops := b.win, float64(b.ops)
	cpuUtil := w.cpu.Seconds() / (w.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
	gcFrac := 0.0
	if w.cpu > 0 {
		gcFrac = w.gcCPU / w.cpu.Seconds()
	}
	if v, ok := w.heapSamples.Quantile(0.99); ok {
		b.row("process.heap_p99_mb", v, "MB", w.heapSamples.N())
	}
	b.row("process.heap_max_mb", float64(w.peak.Load())/1e6, "MB", w.heapSamples.N())
	b.row("process.live_heap_max_mb", float64(w.liveMax.Load())/1e6, "MB", 0)
	b.row("process.cpu_util", cpuUtil, "frac", 0)
	b.row("process.gc_cpu_frac", gcFrac, "frac", 0)
	b.row("process.alloc_kb_per_op", float64(w.alloc)/1e3/ops, "KB", b.ops)
	d := b.fsDelta()
	b.row("fs.calls_per_op", float64(d.Calls)/ops, "count", b.ops)
	b.row("fs.syncs_per_op", float64(d.Syncs)/ops, "count", b.ops)
	b.row("fs.write_kb_per_op", float64(d.WriteBytes)/1e3/ops, "KB", b.ops)
	b.row("fs.read_kb_per_op", float64(d.ReadBytes)/1e3/ops, "KB", b.ops)
	var reads Recorder
	var calls, puts, scans, scanned int64
	for _, s := range b.stores {
		calls += s.nCalls.Load()
		puts += s.nPuts.Load()
		scans += s.nScans.Load()
		scanned += s.scanned.Load()
		reads.Merge(s.recorder("get"))
		reads.Merge(s.recorder("getbykey"))
	}
	b.row("store.calls_per_op", float64(calls)/ops, "count", b.ops)
	if puts > 0 {
		b.row("store.fsyncs_per_put", float64(d.Syncs)/float64(puts), "count", int(puts))
	}
	if scans > 0 {
		b.row("store.scan_entries", float64(scanned)/float64(scans), "count", int(scans))
	}
	if b.tr == nil {
		return
	}
	// Per-layer busy time: the sum of the layer's span durations in
	// the timed part over the sum of operation wall time. Layers nest
	// (client ⊃ serve ⊃ store ⊃ fs; op ⊃ campaign ⊃ explore) and run
	// concurrently, so a share is busy time, not exclusive time; the
	// self-time table subtracts the nested layer.
	busy := map[string]float64{}
	t0 := w.start.Sub(b.tr.t0).Nanoseconds()
	spans := b.tr.snapshot()
	nSpans := 0
	for _, sp := range spans {
		if sp.Start < t0 {
			continue
		}
		nSpans++
		layer, _, _ := strings.Cut(sp.Name, ".")
		busy[layer] += float64(sp.End - sp.Start)
	}
	opNanos := busy["op"]
	if opNanos == 0 {
		opNanos = 1
	}
	share := func(l string) float64 { return busy[l] / opNanos }
	lay := b.layer
	lay["cpu_util"] = metric{cpuUtil, "frac"}
	lay["gc_cpu_frac"] = metric{gcFrac, "frac"}
	lay["alloc_kb_per_op"] = metric{float64(w.alloc) / 1e3 / ops, "KB"}
	lay["fs.syncs_per_op"] = metric{float64(d.Syncs) / ops, "count"}
	lay["fs.write_kb_per_op"] = metric{float64(d.WriteBytes) / 1e3 / ops, "KB"}
	lay["fs.read_kb_per_op"] = metric{float64(d.ReadBytes) / 1e3 / ops, "KB"}
	lay["store.calls_per_op"] = metric{float64(calls) / ops, "count"}
	lay["store.read_us"] = metric{reads.Mean(), "us"}
	for _, l := range []string{"client", "serve", "campaign", "explore", "store", "fs"} {
		lay[l+".busy_frac"] = metric{share(l), "frac"}
	}
	lay["trace.spans_per_op"] = metric{float64(nSpans) / ops, "count"}
	// Exclusive (self) time per layer along the nesting chains.
	self := map[string]float64{
		"client":   busy["client"] - busy["serve"],
		"serve":    busy["serve"] - busy["store"],
		"campaign": busy["campaign"] - busy["explore"],
		"explore":  busy["explore"],
		"store":    busy["store"] - busy["fs"],
		"fs":       busy["fs"],
	}
	for _, l := range sortedKeys(self) {
		b.row("self."+l+"_ms_per_op", max(self[l], 0)/1e6/ops, "ms", b.ops)
	}
	for _, op := range []string{"get", "getbykey", "put", "scan"} {
		var r Recorder
		for _, s := range b.stores {
			r.Merge(s.recorder(op))
		}
		if r.N() > 0 {
			b.quantileRows("store."+op, "us", &r)
			b.row("store."+op+"_mean_us", r.Mean(), "us", r.N())
		}
	}
	if err := engineComparison(b); err != nil {
		b.fail("engine comparison: %v", err)
	}
	b.finishLayers()
}

// report prints the human-readable part: environment, the named
// metrics with sample counts, tracing overhead, and any failures.
func report(o options, passes []*bench, res output) {
	final := passes[len(passes)-1]
	env := environment(o, final)
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, env[k])
	}
	fmt.Printf("env: %s\n", strings.Join(parts, " "))
	for i, b := range passes {
		tag := "run"
		if o.trace {
			tag = []string{"untraced", "traced"}[i]
		}
		fmt.Printf("%s %s: %d ops, %d attempted, %d failed\n", o.workload, tag, b.ops, b.attempted.Load(), b.failed.Load())
		for _, name := range sortedKeys(b.e2e) {
			m := b.e2e[name]
			fmt.Printf("  %-44s %14.6g %-6s\n", name, m.Value, m.Unit)
		}
		for _, r := range b.rows {
			n := ""
			if r.N > 0 {
				n = fmt.Sprintf("n=%d", r.N)
			}
			fmt.Printf("  %-44s %14.6g %-6s %s\n", r.Name, r.Value, r.Unit, n)
		}
		for _, f := range b.failures {
			fmt.Printf("  FAILED: %s\n", f)
		}
	}
	if o.trace {
		u, t := passes[0], passes[1]
		fmt.Println("tracing overhead (traced − untraced end-to-end):")
		for _, name := range sortedKeys(t.e2e) {
			fmt.Printf("  %-44s %+14.6g %s\n", name, t.e2e[name].Value-u.e2e[name].Value, t.e2e[name].Unit)
		}
		fmt.Println("per-layer metrics (traced pass):")
		for _, name := range sortedKeys(t.layer) {
			fmt.Printf("  %-44s %14.6g %s\n", name, t.layer[name].Value, t.layer[name].Unit)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// environment is recorded in every output.
func environment(o options, b *bench) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"seed":       o.seed,
		"seconds":    o.seconds,
		"workload":   o.workload,
		"trace":      o.trace,
	}
	for k, v := range b.env {
		env[k] = v
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.ReplaceAll(strings.TrimSpace(v), " ", "_")
		}
	}
	return "unknown"
}

// writeResult stores the full result (environment, tables, and the
// spans of a traced pass) under .bench_build/out/.
func writeResult(o options, passes []*bench, res output) error {
	dir := filepath.Join(".bench_build", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type passOut struct {
		E2E      map[string]metric `json:"end_to_end"`
		Layer    map[string]metric `json:"per_layer,omitempty"`
		Rows     []row             `json:"table"`
		Failures []string          `json:"failures,omitempty"`
		Spans    []span            `json:"spans,omitempty"`
	}
	doc := struct {
		Env    map[string]any `json:"env"`
		Result output         `json:"result"`
		Passes []passOut      `json:"passes"`
	}{Env: environment(o, passes[len(passes)-1]), Result: res}
	for _, b := range passes {
		doc.Passes = append(doc.Passes, passOut{b.e2e, b.layer, b.rows, b.failures, b.tr.snapshot()})
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, map[bool]int{false: 0, true: 1}[o.trace])
	fmt.Printf("result file: %s\n", filepath.Join(dir, name))
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}
