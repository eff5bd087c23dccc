package main

import (
	"io/fs"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/store"
)

// maxReplay bounds the replayed call sequence.
const maxReplay = 20_000

// engineComparison replays the traced pass's recorded store calls, in
// order, against both engines at the corpus size: each engine gets the
// same corpus, is reopened (the restart cost), and then serves the
// workload's own Get/GetByKey/Put/Scan sequence through the same
// timing wrapper. It reports open time, µs per replayed call and disk
// bytes per entry for dir and log side by side.
func engineComparison(b *bench) error {
	var calls []storeCall
	for _, s := range b.stores {
		s.mu.Lock()
		calls = append(calls, s.calls...)
		s.mu.Unlock()
	}
	if len(calls) > maxReplay {
		calls = calls[:maxReplay]
	}
	n := corpusSize(b.o.tiny)
	b.row("store.replay_calls", float64(len(calls)), "count", 0)
	for _, engine := range []string{store.EngineDir, store.EngineLog} {
		dir := b.path("engine-" + engine)
		if _, err := b.buildCorpus(dir, engine, n); err != nil {
			return err
		}
		disk := diskBytes(dir)
		var opens []float64
		var st store.Interface
		for range 3 {
			if st != nil {
				st.Close()
			}
			t := time.Now()
			var err error
			if st, err = store.OpenEngine(engine, dir, newCountFS(nil)); err != nil {
				return err
			}
			opens = append(opens, float64(time.Since(t).Nanoseconds())/1e6)
		}
		// A tracer of its own turns on the wrapper's per-call recorders.
		ts := newTimedStore(st, newTracer())
		start := time.Now()
		for _, c := range calls {
			switch c.Op {
			case "get":
				ts.Get(c.Spec)
			case "getbykey":
				ts.GetByKey(c.Key)
			case "put":
				ts.Put(c.Spec, c.Res)
			case "scan":
				ts.Scan(func(string, store.JobSpec, []byte) error { return nil })
			}
		}
		replay := time.Since(start)
		st.Close()
		pre := "store." + engine + "."
		b.layer[pre+"open_ms"] = metric{median(opens), "ms"}
		b.layer[pre+"replay_us_per_call"] = metric{float64(replay.Nanoseconds()) / 1e3 / float64(max(len(calls), 1)), "us"}
		b.layer[pre+"disk_bytes_per_entry"] = metric{float64(disk) / float64(n), "B"}
		for _, op := range []string{"get", "getbykey", "put", "scan"} {
			if r := ts.recorder(op); r.N() > 0 {
				b.quantileRows(pre+op, "us", r)
				b.row(pre+op+"_mean_us", r.Mean(), "us", r.N())
			}
		}
	}
	return nil
}

// diskBytes sums the blocks allocated to the files and directories
// under dir: what the store occupies on disk, not its apparent size.
func diskBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if info, err := d.Info(); err == nil {
			if st, ok := info.Sys().(*syscall.Stat_t); ok {
				total += st.Blocks * 512
			}
		}
		return nil
	})
	return total
}
