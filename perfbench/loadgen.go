package main

import (
	"bufio"
	"bytes"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the load generator's goroutine count: the benchmark is
// sized for a 2-CPU machine, and client and server share it.
const clients = 2

// arrivals is a seeded Poisson schedule of due offsets at rate per
// second over the given span.
func arrivals(rng *rand.Rand, rate float64, span time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= span {
			return out
		}
		out = append(out, d)
	}
}

// openLoop runs op(i, due) for every scheduled arrival on `clients`
// goroutines. An operation is timed by its caller from its due time,
// not from when a goroutine got to it, so a slow server cannot hide
// its queueing (no coordinated omission); how late each arrival
// started is the generator's own validity check.
func openLoop(dues []time.Duration, op func(i int, due time.Time)) (late *Recorder) {
	late = &Recorder{}
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(dues) {
					return
				}
				due := start.Add(dues[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				late.AddDur(max(time.Since(due), 0))
				op(i, due)
			}
		}()
	}
	wg.Wait()
	return late
}

// closedLoop runs operations first..first+n-1 back to back on
// `clients` goroutines and returns how many completed and how long
// they took. The count, not the time, is fixed, so every run does the
// same work, and holds the same state afterwards, whatever the
// machine's speed; limit stops a loop that falls far behind, and the
// caller counts the shortfall as a failure.
func closedLoop(first, n int, limit time.Duration, op func(i int)) (int, time.Duration) {
	start := time.Now()
	deadline := start.Add(limit)
	var next, done atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				op(first + i)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(done.Load()), time.Since(start)
}

// interleaved is what a serve workload's timed part measured.
type interleaved struct {
	late      *Recorder // open-loop lateness, ms
	closedOps int       // closed-loop operations completed
	rate      float64   // median of the bursts' completion rates, 1/s
	openReads int       // store reads during the open-loop segments
}

// interleave runs a serve workload's timed part as rounds. The
// open-loop arrivals, due over openSpan, are cut into one segment per
// round, and each segment is followed by a closed-loop burst of
// burstRate × segment operations, about as long as the segment. So the
// latency and the capacity figures both sample the whole run, not one
// half of it each: the shared machines this runs on drift in speed over
// seconds to minutes, and a figure taken from one half of a run follows
// that drift more. Heap sampling is paused during the bursts, where the
// heap follows the machine's speed (garbage in flight grows with the
// allocation rate) rather than what the server holds. The capacity is
// the median of the bursts' rates.
func (b *bench) interleave(dues []time.Duration, openSpan time.Duration, burstRate float64,
	open func(i int, due time.Time), closed func(i int)) interleaved {
	rounds := max(1, int(openSpan/roundOpen))
	seg := openSpan / time.Duration(rounds)
	out := interleaved{late: &Recorder{}}
	var rates []float64
	i := 0
	for r := range rounds {
		lo, hi := seg*time.Duration(r), seg*time.Duration(r+1)
		if r == rounds-1 {
			hi = openSpan
		}
		var segDues []time.Duration
		first := i
		for ; i < len(dues) && dues[i] < hi; i++ {
			segDues = append(segDues, dues[i]-lo)
		}
		b.pauseHeap(false)
		reads := b.storeReads()
		out.late.Merge(openLoop(segDues, func(j int, due time.Time) { open(first+j, due) }))
		out.openReads += b.storeReads() - reads
		b.pauseHeap(true)
		n := int(burstRate * seg.Seconds())
		done, took := closedLoop(out.closedOps, n, 5*seg, closed)
		out.closedOps += done
		rates = append(rates, float64(done)/took.Seconds())
		if done < n {
			b.fail("closed-loop burst hit its time limit after %d of %d operations", done, n)
		}
	}
	out.rate = median(rates)
	return out
}

// roundOpen is the length of one round's open-loop segment.
const roundOpen = time.Second

// lateFrac is the share of arrivals that started more than 1 ms late.
func lateFrac(late *Recorder) float64 {
	late.mu.Lock()
	defer late.mu.Unlock()
	if len(late.xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range late.xs {
		if x > 1 {
			n++
		}
	}
	return float64(n) / float64(len(late.xs))
}

// scrape reads a peer's /metrics into name → value.
func scrape(c *client, url string) map[string]float64 {
	out := map[string]float64{}
	code, data, err := c.do(0, "GET", url+"/metrics", nil)
	if err != nil || code != 200 {
		return out
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}
