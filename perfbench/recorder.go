package main

import (
	"math"
	"slices"
	"sync"
	"time"
)

// Recorder keeps every raw sample of one quantity and answers
// interpolated quantiles over them. Unlike a bucketed histogram it
// never reports a bucket bound as a percentile, and it refuses a
// quantile that the sample count cannot support: a percentile q is
// reported only when at least minBeyond samples lie beyond it, i.e.
// n·(1−q) ≥ minBeyond (p50 needs 20 samples, p99 needs 1000).
type Recorder struct {
	mu sync.Mutex
	xs []float64
}

const minBeyond = 10

// Add records one sample.
func (r *Recorder) Add(v float64) {
	r.mu.Lock()
	r.xs = append(r.xs, v)
	r.mu.Unlock()
}

// AddDur records a duration in milliseconds.
func (r *Recorder) AddDur(d time.Duration) { r.Add(float64(d.Nanoseconds()) / 1e6) }

// Merge adds every sample of o.
func (r *Recorder) Merge(o *Recorder) {
	o.mu.Lock()
	xs := slices.Clone(o.xs)
	o.mu.Unlock()
	r.mu.Lock()
	r.xs = append(r.xs, xs...)
	r.mu.Unlock()
}

// N is the sample count.
func (r *Recorder) N() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.xs)
}

// Sum is the total of all samples.
func (r *Recorder) Sum() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := 0.0
	for _, x := range r.xs {
		s += x
	}
	return s
}

// Mean is the arithmetic mean (0 without samples).
func (r *Recorder) Mean() float64 {
	n := r.N()
	if n == 0 {
		return 0
	}
	return r.Sum() / float64(n)
}

// Max is the largest sample (0 without samples).
func (r *Recorder) Max() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := 0.0
	for _, x := range r.xs {
		m = math.Max(m, x)
	}
	return m
}

// Quantile interpolates linearly between the closest ranks (the
// "type 7" estimator) and reports whether the sample count supports q.
func (r *Recorder) Quantile(q float64) (float64, bool) {
	r.mu.Lock()
	xs := slices.Clone(r.xs)
	r.mu.Unlock()
	n := len(xs)
	if n == 0 || float64(n)*(1-q) < minBeyond {
		return 0, false
	}
	slices.Sort(xs)
	return interpolate(xs, q), true
}

// interpolate is the type-7 quantile of sorted xs.
func interpolate(xs []float64, q float64) float64 {
	h := float64(len(xs)-1) * q
	lo := int(math.Floor(h))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (h-float64(lo))*(xs[lo+1]-xs[lo])
}

// median of a small set of values (set-up repetitions, burst rates); no
// count rule.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return interpolate(s, 0.5)
}
