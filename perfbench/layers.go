package main

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/explore"
	"repro/internal/store"
)

// The benchmark measures every layer from outside: it wraps the public
// surfaces the program already exposes (chaos.FS under the store,
// store.Interface under campaign/serve/gossip, http.Handler around
// serve.Server) and never reaches into a package. A nil *tracer keeps
// every wrapper a pass-through, which is how the untraced end-to-end
// runs stay untraced.

// span is one timed call. Times are nanoseconds since the tracer's
// origin; Parent is 0 for roots and for calls whose caller the
// benchmark cannot see (store and FS calls made inside the server).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    string `json:"req,omitempty"`
}

type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(name string, start, end time.Time, parent int64, req string) int64 {
	if t == nil {
		return 0
	}
	id := t.next.Add(1)
	sp := span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
	return id
}

// reserve hands out an id for a span whose children are recorded
// before it ends; record it later with addID.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) addID(id int64, name string, start, end time.Time, parent int64, req string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// ioCounts are the counting FS's totals.
type ioCounts struct {
	Calls, ReadBytes, WriteBytes, Syncs int64
}

func (a ioCounts) sub(b ioCounts) ioCounts {
	return ioCounts{a.Calls - b.Calls, a.ReadBytes - b.ReadBytes, a.WriteBytes - b.WriteBytes, a.Syncs - b.Syncs}
}

// countFS is a chaos.FS over the host filesystem that counts calls,
// bytes and fsyncs, and records an "fs.<op>" span per call when traced.
// noSync turns Sync into a no-op; only corpus preparation uses it.
type countFS struct {
	inner                chaos.FS
	tr                   *tracer
	noSync               bool
	calls, rd, wr, syncs atomic.Int64
}

func newCountFS(tr *tracer) *countFS { return &countFS{inner: chaos.OS, tr: tr} }

func (f *countFS) counts() ioCounts {
	return ioCounts{f.calls.Load(), f.rd.Load(), f.wr.Load(), f.syncs.Load()}
}

func (f *countFS) done(op string, start time.Time) {
	f.calls.Add(1)
	if f.tr != nil {
		f.tr.add("fs."+op, start, time.Now(), 0, "")
	}
}

func (f *countFS) ReadFile(name string) ([]byte, error) {
	defer f.done("read", time.Now())
	b, err := f.inner.ReadFile(name)
	f.rd.Add(int64(len(b)))
	return b, err
}

func (f *countFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	defer f.done("write", time.Now())
	f.wr.Add(int64(len(data)))
	return f.inner.WriteFile(name, data, perm)
}

func (f *countFS) Open(name string) (chaos.File, error) {
	defer f.done("open", time.Now())
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f}, nil
}

func (f *countFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	defer f.done("create", time.Now())
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countFile{File: file, fs: f}, nil
}

func (f *countFS) MkdirAll(path string, perm fs.FileMode) error {
	defer f.done("mkdir", time.Now())
	return f.inner.MkdirAll(path, perm)
}

func (f *countFS) MkdirTemp(dir, pattern string) (string, error) {
	defer f.done("mkdir", time.Now())
	return f.inner.MkdirTemp(dir, pattern)
}

func (f *countFS) Rename(oldpath, newpath string) error {
	defer f.done("rename", time.Now())
	return f.inner.Rename(oldpath, newpath)
}

func (f *countFS) Remove(name string) error {
	defer f.done("remove", time.Now())
	return f.inner.Remove(name)
}

func (f *countFS) RemoveAll(path string) error {
	defer f.done("remove", time.Now())
	return f.inner.RemoveAll(path)
}

func (f *countFS) Stat(name string) (fs.FileInfo, error) {
	defer f.done("stat", time.Now())
	return f.inner.Stat(name)
}

type countFile struct {
	chaos.File
	fs *countFS
}

func (c *countFile) Read(p []byte) (int, error) {
	defer c.fs.done("read", time.Now())
	n, err := c.File.Read(p)
	c.fs.rd.Add(int64(n))
	return n, err
}

func (c *countFile) ReadAt(p []byte, off int64) (int, error) {
	defer c.fs.done("read", time.Now())
	n, err := c.File.ReadAt(p, off)
	c.fs.rd.Add(int64(n))
	return n, err
}

func (c *countFile) Write(p []byte) (int, error) {
	defer c.fs.done("write", time.Now())
	n, err := c.File.Write(p)
	c.fs.wr.Add(int64(n))
	return n, err
}

func (c *countFile) WriteAt(p []byte, off int64) (int, error) {
	defer c.fs.done("write", time.Now())
	n, err := c.File.WriteAt(p, off)
	c.fs.wr.Add(int64(n))
	return n, err
}

func (c *countFile) Sync() error {
	defer c.fs.done("sync", time.Now())
	c.fs.syncs.Add(1)
	if c.fs.noSync {
		return nil
	}
	return c.File.Sync()
}

// storeCall is one recorded store call, replayed against both engines
// by the traced run's engine comparison.
type storeCall struct {
	Op   string // get | getbykey | put | scan
	Spec store.JobSpec
	Key  string
	Res  *explore.Result
}

// timedStore wraps the store.Interface the benchmark hands to
// campaign, serve and gossip. It always remembers the bytes every Put
// returned (the reference a served verdict is checked against); when
// traced it also times each call into per-op recorders, emits a
// parentless "store.<op>" span, and logs the call sequence.
type timedStore struct {
	store.Interface
	tr *tracer

	mu       sync.Mutex
	put      map[string][]byte
	putBytes int64
	calls    []storeCall
	ops      map[string]*Recorder // µs per call, traced only
	nCalls   atomic.Int64
	nReads   atomic.Int64
	nPuts    atomic.Int64
	nScans   atomic.Int64
	scanned  atomic.Int64 // entries visited by Scan
}

func newTimedStore(st store.Interface, tr *tracer) *timedStore {
	return &timedStore{Interface: st, tr: tr, put: map[string][]byte{}, ops: map[string]*Recorder{}}
}

func (s *timedStore) observe(op string, start time.Time, c storeCall) {
	s.nCalls.Add(1)
	switch op {
	case "get", "getbykey":
		s.nReads.Add(1)
	case "put":
		s.nPuts.Add(1)
	case "scan":
		s.nScans.Add(1)
	}
	if s.tr == nil {
		return
	}
	end := time.Now()
	s.tr.add("store."+op, start, end, 0, "")
	s.mu.Lock()
	r := s.ops[op]
	if r == nil {
		r = &Recorder{}
		s.ops[op] = r
	}
	c.Op = op
	s.calls = append(s.calls, c)
	s.mu.Unlock()
	r.Add(float64(end.Sub(start).Nanoseconds()) / 1e3)
}

func (s *timedStore) Get(spec store.JobSpec) (*explore.Result, []byte, bool) {
	start := time.Now()
	res, raw, ok := s.Interface.Get(spec)
	s.observe("get", start, storeCall{Spec: spec})
	return res, raw, ok
}

func (s *timedStore) GetByKey(key string) (store.JobSpec, *explore.Result, []byte, bool) {
	start := time.Now()
	spec, res, raw, ok := s.Interface.GetByKey(key)
	s.observe("getbykey", start, storeCall{Key: key})
	return spec, res, raw, ok
}

func (s *timedStore) Put(spec store.JobSpec, res *explore.Result) ([]byte, error) {
	start := time.Now()
	raw, err := s.Interface.Put(spec, res)
	s.observe("put", start, storeCall{Spec: spec, Res: res})
	if err == nil {
		s.mu.Lock()
		s.put[spec.Key()] = raw
		s.putBytes += int64(len(raw))
		s.mu.Unlock()
	}
	return raw, err
}

func (s *timedStore) Scan(fn func(key string, spec store.JobSpec, result []byte) error) error {
	start := time.Now()
	err := s.Interface.Scan(func(key string, spec store.JobSpec, result []byte) error {
		s.scanned.Add(1)
		return fn(key, spec, result)
	})
	s.observe("scan", start, storeCall{})
	return err
}

// reset drops the per-call recorders and call log (start of the timed
// part); the Put reference bytes are kept.
func (s *timedStore) reset() {
	s.mu.Lock()
	s.ops, s.calls = map[string]*Recorder{}, nil
	s.mu.Unlock()
	for _, c := range []*atomic.Int64{&s.nCalls, &s.nReads, &s.nPuts, &s.nScans, &s.scanned} {
		c.Store(0)
	}
}

// putRaw is the byte slice Put returned for a key, if any.
func (s *timedStore) putRaw(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.put[key]
	return b, ok
}

func (s *timedStore) recorder(op string) *Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r := s.ops[op]; r != nil {
		return r
	}
	return &Recorder{}
}

// reqHeader carries the benchmark's request id from client spans to
// the middleware's server spans.
const reqHeader = "X-Bench-Req"

// middleware times serve.Server.ServeHTTP per route pattern. Cluster
// RPCs are keyed by the method read from the request body.
type middleware struct {
	next http.Handler
	tr   *tracer

	mu     sync.Mutex
	routes map[string]*Recorder // ms per request
	first  *Recorder            // watch streams: ms to the first body byte
	rpcIn  map[string]int64     // request body bytes per route
}

func newMiddleware(next http.Handler, tr *tracer) *middleware {
	return &middleware{next: next, tr: tr, routes: map[string]*Recorder{}, rpcIn: map[string]int64{}, first: &Recorder{}}
}

// route maps a request onto the server's route pattern.
func route(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/jobs":
		return "submit"
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/v1/jobs/") && strings.HasSuffix(p, "/watch"):
		return "watch"
	case strings.HasPrefix(p, "/v1/jobs/"):
		return "job"
	case p == "/v1/verdicts":
		return "verdicts"
	case p == "/v1/cluster/rpc":
		return "cluster.rpc"
	case strings.HasPrefix(p, "/v1/cluster/"):
		return "cluster." + strings.TrimPrefix(p, "/v1/cluster/")
	case strings.HasPrefix(p, "/v1/gossip/"):
		op, _, _ := strings.Cut(strings.TrimPrefix(p, "/v1/gossip/"), "/")
		return "gossip." + op
	}
	return strings.Trim(strings.ReplaceAll(p, "/", "."), ".")
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if m.tr == nil {
		m.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	name := route(r)
	var in int64
	if strings.HasPrefix(name, "cluster.") && r.Body != nil {
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		in = int64(len(body))
		if name == "cluster.rpc" {
			var req struct {
				Op string `json:"op"`
			}
			json.Unmarshal(body, &req)
			name += "." + req.Op
		}
	}
	fw := &firstByteWriter{ResponseWriter: w}
	m.next.ServeHTTP(fw, r)
	end := time.Now()
	m.tr.add("serve."+name, start, end, 0, r.Header.Get(reqHeader))
	m.mu.Lock()
	rec := m.routes[name]
	if rec == nil {
		rec = &Recorder{}
		m.routes[name] = rec
	}
	m.rpcIn[name] += in
	first := m.first
	m.mu.Unlock()
	rec.AddDur(end.Sub(start))
	if name == "watch" && !fw.first.IsZero() {
		first.AddDur(fw.first.Sub(start))
	}
}

func (m *middleware) reset() {
	m.mu.Lock()
	m.routes, m.rpcIn, m.first = map[string]*Recorder{}, map[string]int64{}, &Recorder{}
	m.mu.Unlock()
}

// routeStats returns a copy of the per-route recorders.
func (m *middleware) routeStats() map[string]*Recorder {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]*Recorder, len(m.routes))
	for k, v := range m.routes {
		out[k] = v
	}
	return out
}

// firstByteWriter notes when the first body byte is written and keeps
// SSE flushing working through the wrapper.
type firstByteWriter struct {
	http.ResponseWriter
	first time.Time
}

func (w *firstByteWriter) Write(p []byte) (int, error) {
	if w.first.IsZero() {
		w.first = time.Now()
	}
	return w.ResponseWriter.Write(p)
}

func (w *firstByteWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *firstByteWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }
