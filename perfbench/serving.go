package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/gossip"
	"repro/internal/pubsub"
	"repro/internal/serve"
)

// peer is one in-process ccserve on a loopback port: the same
// serve.Server (and gossip node) cmd/ccserve builds, behind the
// timing middleware.
type peer struct {
	url    string
	hs     *http.Server
	srv    *serve.Server
	st     *timedStore
	mw     *middleware
	gossip *gossip.Node
	served chan struct{}
}

// listen reserves a loopback port, so peers can learn each other's
// URLs before their servers exist.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// startPeer builds the server over st on ln, with a gossip node when
// neighbors are given (at ccserve's production interval).
func (b *bench) startPeer(ln net.Listener, url string, st *timedStore, cfg serve.Config, neighbors []string) (*peer, error) {
	p := &peer{url: url, st: st, served: make(chan struct{})}
	var srvPtr atomic.Pointer[serve.Server]
	if neighbors != nil {
		p.gossip = gossip.New(gossip.Config{
			Self: url, Neighbors: neighbors, Store: st, Interval: 5 * time.Second,
			OnIngest: func(key string) {
				if s := srvPtr.Load(); s != nil {
					s.GossipIngested(key)
				}
			},
		})
	}
	cfg.Store, cfg.Gossip = st, p.gossip
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	srvPtr.Store(srv)
	p.srv = srv
	p.mw = newMiddleware(srv, b.tr)
	b.mws = append(b.mws, p.mw)
	p.hs = &http.Server{Handler: p.mw, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		p.hs.Serve(ln)
		close(p.served)
	}()
	return p, nil
}

// close stops the HTTP server, drains running jobs, stops gossip and
// closes the store, waiting for each.
func (p *peer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	p.hs.Shutdown(ctx)
	p.hs.Close()
	<-p.served
	p.srv.Drain(10 * time.Second)
	if p.gossip != nil {
		p.gossip.Close()
	}
	p.st.Close()
}

// client is the benchmark's HTTP client: at most two connections per
// peer, a request id header joining client spans to server spans.
type client struct {
	hc   *http.Client
	tr   *tracer
	next atomic.Int64
}

func newClient(tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true}
	return &client{hc: &http.Client{Transport: t, Timeout: 60 * time.Second}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) request(method, url string, body []byte) (*http.Request, string, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, "", err
	}
	id := ""
	if c.tr != nil {
		id = strconv.FormatInt(c.next.Add(1), 10)
		req.Header.Set(reqHeader, id)
	}
	return req, id, nil
}

// do performs one request and reads the whole body, recording a
// "client.<route>" span under parent.
func (c *client) do(parent int64, method, url string, body []byte) (int, []byte, error) {
	req, id, err := c.request(method, url, body)
	if err != nil {
		return 0, nil, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.tr.add("client."+route(req), start, time.Now(), parent, id)
	return resp.StatusCode, data, err
}

// watch follows a job's SSE stream to its terminal event, returning the
// time to the first event and the terminal event itself.
func (c *client) watch(parent int64, url string) (first time.Duration, ev pubsub.Event, err error) {
	req, id, err := c.request("GET", url, nil)
	if err != nil {
		return 0, ev, err
	}
	start := time.Now()
	defer func() { c.tr.add("client.watch", start, time.Now(), parent, id) }()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, ev, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, ev, fmt.Errorf("watch: status %d", resp.StatusCode)
	}
	dec := pubsub.NewDecoder(resp.Body)
	for {
		ev, err = dec.Next()
		if err != nil {
			return first, ev, fmt.Errorf("watch: %w", err)
		}
		if first == 0 {
			first = time.Since(start)
		}
		if pubsub.IsTerminal(ev.Type) {
			return first, ev, nil
		}
	}
}
