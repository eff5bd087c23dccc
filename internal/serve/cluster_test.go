package serve_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/store"
)

// TestClusterHTTPEndToEnd boots real servers sharing one store
// directory, distributes each job across them through the public
// /v1/cluster API, and pins every verdict byte-identical to a
// single-node execution of the same spec — the in-process version of
// the CI smoke's 3-peer cmp. The table covers 2 and 3 peers, a state
// bound that cuts a BFS layer, a mutated guard whose counterexample
// traces are rebuilt from keys fetched over the keys RPC, and layers
// big enough that every sending worker flushes several frames per
// layer at the default 512-record threshold.
func TestClusterHTTPEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name  string
		peers int
		spec  store.JobSpec
		// multiFrame asks for more frontier frames than layers.
		multiFrame bool
	}{
		{"full/3peers", 3, store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc"}, false},
		{"cut-mid-layer/2peers", 2, store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "cc", MaxStates: 5_000}, false},
		{"cut-mid-layer/3peers", 3, store.JobSpec{Alg: "cc1", Topo: "ring:3", Daemon: "synchronous", Init: "cc", MaxStates: 1_777}, false},
		{"mutated-traces/2peers", 2, store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "central", Init: "legit", Mutation: "leave-early"}, false},
		{"mutated-traces/3peers", 3, store.JobSpec{Alg: "cc2", Topo: "ring:3", Daemon: "synchronous", Init: "cc-full", Mutation: "skip-stab"}, false},
		{"multi-frame/2peers", 2, store.JobSpec{Alg: "cc1", Topo: "triples:3", Daemon: "all-subsets", Init: "legit", MaxStates: 40_000}, true},
		{"multi-frame/3peers", 3, store.JobSpec{Alg: "token-ring", Topo: "ring:6", Daemon: "central", MaxStates: 40_000}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			peers := make([]string, tc.peers)
			servers := make([]*httptest.Server, tc.peers)
			for i := range peers {
				servers[i] = newTestServer(t, dir)
				peers[i] = servers[i].URL
			}

			want, err := campaign.ExecuteOpts(context.Background(), tc.spec, campaign.ExecOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			got, err := campaign.ExecuteCluster(context.Background(), tc.spec, peers, campaign.ExecOptions{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Fatalf("cluster verdict differs from single-node:\n%s\nvs\n%s", gotJSON, wantJSON)
			}

			// Each case really exercises what it names.
			if m := tc.spec.MaxStates; m > 0 && (!got.Truncated || got.States != m || got.Inits >= m) {
				t.Fatalf("bound %d did not cut an expansion layer: truncated=%v states=%d inits=%d", m, got.Truncated, got.States, got.Inits)
			}
			if tc.spec.Mutation != "" && (len(got.Violations) == 0 || len(got.Violations[0].Trace) < 2) {
				t.Fatalf("mutated spec produced no multi-step counterexample trace: %+v", got.Violations)
			}

			// The run really was distributed: frontier frames crossed the
			// wire into at least one peer, every peer opened the job, and
			// close left no engine behind.
			totalFrames := 0.0
			for _, sv := range servers {
				totalFrames += metric(t, sv, "ccserve_cluster_frames_in_total")
				if n := metric(t, sv, "ccserve_cluster_opens_total"); n != 1 {
					t.Fatalf("peer opened %g cluster jobs, want 1", n)
				}
				if n := metric(t, sv, "ccserve_cluster_jobs_open"); n != 0 {
					t.Fatalf("peer still has %g cluster jobs open after close", n)
				}
			}
			if totalFrames == 0 {
				t.Fatal("no frontier frames crossed the wire: the run was not distributed")
			}
			if tc.multiFrame && totalFrames < float64(2*tc.peers*got.Depth) {
				t.Fatalf("%g frames over %d layers on %d peers: layers did not span several frames", totalFrames, got.Depth, tc.peers)
			}
		})
	}
}

// TestClusterEndpointErrors drives each cluster endpoint's refusal
// paths and asserts the error counter moves: the cluster tier must
// reject garbage loudly, not wedge a distributed layer.
func TestClusterEndpointErrors(t *testing.T) {
	ts := newTestServer(t, t.TempDir())
	errsBefore := metric(t, ts, "ccserve_cluster_errors_total")

	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, tc := range []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed rpc json", "/v1/cluster/rpc", "{not json", http.StatusBadRequest},
		{"unknown rpc field", "/v1/cluster/rpc", `{"op":"seed","job":"k","bogus":1}`, http.StatusBadRequest},
		{"missing job", "/v1/cluster/rpc", `{"op":"seed"}`, http.StatusBadRequest},
		{"unknown op", "/v1/cluster/rpc", `{"op":"warp","job":"k"}`, http.StatusBadRequest},
		{"rpc before open", "/v1/cluster/rpc", `{"op":"seed","job":"nope"}`, http.StatusNotFound},
		{"open with bad spec", "/v1/cluster/rpc", `{"op":"open","job":"k","spec":{"alg":"quantum"},"nshards":1,"self":0,"peers":["x"]}`, http.StatusBadRequest},
		{"open with bad topology", "/v1/cluster/rpc", `{"op":"open","job":"k","spec":{"alg":"cc2","topo":"ring:3","daemon":"central","init":"legit"},"nshards":2,"self":5,"peers":["a","b"]}`, http.StatusBadRequest},
		{"frontier without job", "/v1/cluster/frontier", "xx", http.StatusBadRequest},
		{"frontier unknown job", "/v1/cluster/frontier?job=nope", "xx", http.StatusNotFound},
		{"adopt malformed", "/v1/cluster/adopt", "{", http.StatusBadRequest},
		{"adopt unknown job", "/v1/cluster/adopt", `{"job":"nope","shard":0}`, http.StatusNotFound},
	} {
		if code := post(tc.path, tc.body); code != tc.want {
			t.Fatalf("%s: got %d, want %d", tc.name, code, tc.want)
		}
	}

	// Method not allowed on every cluster route (GET where POST is
	// required and vice versa).
	for _, m := range []struct{ method, path string }{
		{http.MethodGet, "/v1/cluster/rpc"},
		{http.MethodGet, "/v1/cluster/frontier"},
		{http.MethodGet, "/v1/cluster/adopt"},
		{http.MethodPost, "/v1/cluster/status"},
	} {
		req, err := http.NewRequest(m.method, ts.URL+m.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("%s %s: got %d, want 405", m.method, m.path, resp.StatusCode)
		}
	}

	if after := metric(t, ts, "ccserve_cluster_errors_total"); after <= errsBefore {
		t.Fatalf("cluster error counter did not move: %g -> %g", errsBefore, after)
	}

	// A garbage frame against an OPEN job must be a 400 from the codec
	// validators, never a panic or a silent accept.
	openBody := `{"op":"open","job":"k","spec":{"alg":"cc2","topo":"ring:3","daemon":"central","init":"legit"},"nshards":1,"self":0,"peers":["` + ts.URL + `"]}`
	if code := post("/v1/cluster/rpc", openBody); code != http.StatusOK {
		t.Fatalf("open: got %d", code)
	}
	if code := post("/v1/cluster/frontier?job=k", "garbage-frame-bytes"); code != http.StatusBadRequest && code != http.StatusConflict {
		t.Fatalf("garbage frame: got %d, want 400 or 409", code)
	}
	// Barrier payloads: a commit without its packed gid list, one
	// carrying the old JSON gid array, and a keys call with bytes that
	// are no gid list are refused — never read as "commit nothing".
	for _, body := range []string{
		`{"op":"commit","job":"k","shard":0}`,
		`{"op":"commit","job":"k","shard":0,"gids":[]}`,
		`{"op":"keys","job":"k","shard":0,"payload":"AAAA"}`,
	} {
		if code := post("/v1/cluster/rpc", body); code != http.StatusBadRequest {
			t.Fatalf("%s: got %d, want 400", body, code)
		}
	}
	if code := post("/v1/cluster/rpc", `{"op":"close","job":"k"}`); code != http.StatusOK {
		t.Fatalf("close: got %d", code)
	}
}
