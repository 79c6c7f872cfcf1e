package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"v6lab/internal/server"
	"v6lab/internal/telemetry"
)

const (
	// serverHot is the size of the duplicate (cache-hit) job set; it is
	// below the server's CacheEntries, so hot results stay cached.
	serverHot = 2
	// serverCacheEntries is the server's LRU capacity in results. Cached
	// results and finished job records both hold whole results (pcaps
	// included), so they bound the run's memory.
	serverCacheEntries = 8
	// serverDevices is the population of every job's small testbed.
	serverDevices = 6
	// Every serverRecheckEvery-th cold job resubmits the new cold job
	// serverRecheckLag new cold jobs back. More than serverCacheEntries
	// new keys were cached since, so the key has left the cache: the
	// server computes the report again and it is compared with the first.
	serverRecheckEvery = 4
	serverRecheckLag   = 12
)

// serverHistory is how many finished job records the server keeps. A
// cache hit adds its record at submit time, so the cap must leave room
// for every client's own record until that client has read its
// artifacts.
func serverHistory(clients int) int { return max(8, 4*clients) }

// serverWL drives an in-process v6labd handler over a loopback listener
// with nproc closed-loop clients. Each client alternates a cold study job
// (a unique seed, so it misses the cache and runs; or a recheck, see
// serverRecheckEvery) with a duplicate of one of serverHot hot jobs (a
// cache hit). Each client submits, blocks on the job's event stream
// until it closes, then reads the fullreport. A unit is one job.
type serverWL struct {
	seed    uint64
	clients int
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	http    *http.Client
	hot     []server.JobSpec
	strata  *stratifier
	units   atomic.Int64

	mu      sync.Mutex
	colds   int                   // cold jobs submitted
	fresh   []server.JobSpec      // the new (non-recheck) cold jobs, in order
	reports map[server.Key]string // cache key -> fullreport sha256
}

func newServerWL(seed uint64) workload {
	return &serverWL{seed: seed, clients: runtime.NumCPU(), strata: newStratifier(), reports: map[server.Key]string{}}
}

func (w *serverWL) unit() string { return "job" }

// setup starts the server, waits for /healthz, fills the cache with the
// hot set, and runs one warm-up cold job per client.
func (w *serverWL) setup() error {
	rng := splitmix64(w.seed ^ 0x5EED)
	for i := 0; i < serverHot; i++ {
		rng = splitmix64(rng)
		w.hot = append(w.hot, w.spec(1<<40+rng>>24, &rng))
	}
	w.srv = server.New(server.Config{Workers: w.clients, CacheEntries: serverCacheEntries, JobHistory: serverHistory(w.clients)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients, MaxConnsPerHost: w.clients}}

	resp, err := w.http.Get(w.base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	t := newTally()
	for _, s := range w.hot {
		w.job(s, t, nil)
	}
	for i := 0; i < w.clients; i++ {
		w.job(w.spec(1<<43+uint64(i), &rng), t, nil)
	}
	return t.err()
}

func (w *serverWL) close() {
	if w.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	// Errors here only mean the deadline passed with work in flight; the
	// run is over either way, and every goroutine is waited for below.
	_ = w.hs.Shutdown(ctx)
	<-w.served
	_ = w.srv.Shutdown(ctx)
	w.http.CloseIdleConnections()
}

// spec builds a study job over serverDevices distinct registry devices
// drawn from rng. Planned traffic per device is heavy-tailed (a few
// devices plan 50 times the median), so draws are kept only when the
// set plans within 25% of the registry's mean for that many devices:
// every job is then about the same size, and the cost of a run does not
// hinge on which heavy devices its seed happened to draw.
func (w *serverWL) spec(seed uint64, rng *uint64) server.JobSpec {
	st := w.strata
	want := serverDevices * st.meanW
	for {
		var idx []int
		sum := 0.0
		for len(idx) < serverDevices {
			*rng = splitmix64(*rng)
			i := int(*rng % uint64(len(st.reg)))
			if !slices.Contains(idx, i) {
				idx = append(idx, i)
				sum += st.weight[i]
			}
		}
		if sum < 0.75*want || sum > 1.25*want {
			continue
		}
		s := server.JobSpec{Kind: "study", Seed: seed, Workers: 1}
		for _, i := range idx {
			s.Devices = append(s.Devices, st.reg[i].Name)
		}
		return s
	}
}

func (w *serverWL) run(deadline time.Time, t *tally, tr *tracer, reg *telemetry.Registry) {
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		// Every phase replays the same per-client streams; only the cold
		// seeds keep counting, so new cold jobs never hit the cache.
		rng := splitmix64(w.seed ^ uint64(c+1)*0x9E3779B97F4A7C15)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				if i%2 == 1 {
					// Round-robin, so every hot key is used again long
					// before serverCacheEntries new keys could evict it.
					w.job(w.hot[(i/2+c)%serverHot], t, tr)
				} else {
					w.job(w.coldSpec(&rng), t, tr)
				}
			}
		}()
	}
	wg.Wait()
}

// coldSpec returns the next cold job: a new spec with a unique seed, or
// every serverRecheckEvery-th time the spec of an earlier new cold job
// that has left the cache.
func (w *serverWL) coldSpec(rng *uint64) server.JobSpec {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.colds++
	if n := len(w.fresh); n >= serverRecheckLag && w.colds%serverRecheckEvery == 0 {
		return w.fresh[n-serverRecheckLag]
	}
	s := w.spec(1<<41+w.seed<<20+uint64(w.colds), rng)
	w.fresh = append(w.fresh, s)
	return s
}

// job runs one submission end to end and checks the fullreport against
// every earlier job with the same cache key. A cache hit serves the
// stored result, so the check bites when a key is computed again.
func (w *serverWL) job(s server.JobSpec, t *tally, tr *tracer) {
	unit := w.units.Add(1)
	start := time.Now()
	root := tr.begin("server.job", 0, unit)
	body, err := json.Marshal(s)
	if err != nil {
		t.fail("encoding job spec: %v", err)
		return
	}
	id := tr.begin("server.submit", root, unit)
	var sub server.SubmitResponse
	err = w.call(http.MethodPost, "/v1/jobs", body, &sub)
	tr.end(id)
	if err != nil {
		t.fail("submit: %v", err)
		return
	}
	id = tr.begin("server.events", root, unit)
	err = w.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/events", nil, nil)
	tr.end(id)
	if err != nil {
		t.fail("job %s events: %v", sub.ID, err)
		return
	}
	id = tr.begin("server.fetch", root, unit)
	fetchStart := time.Now()
	var rep bytes.Buffer
	err = w.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/artifacts/fullreport", nil, &rep)
	fetchMS := msSince(fetchStart)
	tr.end(id)
	lat := msSince(start)
	tr.end(root)
	if err != nil {
		t.fail("job %s fullreport: %v", sub.ID, err)
		return
	}
	sum := digest(rep.String())
	w.mu.Lock()
	want, seen := w.reports[sub.Key]
	if !seen {
		w.reports[sub.Key] = sum
	}
	w.mu.Unlock()
	if seen && want != sum {
		t.fail("job %s key %v: fullreport sha256 %s differs from an earlier job's %s", sub.ID, sub.Key, sum, want)
		return
	}
	if seen && !sub.Cached {
		t.count("server.recomputed", 1)
	}
	if sub.Cached {
		t.hit(lat)
	} else {
		t.latency(lat)
	}
	t.done(1)
	if tr != nil {
		w.traceJob(sub, fetchMS, t)
	}
}

// traceJob records a traced job's per-layer observations: its queue wait
// and execution time from the job's status timestamps, its artifact
// fetch time, and (for jobs that ran) the job's telemetry counters.
func (w *serverWL) traceJob(sub server.SubmitResponse, fetchMS float64, t *tally) {
	t.sample("server.fetch_ms", fetchMS)
	t.count("server.jobs", 1)
	if sub.Cached {
		t.count("server.hits", 1)
		return
	}
	var st server.JobStatus
	if err := w.call(http.MethodGet, "/v1/jobs/"+sub.ID, nil, &st); err != nil {
		t.fail("job %s status: %v", sub.ID, err)
		return
	}
	created, err1 := time.Parse(time.RFC3339Nano, st.CreatedAt)
	started, err2 := time.Parse(time.RFC3339Nano, st.StartedAt)
	finished, err3 := time.Parse(time.RFC3339Nano, st.FinishedAt)
	if err := errors.Join(err1, err2, err3); err != nil {
		t.fail("job %s timestamps: %v", sub.ID, err)
		return
	}
	t.sample("server.queue_wait_ms", float64(started.Sub(created))/1e6)
	t.sample("server.exec_ms", float64(finished.Sub(started))/1e6)
	var snap telemetry.Snapshot
	if err := w.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/artifacts/telemetry.json", nil, &snap); err != nil {
		t.fail("job %s telemetry: %v", sub.ID, err)
		return
	}
	countSnapshot(t, snap)
}

// call performs one request. A non-nil out receives the body: decoded as
// JSON, or copied when out is a *bytes.Buffer. Any status other than 200
// or 202 is an error.
func (w *serverWL) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, w.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	switch o := out.(type) {
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	case *bytes.Buffer:
		_, err = o.ReadFrom(resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return err
}

// countSnapshot adds every point of a telemetry snapshot to t's counts
// under "tm.<metric name>", summing labelled series.
func countSnapshot(t *tally, snap telemetry.Snapshot) {
	for _, p := range snap.Points {
		if p.Kind == "histogram" {
			continue
		}
		t.count("tm."+p.Name, float64(p.Value))
	}
}
