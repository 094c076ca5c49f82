package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"pftk/internal/obs"
	"pftk/internal/serve"
	"pftk/internal/tracez"
)

// Warm-up before the timed window, per client: predict-unique fills the
// 4096-entry cache twice over, so it is full and evicting; predict-zipf
// runs until the cache holds the popular keys and its hit share is flat.
const (
	warmUnique = 4096
	warmZipf   = 8192
)

// pftkdTraceCap is pftkd's default -tracecap; tracedTraceCap is the ring
// the traced run uses instead, so its span statistics cover thousands of
// requests rather than the last few hundred.
const (
	pftkdTraceCap  = 4096
	tracedTraceCap = 1 << 17
)

// request is one generated /v1/predict request with what it must return.
type request struct {
	body  []byte
	curve bool
	pts   []point
	want  []rates // nil for predict-unique: evaluated when the response arrives
}

// stream yields one client's requests; false means it is exhausted.
type stream interface {
	next() (request, bool)
}

type uniqueStream struct {
	g   *uniqueGen
	buf []byte
	pt  [1]point
}

func (s *uniqueStream) next() (request, bool) {
	pt, ok := s.g.next()
	if !ok {
		return request{}, false
	}
	s.buf = appendPoint(s.buf[:0], pt)
	s.pt[0] = pt
	return request{body: s.buf, pts: s.pt[:]}, true
}

type zipfStream struct {
	g *zipfGen
	o *oracle
}

func (s *zipfStream) next() (request, bool) {
	q := s.g.next()
	lo, hi := int(q.idx), int(q.idx)+1
	if q.curve {
		lo, hi = int(q.idx)*curvePoints, (int(q.idx)+1)*curvePoints
	}
	return request{body: s.g.ks.body(q), curve: q.curve, pts: s.g.ks.points[lo:hi], want: s.o.want[lo:hi]}, true
}

// server is one pftkd instance on a loopback listener.
type server struct {
	srv    *serve.Server
	hs     *http.Server
	reg    *obs.Registry
	tracer *tracez.Tracer
	timer  *handlerTimer // nil unless traced
	url    string
	hc     *http.Client
	served chan error
}

// bootServer builds the server the way cmd/pftkd does with default flags
// and starts serving it on 127.0.0.1. The traced run sizes a larger span
// ring and wraps the handler in a timer.
func bootServer(traced bool) (*server, error) {
	traceCap := pftkdTraceCap
	if traced {
		traceCap = tracedTraceCap
	}
	reg := obs.New()
	tracer := tracez.New(tracez.Options{Shards: 8, PerShard: (traceCap + 7) / 8})
	srv := serve.New(serve.Config{
		QueueDepth:   256,
		CacheEntries: cacheEntries,
		MaxBatch:     1024,
		BatchWait:    0,
		Registry:     reg,
		Tracer:       tracer,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: srv, reg: reg, tracer: tracer, served: make(chan error, 1)}
	var h http.Handler = srv
	if traced {
		s.timer = &handlerTimer{next: srv, durs: map[string]float64{}}
		h = s.timer
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	s.url = "http://" + ln.Addr().String() + "/v1/predict"
	s.hc = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConns:        nClients,
		MaxIdleConnsPerHost: nClients,
		MaxConnsPerHost:     nClients,
		DisableCompression:  true,
	}}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for in-flight handlers and the serve
// goroutine, then drains the server's job queue.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.hc.CloseIdleConnections()
	s.srv.Close()
	if err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	return nil
}

// handlerTimer times each call of the server's ServeHTTP while on,
// keyed by the X-Request-Id the client sent.
type handlerTimer struct {
	next http.Handler
	on   atomic.Bool
	mu   sync.Mutex
	//pftk:guardedby mu
	durs map[string]float64 // µs
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() {
		h.next.ServeHTTP(w, r)
		return
	}
	id := r.Header.Get("X-Request-Id")
	t := time.Now()
	h.next.ServeHTTP(w, r)
	d := float64(time.Since(t)) / 1e3
	h.mu.Lock()
	h.durs[id] = d
	h.mu.Unlock()
}

// take returns the recorded durations and clears them.
func (h *handlerTimer) take() map[string]float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.durs
	h.durs = map[string]float64{}
	return out
}

// client is one closed-loop connection's request stream and counters.
type client struct {
	id     int
	stream stream
	seq    int
}

// reqID is the X-Request-Id of a client's seq-th request.
func reqID(c, seq int) string { return strconv.Itoa(c) + "-" + strconv.Itoa(seq) }

// clientRun is what one client did in one window.
type clientRun struct {
	lat       []float64 // µs, per completed 2xx request
	ids       []string  // request ids matching lat, when recorded
	attempted int64
	fails     errCount
	points    int64
	markov    int64
	curves    int64
}

// post sends one request and reads the whole response.
func post(hc *http.Client, url, id string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", id)
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // the body is fully read; a close error changes nothing
	return resp.StatusCode, data, err
}

// loop runs one client closed-loop while more(i) holds for its i-th
// request of this window, checking every response.
func (c *client) loop(s *server, more func(i int) bool, keepIDs bool) clientRun {
	var run clientRun
	for i := 0; more(i); i++ {
		r, ok := c.stream.next()
		if !ok {
			break
		}
		id := reqID(c.id, c.seq)
		c.seq++
		run.attempted++
		run.points += int64(len(r.pts))
		for _, pt := range r.pts {
			if pt.Markov {
				run.markov++
			}
		}
		if r.curve {
			run.curves++
		}
		t := time.Now()
		code, body, err := post(s.hc, s.url, id, r.body)
		rtt := float64(time.Since(t)) / 1e3
		switch {
		case err != nil:
			run.fails.add(fmt.Errorf("request %s: %w", id, err))
			continue
		case code != http.StatusOK:
			run.fails.add(fmt.Errorf("request %s: status %d: %s", id, code, bytes.TrimSpace(body)))
			continue
		}
		if err := checkBody(body, r.curve, r.pts, r.want); err != nil {
			run.fails.add(fmt.Errorf("request %s: %w", id, err))
			continue
		}
		run.lat = append(run.lat, rtt)
		if keepIDs {
			run.ids = append(run.ids, id)
		}
	}
	return run
}

// window is the measurement of all clients over one timed interval.
type window struct {
	runs []clientRun
	wall float64 // seconds from start until the last client stopped
	cpu  float64 // process CPU seconds over the window
	mem  memDelta
	reg0 obs.Snapshot
	reg1 obs.Snapshot
}

// drive runs every client concurrently until more says stop.
func drive(s *server, clients []*client, more func(i int) bool, keepIDs bool) window {
	w := window{runs: make([]clientRun, len(clients)), reg0: s.reg.Snapshot()}
	m0 := readMem()
	u0 := readUsage()
	t0 := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(clients))
	for i, c := range clients {
		go func() {
			defer wg.Done()
			w.runs[i] = c.loop(s, more, keepIDs)
		}()
	}
	wg.Wait()
	w.wall = since(t0)
	w.cpu = readUsage().cpu - u0.cpu
	w.mem = memSince(m0)
	w.reg1 = s.reg.Snapshot()
	return w
}

// timed drives the clients for d.
func timed(s *server, clients []*client, d time.Duration, keepIDs bool) window {
	deadline := time.Now().Add(d)
	return drive(s, clients, func(int) bool { return time.Now().Before(deadline) }, keepIDs)
}

// counter is the growth of a registry counter over the window.
func (w window) counter(name string) float64 {
	return float64(w.reg1.Counter(name) - w.reg0.Counter(name))
}

func (w window) latencies() []float64 {
	var all []float64
	for _, r := range w.runs {
		all = append(all, r.lat...)
	}
	return all
}

func (w window) completed() int64 {
	var n int64
	for _, r := range w.runs {
		n += int64(len(r.lat))
	}
	return n
}

func (w window) totals() (attempted int64, fails errCount, points, markov, curves int64) {
	for _, r := range w.runs {
		attempted += r.attempted
		fails.merge(r.fails)
		points += r.points
		markov += r.markov
		curves += r.curves
	}
	return
}

// traffic is the measured shape of a window's traffic: what the cache,
// batcher and singleflight actually saw.
type traffic struct {
	hitShare, markovShare, curveShare       float64
	pointsPerJob, coalescedPerMiss, rejects float64
}

func (w window) traffic() traffic {
	attempted, _, points, markovPts, curves := w.totals()
	hits, misses := w.counter("serve.cache.hits"), w.counter("serve.cache.misses")
	return traffic{
		hitShare:         ratio(hits, hits+misses),
		markovShare:      ratio(float64(markovPts), float64(points)),
		curveShare:       ratio(float64(curves), float64(attempted)),
		pointsPerJob:     ratio(w.counter("serve.predict.evals"), w.counter("serve.batch.jobs")),
		coalescedPerMiss: ratio(w.counter("serve.predict.coalesced"), misses),
		rejects:          ratio(w.counter("serve.http.rejected"), w.counter("serve.http.requests")),
	}
}

func (w window) printTraffic(label string) {
	t := w.traffic()
	attempted, _, points, _, _ := w.totals()
	fmt.Printf("traffic (%s): hit_share=%.4f markov_share=%.4f curve_share=%.4f points_per_job=%.4f coalesced_per_miss=%.3g reject_frac=%.3g (requests=%d points=%d evals=%.0f pool_jobs=%.0f)\n",
		label, t.hitShare, t.markovShare, t.curveShare, t.pointsPerJob, t.coalescedPerMiss, t.rejects,
		attempted, points, w.counter("serve.predict.evals"), w.counter("serve.batch.jobs"))
}

// e2e is a window's end-to-end numbers.
type e2e struct {
	reqPerS, p50, p99, cpuPerReq float64
	samples                      int
}

func (w window) e2e() e2e {
	lat := w.latencies()
	n := float64(w.completed())
	return e2e{
		reqPerS:   ratio(n, w.wall),
		p50:       quantile(lat, 0.50),
		p99:       quantile(lat, 0.99),
		cpuPerReq: ratio(w.cpu*1e6, n),
		samples:   len(lat),
	}
}

// runPredict runs predict-unique or predict-zipf.
func runPredict(cfg runConfig) (result, error) {
	clients := make([]*client, nClients)
	warm := warmUnique
	var orc *oracle
	var sample []point // the workload's points, for timing core directly
	if cfg.workload == "predict-zipf" {
		warm = warmZipf
		t := time.Now()
		ks := newKeyspace(cfg.seed)
		var err error
		if orc, err = newOracle(ks, runtime.GOMAXPROCS(0)); err != nil {
			return result{}, err
		}
		fmt.Printf("oracle: %d keys evaluated in-process (%d Markov solves) in %.3f s, outside every timed interval\n",
			len(ks.points), len(orc.markovSolve), since(t))
		for c := range clients {
			clients[c] = &client{id: c, stream: &zipfStream{g: newZipfGen(ks, cfg.seed, c), o: orc}}
		}
		sample = ks.points
	} else {
		for c := range clients {
			clients[c] = &client{id: c, stream: &uniqueStream{g: newUniqueGen(cfg.seed, c)}}
		}
		g := newUniqueGen(cfg.seed, 0)
		for len(sample) < cacheEntries {
			pt, _ := g.next()
			sample = append(sample, pt)
		}
	}

	// Set up several times: boot a fresh server and warm it until its
	// cache is in steady state. The last one is measured.
	var setups []float64
	var warmFails errCount
	var s *server
	for rep := 0; rep < setupReps; rep++ {
		t := time.Now()
		var err error
		if s, err = bootServer(cfg.traced); err != nil {
			return result{}, err
		}
		ww := drive(s, clients, func(i int) bool { return i < warm }, false)
		setups = append(setups, since(t))
		_, f, _, _, _ := ww.totals()
		warmFails.merge(f)
		if rep == setupReps-1 {
			ww.printTraffic("warm-up")
			break
		}
		if err := s.close(); err != nil {
			return result{}, err
		}
	}
	warmFails.describe("warm-up")

	var res result
	var err error
	if cfg.traced {
		res, err = tracedPredict(cfg, s, clients, sample, orc, median(setups))
	} else {
		res = untracedPredict(cfg, s, clients, median(setups))
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	res.Correct = res.Correct && warmFails.n == 0
	return res, err
}

// sliceDur is the length of one slice of the timed window. Each slice
// yields its own throughput, latency quantiles and CPU per request, and
// the run reports the median slice, so a burst of load from outside the
// process moves one slice rather than the result.
const sliceDur = time.Second

func untracedPredict(cfg runConfig, s *server, clients []*client, setup float64) result {
	var ws []window
	var perS, p50s, p99s, cpus []float64
	samples := 0
	for k := 0; k < cfg.seconds; k++ {
		w := timed(s, clients, sliceDur, false)
		e := w.e2e()
		ws = append(ws, w)
		perS, p50s, p99s, cpus = append(perS, e.reqPerS), append(p50s, e.p50), append(p99s, e.p99), append(cpus, e.cpuPerReq)
		samples += e.samples
	}
	all := merge(ws)
	attempted, fails, _, _, _ := all.totals()
	all.printTraffic("timed window")
	fmt.Printf("end-to-end (median of %d slices of %v; n counts requests over all slices):\n", len(ws), sliceDur)
	rep := newReport()
	rep.set("setup_s", setup, "s", setupReps, "median of server boot + cache warm-up")
	rep.set("req_per_s", median(perS), "1/s", samples, "completed 2xx requests per second")
	rep.set("lat_p50_us", median(p50s), "us", samples, "client round trip")
	rep.set("lat_p99_us", median(p99s), "us", samples, "client round trip")
	rep.set("cpu_us_per_req", median(cpus), "us", samples, "process user+sys CPU; client and server share the process")
	rep.set("peak_rss_mb", readUsage().peakRSSMB, "MB", -1, "")
	fails.describe("timed window")
	return result{Correct: fails.n == 0, Attempted: attempted, Failed: fails.n, Metrics: rep.metrics}
}

// merge joins consecutive windows into one.
func merge(ws []window) window {
	out := window{reg0: ws[0].reg0, reg1: ws[len(ws)-1].reg1}
	for _, w := range ws {
		out.runs = append(out.runs, w.runs...)
		out.wall += w.wall
		out.cpu += w.cpu
		out.mem.allocs += w.mem.allocs
		out.mem.bytes += w.mem.bytes
		out.mem.gcs += w.mem.gcs
	}
	return out
}

// median is the 0.5 quantile of a copy of xs.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}
