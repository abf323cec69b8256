package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mdgan"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/metrics"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/tensor"
)

const (
	// nominalRate is the offered load the latency metrics are read at,
	// about half the knee of a 2-CPU host.
	nominalRate = 2000.0
	// p99LimitMs is the latency limit the nominal rate must meet.
	p99LimitMs = 25.0
	// saturationClients is the closed loop's caller count: enough
	// requests in flight to keep every fused batch full.
	saturationClients = 128
	// maxSamplesPerRequest bounds each request's n.
	maxSamplesPerRequest = 8
)

var serveArch = gan.ScaledMLP(128)

// serveInputs is what serve set-up produces: a checkpoint of a briefly
// trained digits generator, the held-out set with its scorer, and a
// running server over the checkpoint.
type serveInputs struct {
	ckpt   string
	test   *dataset.Dataset
	scorer *metrics.Scorer
	srv    *mdgan.SampleServer
}

// serveSetup builds the served checkpoint from fixed data: how sparse
// the generator's hidden activations are depends on its weights, and
// the GEMM's cost follows, so --seed varies the request mix, the
// latent stream and the held-out set but not the model.
func serveSetup(seed int64, dir string, i int) (serveInputs, error) {
	train, test := dataset.SynthDigits(800, modelSeed), dataset.SynthDigits(1000, seed+7777)
	in := serveInputs{test: test, scorer: metrics.TrainScorer(test, metrics.ScorerConfig{Seed: seed})}
	g := gan.TrainStandalone(train, serveArch, gan.TrainConfig{
		Batch: 10, Iters: 100, GenLoss: nn.GenLossNonSaturating, ClsWeight: 1,
		OptG: opt.AdamConfig{LR: 1e-3}, OptD: opt.AdamConfig{LR: 4e-3}, Seed: modelSeed,
	}, nil)
	in.ckpt = filepath.Join(dir, fmt.Sprintf("serve-%d-%d.ckpt", os.Getpid(), i))
	if err := mdgan.SaveGenerator(g.G, in.ckpt); err != nil {
		return in, err
	}
	srv, err := mdgan.NewSampleServer(mdgan.ServeOptions{Arch: serveArch, Checkpoint: in.ckpt, Seed: seed})
	if err != nil {
		return in, err
	}
	in.srv = srv
	return in, nil
}

// request is one generated request: n samples, labels pinned or not.
type request struct {
	url    string
	u      *url.URL
	n      int
	labels string // "" = the server draws them
}

func newRequest(n int, labels string) request {
	r := request{n: n, labels: labels, url: "/sample?n=" + strconv.Itoa(n)}
	if labels != "" {
		r.url += "&labels=" + labels
	}
	r.u, _ = url.ParseRequestURI(r.url)
	return r
}

func genRequests(seed int64, count int) []request {
	rng := rand.New(rand.NewSource(seed + 99))
	out := make([]request, count)
	for i := range out {
		n := 1 + rng.Intn(maxSamplesPerRequest)
		var labels string
		if rng.Intn(2) == 0 {
			ls := make([]string, n)
			for j := range ls {
				ls[j] = strconv.Itoa(rng.Intn(10))
			}
			labels = strings.Join(ls, ",")
		}
		out[i] = newRequest(n, labels)
	}
	return out
}

// respWriter is a reusable in-process http.ResponseWriter.
type respWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.hdr }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(b)
}

// client issues requests through the handler in process and checks
// each reply, reusing its buffers so the load generator allocates
// little next to the server it measures.
type client struct {
	w        respWriter
	outs     map[int]*tensor.Tensor // decode targets by sample count
	outShape []int
}

func newClient() *client {
	return &client{w: respWriter{hdr: make(http.Header)}, outs: make(map[int]*tensor.Tensor), outShape: serveArch.OutShape}
}

// clients are the load generator's reusable callers of the served
// architecture, shared by every phase of a run.
var clients = sync.Pool{New: func() any { return newClient() }}

// do sends rq and checks the reply: status 200, n samples of the
// output shape with values in [-1, 1], the pinned labels echoed. It
// returns the response body size and the decoded samples, which stay
// valid until the client's next request of the same size.
func (c *client) do(h http.Handler, rq request) (int, *tensor.Tensor, error) {
	clear(c.w.hdr)
	c.w.code = 0
	c.w.body.Reset()
	h.ServeHTTP(&c.w, &http.Request{Method: http.MethodPost, URL: rq.u, RequestURI: rq.url, Header: http.Header{}})
	size := c.w.body.Len()
	if c.w.code != http.StatusOK {
		return size, nil, fmt.Errorf("status %d: %s", c.w.code, strings.TrimSpace(c.w.body.String()))
	}
	t := c.outs[rq.n]
	if t == nil {
		t = tensor.New(append([]int{rq.n}, c.outShape...)...)
		c.outs[rq.n] = t
	}
	if _, err := t.ReadInPlace(bytes.NewReader(c.w.body.Bytes())); err != nil {
		return size, nil, fmt.Errorf("decode: %w", err)
	}
	for _, v := range t.Data {
		if !(v >= -1 && v <= 1) {
			return size, nil, fmt.Errorf("sample value %v outside [-1,1]", v)
		}
	}
	got := c.w.hdr.Get("X-MDGAN-Labels")
	if rq.labels != "" && got != rq.labels {
		return size, nil, fmt.Errorf("labels %q, want %q", got, rq.labels)
	}
	if strings.Count(got, ",")+1 != rq.n {
		return size, nil, fmt.Errorf("%d labels for n=%d", strings.Count(got, ",")+1, rq.n)
	}
	return size, t, nil
}

// loadResult is one open-loop phase at a fixed offered rate.
type loadResult struct {
	rate       float64
	lat        []float64 // ms from due time to reply, completed requests
	lateMaxMs  float64   // how late the generator dispatched, worst case
	offered    int
	failed     int
	firstErr   error
	backlogged bool // outstanding requests passed the cap; phase cut short
	respBytes  int64
	reqBytes   int64
	spans      [][2]int64 // traced runs: request start/end on rec's clock
	// One value per 1 s window: latency p50 and p90 (ms) and process
	// CPU ms per request in an open loop, completed requests per
	// second in a closed loop, and the host's CPU-steal share.
	winP50, winP90, winCPU, winRate, winSteal []float64
}

func (l *loadResult) p(q float64) float64 { return quantile(l.lat, q) }

// openLoop offers reqs at rate for dur: request i is due at i/rate and
// is sent then, whether or not earlier ones were answered. Latency runs
// from the due time, so a stall charges every request queued behind
// it. The phase is cut short when more than rate/4 requests (a quarter
// second of arrivals) are outstanding.
func openLoop(h http.Handler, reqs []request, rate float64, dur time.Duration, rec *recorder) *loadResult {
	count := int(rate * dur.Seconds())
	res := &loadResult{rate: rate}
	lat := make([]float64, count)
	done := make([]bool, count)
	errs := make([]error, count)
	resp := make([]int64, count)
	var spans [][2]int64
	if rec != nil {
		spans = make([][2]int64, count)
	}
	maxOut := int64(rate/4) + 64
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	interval := float64(time.Second) / rate
	window := max(int(rate), 1) // requests due in one second
	cpuMark, st := cpuTime(), startSteal()
	closeWindow := func(n int) {
		c := cpuTime()
		res.winCPU = append(res.winCPU, ms(c-cpuMark)/float64(n))
		res.winSteal = append(res.winSteal, st.share())
		cpuMark, st = c, startSteal()
	}
	start := time.Now()
	for i := 0; i < count; i++ {
		if i > 0 && i%window == 0 {
			closeWindow(window)
		}
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := ms(time.Since(due)); late > res.lateMaxMs {
			res.lateMaxMs = late
		}
		if outstanding.Load() > maxOut {
			res.backlogged = true
			break
		}
		rq := reqs[i%len(reqs)]
		res.offered++
		res.reqBytes += int64(len(rq.url))
		outstanding.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer outstanding.Add(-1)
			var t0 int64
			if rec != nil {
				t0 = rec.now()
			}
			c := clients.Get().(*client)
			size, _, err := c.do(h, rq)
			lat[i] = ms(time.Since(due))
			if rec != nil {
				spans[i] = [2]int64{t0, rec.now()}
			}
			clients.Put(c)
			resp[i], errs[i], done[i] = int64(size), err, true
		}(i)
	}
	if rem := res.offered - len(res.winCPU)*window; rem > 0 {
		closeWindow(rem)
	}
	wg.Wait()
	for i := 0; i < res.offered; i++ {
		if !done[i] {
			continue
		}
		if errs[i] != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = errs[i]
			}
			continue
		}
		res.lat = append(res.lat, lat[i])
		res.respBytes += resp[i]
		if rec != nil {
			res.spans = append(res.spans, spans[i])
		}
	}
	for w := range res.winCPU {
		var ls []float64
		for i := w * window; i < min((w+1)*window, res.offered); i++ {
			if done[i] && errs[i] == nil {
				ls = append(ls, lat[i])
			}
		}
		res.winP50 = append(res.winP50, quantile(ls, 0.5))
		res.winP90 = append(res.winP90, quantile(ls, 0.9))
	}
	return res
}

// rotate returns reqs starting at index k, so consecutive phases do not
// replay the same requests.
func rotate(reqs []request, k int) []request {
	k %= len(reqs)
	return append(append([]request(nil), reqs[k:]...), reqs[:k]...)
}

// merge concatenates phases into one: their requests, windows and
// counters.
func merge(rs []*loadResult) *loadResult {
	m := &loadResult{rate: rs[0].rate}
	for _, r := range rs {
		m.lat = append(m.lat, r.lat...)
		m.spans = append(m.spans, r.spans...)
		m.winP50 = append(m.winP50, r.winP50...)
		m.winP90 = append(m.winP90, r.winP90...)
		m.winCPU = append(m.winCPU, r.winCPU...)
		m.winRate = append(m.winRate, r.winRate...)
		m.winSteal = append(m.winSteal, r.winSteal...)
		m.lateMaxMs = max(m.lateMaxMs, r.lateMaxMs)
		m.offered += r.offered
		m.failed += r.failed
		m.backlogged = m.backlogged || r.backlogged
		m.respBytes += r.respBytes
		m.reqBytes += r.reqBytes
		if m.firstErr == nil {
			m.firstErr = r.firstErr
		}
	}
	return m
}

// closedLoop runs callers that each send their next request
// as soon as the previous one is answered, for dur, counting completed
// requests per second in 1 s windows: the throughput ceiling the
// open-loop latency curve bends towards. With callers outstanding at
// most, the queueing delay at the ceiling stays near callers/ceiling.
func closedLoop(h http.Handler, reqs []request, callers int, dur time.Duration) *loadResult {
	res := &loadResult{rate: math.Inf(1)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var stop atomic.Bool
	var completed atomic.Int64
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var offered, failed int
			var firstErr error
			var lat []float64
			cl := clients.Get().(*client)
			defer clients.Put(cl)
			for i := c; !stop.Load(); i += callers {
				t0 := time.Now()
				_, _, err := cl.do(h, reqs[i%len(reqs)])
				offered++
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = err
					}
					continue
				}
				lat = append(lat, ms(time.Since(t0)))
				completed.Add(1)
			}
			mu.Lock()
			res.offered += offered
			res.failed += failed
			res.lat = append(res.lat, lat...)
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	prevN, prevT := int64(0), start
	for time.Since(start) < dur {
		st := startSteal()
		time.Sleep(min(time.Second, dur-time.Since(start)))
		n, t := completed.Load(), time.Now()
		res.winRate = append(res.winRate, float64(n-prevN)/t.Sub(prevT).Seconds())
		res.winSteal = append(res.winSteal, st.share())
		prevN, prevT = n, t
	}
	stop.Store(true)
	wg.Wait()
	return res
}

// servedQuality draws evalSamples samples through POST /sample and
// scores them like a trained generator.
func servedQuality(h http.Handler, in serveInputs, seed int64) (score, fid, cov float64, err error) {
	const per = 50
	gen := tensor.New(append([]int{evalSamples}, serveArch.OutShape...)...)
	vol := gen.Size() / evalSamples
	c, rq := newClient(), newRequest(per, "")
	for off := 0; off < evalSamples; off += per {
		_, t, err := c.do(h, rq)
		if err != nil {
			return 0, 0, 0, err
		}
		copy(gen.Data[off*vol:], t.Data)
	}
	return sampleQuality(gen, in.test, in.scorer, rand.New(rand.NewSource(seed)))
}

func runServe(o options) (*outcome, error) {
	out := newOutcome()
	dir := filepath.Join(buildDir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var setups []serveInputs
	in, setupS, err := timeSetups(func() (serveInputs, error) {
		in, err := serveSetup(o.seed, dir, len(setups))
		setups = append(setups, in)
		return in, err
	})
	defer func() {
		for _, s := range setups {
			if s.srv != nil {
				s.srv.Close()
			}
			os.Remove(s.ckpt)
		}
	}()
	if err != nil {
		return nil, err
	}
	for _, s := range setups[:len(setups)-1] {
		s.srv.Close() // only the last set-up's server takes load
	}
	reqs := genRequests(o.seed, 4096)
	account := func(rs ...*loadResult) {
		for _, r := range rs {
			out.attempted += r.offered
			out.failed += r.failed
			if r.firstErr != nil {
				out.fail("serve at %.0f req/s: %v", r.rate, r.firstErr)
			}
		}
	}
	// Warm the pools and the scheduler before anything is timed.
	account(openLoop(in.srv, reqs, nominalRate, 300*time.Millisecond, nil))

	// The run alternates 1 s phases, so every metric samples the whole
	// run rather than one stretch of it: the nominal open loop and the
	// closed loop, or in a traced run the bare and the traced server.
	cycles := max(int(o.seconds/2), 2)
	if !o.trace {
		var noms, sats []*loadResult
		for c := 0; c < cycles; c++ {
			rot := rotate(reqs, c*int(nominalRate))
			noms = append(noms, openLoop(in.srv, rot, nominalRate, time.Second, nil))
			sats = append(sats, closedLoop(in.srv, rot, saturationClients, time.Second))
		}
		nom, sat := merge(noms), merge(sats)
		account(nom, sat)
		out.info["nominal_p99_ms"] = nom.p(0.99)
		out.info["nominal_meets_p99_limit"] = !nom.backlogged && nom.p(0.99) <= p99LimitMs
		out.info["saturation_p99_ms"] = sat.p(0.99)
		if err := out.quality(servedQuality(in.srv, in, o.seed)); err != nil {
			out.fail("served samples: %v", err)
		}
		out.set("ops_per_s", bestRate(sat.winRate), "1/s")
		out.set("op_p50_ms", bestTime(nom.winP50), "ms")
		out.set("op_tail_ms", bestTime(nom.winP90), "ms")
		out.set("cpu_ms_per_op", bestTime(nom.winCPU), "ms")
		out.set("wire_bytes_per_op", float64(nom.respBytes)/float64(len(nom.lat)), "B")
		out.set("server_ingress_bytes_per_op", float64(nom.reqBytes)/float64(nom.offered), "B")
		out.set("setup_s", setupS, "s")
		out.set("peak_rss_mb", peakRSSMB(), "MB")
		out.info["nominal_requests"] = len(nom.lat)
		out.info["window_steal"] = map[string][]float64{"nominal": nom.winSteal, "saturation": sat.winSteal}
		out.info["gen_late_ms_max"] = nom.lateMaxMs
		return out, nil
	}

	rec := newRecorder()
	rec.perForward = true
	srv, err := mdgan.NewSampleServer(mdgan.ServeOptions{Arch: rec.wrapArch(serveArch), Checkpoint: in.ckpt, Seed: o.seed})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	account(openLoop(srv, reqs, nominalRate, 300*time.Millisecond, nil))
	var m0, m1 runtime.MemStats
	var allocBytes, gcPauseNs uint64
	var bares, traceds []*loadResult
	t0 := rec.now()
	for c := 0; c < cycles; c++ {
		rot := rotate(reqs, c*int(nominalRate))
		runtime.ReadMemStats(&m0)
		bares = append(bares, openLoop(in.srv, rot, nominalRate, time.Second, nil))
		runtime.ReadMemStats(&m1)
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
		gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
		traceds = append(traceds, openLoop(srv, rot, nominalRate, time.Second, rec))
	}
	t1 := rec.now()
	bare, traced := merge(bares), merge(traceds)
	account(bare, traced)

	lm := serveLayerMetrics(rec, traced, t0, t1)
	for k, v := range lm.values {
		out.set(k, v, "") // fillLayerDefaults sets the unit
	}
	out.set("serve.gen_late_ms_max", bare.lateMaxMs, "ms")
	out.set("trace.overhead", bestTime(bare.winP50)/bestTime(traced.winP50), "ratio")
	reqN := float64(bare.offered)
	out.set("runtime.alloc_bytes_per_iter", float64(allocBytes)/reqN, "B")
	out.set("runtime.gc_pause_ms_per_iter", float64(gcPauseNs)/1e6/reqN, "ms")

	e0 := time.Now()
	if _, _, _, err := servedQuality(in.srv, in, o.seed); err != nil {
		out.fail("served samples: %v", err)
	}
	out.set("metrics.eval_ms", ms(time.Since(e0)), "ms")

	replay(out, serveArch, lm.denseShapes)
	fillLayerDefaults(out)
	path := filepath.Join(traceDir, fmt.Sprintf("serve-open-seed%d.spans", o.seed))
	if err := rec.write(path, readHostFacts()); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	out.info["trace_file"] = path
	out.info["gemm_hot_shapes"] = hottest(lm.denseShapes)
	return out, nil
}

// serveLayerMetrics computes the serving per-layer metrics from the
// fused-forward spans and the request spans of one traced phase.
func serveLayerMetrics(rec *recorder, load *loadResult, t0, t1 int64) layerMetrics {
	lm := layerMetrics{values: make(map[string]float64)}
	spans := rec.spans()
	x := rec.index()
	gFwd := rec.name("nn.g.fwd")
	in := func(s span) bool { return s.start >= t0 && s.end <= t1 }

	var fwds []span
	typeDir := make(map[string]int64)
	var gNs int64
	for _, s := range spans {
		if !in(s) {
			continue
		}
		if s.name == gFwd {
			fwds = append(fwds, s)
			continue
		}
		if _, typ, dir, ok := x.layer(s.name); ok {
			typeDir[typ+"."+dir] += s.dur()
			gNs += s.dur()
		}
	}
	if len(fwds) == 0 {
		return lm
	}
	nb := float64(len(fwds))
	var fwdNs, rows int64
	for _, f := range fwds {
		fwdNs += f.dur()
		rows += int64(f.n)
	}
	lm.set("serve.fwd_ms_per_batch", float64(fwdNs)/1e6/nb)
	lm.set("serve.avg_batch", float64(rows)/nb)
	lm.set("nn.g_fwd_ms_per_iter", float64(gNs)/1e6/nb)
	lm.set("nn.g_fwd_calls_per_iter", 1)
	for td, ns := range typeDir {
		typ, dir, _ := strings.Cut(td, ".")
		lm.set("nn."+typ+"."+dir+"_ms_per_iter", float64(ns)/1e6/nb)
	}

	// One replica runs its fused forwards back to back, so the forward
	// that answered a request is the last one ending before the reply;
	// the request queued from its arrival until that forward began.
	ends := make([]int64, len(fwds))
	for i, f := range fwds {
		ends[i] = f.end
	}
	var queue []float64
	for _, r := range load.spans {
		j := sort.Search(len(ends), func(i int) bool { return ends[i] > r[1] }) - 1
		if j < 0 {
			continue
		}
		q := float64(fwds[j].start-r[0]) / 1e6
		if q < 0 {
			q = 0
		}
		queue = append(queue, q)
	}
	lm.set("serve.queue_ms_p50", median(queue))
	lm.denseShapes = x.denseShapes(spans, in)
	return lm
}
