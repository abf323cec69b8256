package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/core"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/metrics"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// modelSeed seeds model initialisation and the engine's RNG streams.
// It is fixed so that --seed varies only the generated data.
const modelSeed = 2

// evalSamples is the paper's sample count for score and FID.
const evalSamples = 500

// trainSpec is one training workload: the strict synchronous engine at
// b=10 over an in-process ChannelNet.
type trainSpec struct {
	name    string
	arch    gan.Arch
	workers int
	k       int
	topo    cluster.Topology // nil = flat star
	iters   int              // updates per repeat (Result.Iters must match)
	warm    int              // leading updates of each repeat left out of the steady state
	data    func(seed int64) (train, test *dataset.Dataset)
}

// trainInputs is what set-up produces: the shards, the held-out set
// and the scorer trained on it (outside every timed region).
type trainInputs struct {
	shards []*dataset.Dataset
	test   *dataset.Dataset
	scorer *metrics.Scorer
}

func (w trainSpec) setup(seed int64) trainInputs {
	train, test := w.data(seed)
	return trainInputs{
		shards: dataset.Split(train, w.workers, seed+500),
		test:   test,
		scorer: metrics.TrainScorer(test, metrics.ScorerConfig{Seed: seed}),
	}
}

func (w trainSpec) config(net simnet.Net, eval core.EvalFunc) core.Config {
	return core.Config{
		TrainConfig: gan.TrainConfig{
			Batch: 10, Iters: w.iters, GenLoss: nn.GenLossNonSaturating, ClsWeight: 1,
			OptG: opt.AdamConfig{LR: 1e-3}, OptD: opt.AdamConfig{LR: 4e-3},
			Seed: modelSeed, EvalEvery: 1,
		},
		K: w.k, Net: net, Topology: w.topo,
	}
}

// repeat is one core.Train call with its per-update stamps.
type repeat struct {
	res    *core.Result
	stamps []time.Time     // stamps[0] = call, stamps[i] = end of update i
	cpu    []time.Duration // process CPU time at each stamp
	hash   uint64
	finite bool
}

// trainOnce runs one repeat. With rec non-nil the transport is wrapped
// and every update is recorded as a span.
func (w trainSpec) trainOnce(in trainInputs, arch gan.Arch, rec *recorder) (*repeat, error) {
	net := simnet.NewChannelNet(0)
	defer net.Close()
	return w.trainOn(in, arch, net, rec)
}

// trainOn runs one repeat over the given transport.
func (w trainSpec) trainOn(in trainInputs, arch gan.Arch, net simnet.Net, rec *recorder) (*repeat, error) {
	r := &repeat{stamps: make([]time.Time, 0, w.iters+1), cpu: make([]time.Duration, 0, w.iters+1)}
	var upd uint16
	var prev int64
	if rec != nil {
		net = rec.wrapNet(net)
		upd = rec.name("core.update")
		prev = rec.now()
	}
	r.stamps = append(r.stamps, time.Now())
	r.cpu = append(r.cpu, cpuTime())
	eval := func(it int, _ *gan.Generator) {
		r.stamps = append(r.stamps, time.Now())
		r.cpu = append(r.cpu, cpuTime())
		if rec != nil {
			t := rec.now()
			u := rec.upd.Load()
			rec.updBuf().add(span{start: prev, end: t, upd: u, name: upd, n: int32(it)})
			prev = t
			rec.upd.Add(1)
		}
	}
	res, err := core.Train(in.shards, arch, w.config(net, eval), eval)
	if err != nil {
		return nil, err
	}
	r.res = res
	r.hash, r.finite = paramHash(res.G.Params())
	res.Discs = nil // a repeat keeps only what the checks and metrics read
	return r, nil
}

// paramHash is an FNV-1a hash of the parameters' bit patterns, and
// whether every parameter is finite.
func paramHash(ps []*nn.Param) (uint64, bool) {
	h := fnv.New64a()
	finite := true
	var b [8]byte
	for _, p := range ps {
		for _, v := range p.W.Data {
			f := float64(v)
			if math.IsNaN(f) || math.IsInf(f, 0) {
				finite = false
			}
			bits := math.Float64bits(f)
			for i := range b {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64(), finite
}

// trainPhase aggregates the repeats of one measuring phase.
type trainPhase struct {
	arch gan.Arch
	rec  *recorder // nil for a bare phase
	reps []*repeat
	// One value per repeat, over its steady updates.
	rates []float64 // updates per second
	p50s  []float64 // median update time, ms
	p90s  []float64 // p90 update time, ms
	cpuMs []float64 // process CPU ms per update
	steal []float64 // host CPU-steal share
	// Summed over the repeats.
	allocBytes, gcPauseNs uint64
}

// measure repeats core.Train until seconds have passed, at least twice
// per phase so the cross-repeat checks always have a pair. With several
// phases (bare and traced) the repeats alternate, so every phase sees
// the same host. Each repeat is one measuring window (see bestTime).
func (w trainSpec) measure(in trainInputs, seconds float64, phases ...*trainPhase) error {
	start := time.Now()
	var round time.Duration
	for len(phases[0].reps) < 2 || time.Since(start).Seconds()+round.Seconds()/2 < seconds {
		t0 := time.Now()
		for _, p := range phases {
			if err := w.repeatInto(in, p); err != nil {
				return err
			}
		}
		round = time.Since(t0)
	}
	return nil
}

// repeatInto runs one repeat of phase p and records its window values.
func (w trainSpec) repeatInto(in trainInputs, p *trainPhase) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	st := startSteal()
	r, err := w.trainOnce(in, p.arch, p.rec)
	steal := st.share()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	if len(p.reps) > 0 {
		r.res.G = nil // the first repeat's generator stands for all
	}
	p.reps = append(p.reps, r)
	var iterMs []float64
	for i := w.warm + 1; i < len(r.stamps); i++ {
		iterMs = append(iterMs, ms(r.stamps[i].Sub(r.stamps[i-1])))
	}
	end := len(r.stamps) - 1
	n := float64(len(iterMs))
	p.rates = append(p.rates, n/r.stamps[end].Sub(r.stamps[w.warm]).Seconds())
	p.p50s = append(p.p50s, quantile(iterMs, 0.5))
	p.p90s = append(p.p90s, quantile(iterMs, 0.9))
	p.cpuMs = append(p.cpuMs, ms(r.cpu[end]-r.cpu[w.warm])/n)
	p.steal = append(p.steal, steal)
	p.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	p.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	return nil
}

// check verifies a phase's outputs: every repeat ran the requested
// updates, the generator is finite, and the final parameters and
// per-link message counts are identical across repeats.
func (w trainSpec) check(p *trainPhase) []string {
	var errs []string
	first := p.reps[0]
	for i, r := range p.reps {
		if r.res.Iters != w.iters {
			errs = append(errs, fmt.Sprintf("repeat %d: Result.Iters=%d, want %d", i, r.res.Iters, w.iters))
		}
		if !r.finite {
			errs = append(errs, fmt.Sprintf("repeat %d: non-finite generator parameters", i))
		}
		if r.hash != first.hash {
			errs = append(errs, fmt.Sprintf("repeat %d: G hash %016x, repeat 0 had %016x", i, r.hash, first.hash))
		}
		for _, k := range []simnet.Kind{simnet.CtoW, simnet.WtoC, simnet.WtoW} {
			if r.res.Traffic.Msgs[k] != first.res.Traffic.Msgs[k] {
				errs = append(errs, fmt.Sprintf("repeat %d: %s messages %d, repeat 0 had %d", i, k, r.res.Traffic.Msgs[k], first.res.Traffic.Msgs[k]))
			}
		}
	}
	return errs
}

// attempted counts the updates asked for and those not delivered.
func (w trainSpec) attempted(p *trainPhase) (attempted, failed int) {
	for _, r := range p.reps {
		attempted += w.iters
		failed += w.iters - r.res.Iters
	}
	return attempted, failed
}

// quality scores the final generator on evalSamples samples: the
// classifier score, FID against held-out data and the effective share
// of classes (modes) the samples cover.
func quality(g *gan.Generator, in trainInputs) (score, fid, coverage float64, err error) {
	rng := rand.New(rand.NewSource(12345))
	gen, _ := g.Generate(evalSamples, rng, false)
	return sampleQuality(gen, in.test, in.scorer, rng)
}

func sampleQuality(gen *tensor.Tensor, test *dataset.Dataset, scorer *metrics.Scorer, rng *rand.Rand) (score, fid, coverage float64, err error) {
	score = scorer.Score(gen)
	idx := make([]int, gen.Dim(0))
	for i := range idx {
		idx[i] = rng.Intn(test.Len())
	}
	real, _ := test.Batch(idx)
	if fid, err = scorer.FID(real, gen); err != nil {
		return 0, 0, 0, fmt.Errorf("fid: %w", err)
	}
	return score, fid, modeCoverage(scorer.Posteriors(gen)), nil
}

// modeCoverage is exp(H(c))/classes, where c is the histogram of the
// scorer's predicted class over the samples: 1 when the samples spread
// evenly over every class (mode), 1/classes when all collapse onto one.
func modeCoverage(post *tensor.Tensor) float64 {
	n, k := post.Dim(0), post.Dim(1)
	hist := make([]float64, k)
	for i := 0; i < n; i++ {
		best := 0
		for j := 1; j < k; j++ {
			if post.At(i, j) > post.At(i, best) {
				best = j
			}
		}
		hist[best]++
	}
	h := 0.0
	for _, c := range hist {
		if c > 0 {
			p := c / float64(n)
			h -= p * math.Log(p)
		}
	}
	return math.Exp(h) / float64(k)
}

// quality puts score, FID and mode coverage on the info line, or
// returns err. They are not judged metrics: after a benchmark-length
// run they swing with the data seed by more than any bound a timing
// could use, and a change that keeps the arithmetic leaves them bitwise
// unchanged.
func (o *outcome) quality(score, fid, coverage float64, err error) error {
	if err != nil {
		return err
	}
	o.info["score"], o.info["fid"], o.info["mode_coverage"] = score, fid, coverage
	return nil
}
