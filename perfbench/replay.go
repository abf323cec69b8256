package main

// Replay timings for modules the end-to-end run cannot wrap: the
// scheduler's parallel.For, the GEMM at the Dense shapes the traced run
// recorded, and one Adam step over the workload's parameters.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/opt"
	"mdgan/internal/parallel"
	"mdgan/internal/tensor"
)

// forCallers is N of parallel.for_us.N: as many concurrent callers as
// mlp-flat8 has worker goroutines.
const forCallers = 8

func replay(out *outcome, arch gan.Arch, shapes []gemmShape) {
	out.set("parallel.for_us.1", forOverhead(1), "us")
	out.set("parallel.for_us.N", forOverhead(forCallers), "us")
	for i, s := range hottest(shapes) {
		out.set(fmt.Sprintf("tensor.gemm_gflops.hot%d", i+1), gemmGflops(s), "GFLOP/s")
	}
	g := arch.NewGAN(modelSeed, nn.GenLossNonSaturating, 1)
	out.set("opt.adam_g_ms", adamMs(g.G.Params(), 1e-3), "ms")
	out.set("opt.adam_d_ms", adamMs(g.D.Params(), 4e-3), "ms")
}

// hottest is the head of a hottest-first shape list that the
// tensor.gemm_gflops.hot<i> metrics replay.
func hottest(shapes []gemmShape) []gemmShape {
	if len(shapes) > 3 {
		return shapes[:3]
	}
	return shapes
}

// timeCalls runs fn until budget has passed (at least min times) and
// returns the median call time in ns.
func timeCalls(budget time.Duration, min int, fn func()) float64 {
	var ts []float64
	start := time.Now()
	for len(ts) < min || time.Since(start) < budget {
		t0 := time.Now()
		fn()
		ts = append(ts, float64(time.Since(t0)))
	}
	return median(ts)
}

// forOverhead is the median cost in µs of an empty parallel.For region
// large enough to fan out, called from callers goroutines at once.
func forOverhead(callers int) float64 {
	const n = 1 << 16
	empty := func(int, int) {}
	meds := make([]float64, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			meds[c] = timeCalls(150*time.Millisecond, 50, func() { parallel.For(n, empty) })
		}(c)
	}
	wg.Wait()
	return median(meds) / 1e3
}

// gemmGflops replays tensor.MatMulInto at one recorded shape.
func gemmGflops(s gemmShape) float64 {
	rng := rand.New(rand.NewSource(1))
	a, b, out := tensor.New(s.M, s.K), tensor.New(s.K, s.N), tensor.New(s.M, s.N)
	for i := range a.Data {
		a.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	for i := range b.Data {
		b.Data[i] = tensor.Elem(rng.NormFloat64())
	}
	for i := 0; i < 3; i++ {
		tensor.MatMulInto(out, a, b)
	}
	ns := timeCalls(60*time.Millisecond, 20, func() { tensor.MatMulInto(out, a, b) })
	return 2 * float64(s.M) * float64(s.K) * float64(s.N) / ns
}

// adamMs is the median time of one Adam step over params, with small
// random gradients.
func adamMs(params []*nn.Param, lr float64) float64 {
	rng := rand.New(rand.NewSource(1))
	for _, p := range params {
		for i := range p.Grad.Data {
			p.Grad.Data[i] = tensor.Elem(1e-3 * rng.NormFloat64())
		}
	}
	a := opt.NewAdam(opt.AdamConfig{LR: lr})
	for i := 0; i < 3; i++ {
		a.Step(params)
	}
	return timeCalls(100*time.Millisecond, 20, func() { a.Step(params) }) / 1e6
}
