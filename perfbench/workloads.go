package main

import (
	"fmt"
	"path/filepath"
	"time"

	"mdgan/internal/cluster"
	"mdgan/internal/core"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
)

// The training workloads. Each runs at least 100 steady updates a
// repeat, so a repeat's p90 has ten updates beyond it.
var (
	// mlpFlat8 keeps continuity with BenchmarkMDGANIteration: skinny GEMMs
	// against 784×48 weights, eight worker goroutines fanning out onto
	// the scheduler, Adam.
	mlpFlat8 = trainSpec{
		name: "mlp-flat8", arch: gan.ScaledMLP(48), workers: 8, k: 2, iters: 200, warm: 10,
		data: func(seed int64) (*dataset.Dataset, *dataset.Dataset) {
			return dataset.SynthDigits(800, seed), dataset.SynthDigits(1000, seed+7777)
		},
	}
	// cifarCNN4 is the paper's CIFAR10 panel at laptop scale: Conv2D and
	// ConvTranspose2D with large-m GEMMs, few messages.
	cifarCNN4 = trainSpec{
		name: "cifar-cnn4", arch: gan.ScaledCNN(3, 32, 10), workers: 4, k: 1, iters: 104, warm: 4,
		data: func(seed int64) (*dataset.Dataset, *dataset.Dataset) {
			return dataset.SynthCIFAR(400, seed), dataset.SynthCIFAR(600, seed+7777)
		},
	}
	// ringTree64 makes the round engine dominate: 64 workers with tiny
	// models behind a depth-2 aggregation tree, k = ⌊ln 64⌋.
	ringTree64 = trainSpec{
		name: "ring-tree64", arch: gan.RingMLP(), workers: 64, k: core.DefaultK(64), topo: cluster.Tree{Depth: 2}, iters: 110, warm: 10,
		data: func(seed int64) (*dataset.Dataset, *dataset.Dataset) {
			return dataset.GaussianRing(64*50, 8, 2.0, 0.05, seed), dataset.GaussianRing(1000, 8, 2.0, 0.05, seed+7777)
		},
	}
)

func runTrain(w trainSpec, o options) (*outcome, error) {
	out := newOutcome()
	in, setupS, err := timeSetups(func() (trainInputs, error) { return w.setup(o.seed), nil })
	if err != nil {
		return nil, err
	}
	out.info["updates_per_repeat"] = w.iters

	if !o.trace {
		p := &trainPhase{arch: w.arch}
		if err := w.measure(in, o.seconds, p); err != nil {
			return nil, err
		}
		out.errs = append(out.errs, w.check(p)...)
		out.attempted, out.failed = w.attempted(p)
		r0 := p.reps[0]
		n := float64(r0.res.Iters)
		out.set("ops_per_s", bestRate(p.rates), "1/s")
		out.set("op_p50_ms", bestTime(p.p50s), "ms")
		out.set("op_tail_ms", bestTime(p.p90s), "ms")
		out.set("cpu_ms_per_op", bestTime(p.cpuMs), "ms")
		out.set("wire_bytes_per_op", float64(r0.res.Traffic.Total())/n, "B")
		out.set("server_ingress_bytes_per_op", float64(r0.res.Traffic.IngressByNode["server"])/n, "B")
		if err := out.quality(quality(r0.res.G, in)); err != nil {
			out.fail("%v", err)
		}
		out.set("setup_s", setupS, "s")
		out.set("peak_rss_mb", peakRSSMB(), "MB")
		out.info["repeats"] = len(p.reps)
		out.info["repeat_steal"] = p.steal
		out.info["g_hash"] = fmt.Sprintf("%016x", r0.hash)
		return out, nil
	}

	// Traced run: bare and traced repeats alternate over the same
	// inputs; the two must train the same generator.
	rec := newRecorder()
	bare, traced := &trainPhase{arch: w.arch}, &trainPhase{arch: rec.wrapArch(w.arch), rec: rec}
	if err := w.measure(in, o.seconds, bare, traced); err != nil {
		return nil, err
	}
	out.errs = append(out.errs, w.check(bare)...)
	out.errs = append(out.errs, w.check(traced)...)
	if hb, ht := bare.reps[0].hash, traced.reps[0].hash; hb != ht {
		out.fail("traced G hash %016x differs from bare %016x", ht, hb)
	}
	a1, f1 := w.attempted(bare)
	a2, f2 := w.attempted(traced)
	out.attempted, out.failed = a1+a2, f1+f2
	out.info["g_hash"] = fmt.Sprintf("%016x", bare.reps[0].hash)

	bareRate, tracedRate := bestRate(bare.rates), bestRate(traced.rates)
	lm := trainLayerMetrics(rec, w.warm)
	for k, v := range lm.values {
		out.set(k, v, "") // fillLayerDefaults sets the unit
	}
	out.set("trace.overhead", tracedRate/bareRate, "ratio")
	out.set("runtime.alloc_bytes_per_iter", float64(bare.allocBytes)/float64(countUpdates(bare)), "B")
	out.set("runtime.gc_pause_ms_per_iter", float64(bare.gcPauseNs)/1e6/float64(countUpdates(bare)), "ms")

	t0 := time.Now()
	if _, _, _, err := quality(bare.reps[0].res.G, in); err != nil {
		out.fail("%v", err)
	}
	out.set("metrics.eval_ms", ms(time.Since(t0)), "ms")

	replay(out, w.arch, lm.denseShapes)
	fillLayerDefaults(out)

	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.spans", w.name, o.seed))
	if err := rec.write(path, readHostFacts()); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	out.info["trace_file"] = path
	out.info["gemm_hot_shapes"] = hottest(lm.denseShapes)
	return out, nil
}

// countUpdates is the number of updates a phase ran, all repeats.
func countUpdates(p *trainPhase) int {
	n := 0
	for _, r := range p.reps {
		n += r.res.Iters
	}
	if n == 0 {
		return 1
	}
	return n
}
