package main

import (
	"sort"
	"strings"
)

// perLayer lists every per-layer metric a traced run reports. A layer
// a workload never calls reads 0 (serving has no discriminator and no
// transport; training has no request queue).
var perLayer = []struct{ name, unit string }{
	{"parallel.for_us.1", "us"},
	{"parallel.for_us.N", "us"},
	{"tensor.gemm_gflops.hot1", "GFLOP/s"},
	{"tensor.gemm_gflops.hot2", "GFLOP/s"},
	{"tensor.gemm_gflops.hot3", "GFLOP/s"},
	{"nn.g_fwd_ms_per_iter", "ms"},
	{"nn.g_bwd_ms_per_iter", "ms"},
	{"nn.g_fwd_calls_per_iter", "count"},
	{"nn.d_fwd_ms_per_iter", "ms"},
	{"nn.d_bwd_ms_per_iter", "ms"},
	{"nn.d_busy_max_ms_per_iter", "ms"},
	{"nn.Dense.fwd_ms_per_iter", "ms"},
	{"nn.Dense.bwd_ms_per_iter", "ms"},
	{"nn.Conv2D.fwd_ms_per_iter", "ms"},
	{"nn.Conv2D.bwd_ms_per_iter", "ms"},
	{"nn.ConvTranspose2D.fwd_ms_per_iter", "ms"},
	{"nn.ConvTranspose2D.bwd_ms_per_iter", "ms"},
	{"nn.MinibatchDiscrimination.fwd_ms_per_iter", "ms"},
	{"nn.MinibatchDiscrimination.bwd_ms_per_iter", "ms"},
	{"nn.LeakyReLU.fwd_ms_per_iter", "ms"}, // ReLU is a LeakyReLU with slope 0
	{"nn.LeakyReLU.bwd_ms_per_iter", "ms"},
	{"nn.Tanh.fwd_ms_per_iter", "ms"},
	{"nn.Tanh.bwd_ms_per_iter", "ms"},
	{"opt.adam_g_ms", "ms"},
	{"opt.adam_d_ms", "ms"},
	{"simnet.msgs_per_iter.c2w", "count"},
	{"simnet.msgs_per_iter.w2c", "count"},
	{"simnet.msgs_per_iter.w2w", "count"},
	{"simnet.bytes_per_iter.c2w", "B"},
	{"simnet.bytes_per_iter.w2c", "B"},
	{"simnet.bytes_per_iter.w2w", "B"},
	{"simnet.send_block_ms_per_iter", "ms"},
	{"simnet.send_errors", "count"},
	{"core.blocking_other_ms", "ms"},
	{"serve.fwd_ms_per_batch", "ms"},
	{"serve.avg_batch", "count"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.gen_late_ms_max", "ms"},
	{"metrics.eval_ms", "ms"},
	{"runtime.alloc_bytes_per_iter", "B"},
	{"runtime.gc_pause_ms_per_iter", "ms"},
	{"trace.overhead", "ratio"},
}

// fillLayerDefaults keeps exactly the perLayer metrics, with their
// units, reading 0 for a layer the workload does not reach.
func fillLayerDefaults(out *outcome) {
	keep := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		keep[m.name] = metric{out.metrics[m.name].Value, m.unit}
	}
	out.metrics = keep
}

// gemmShape is one Dense forward GEMM the traced run saw: (m×k)·(k×n).
type gemmShape struct {
	M, K, N int
	Calls   int
	TotalMs float64
}

// layerMetrics are per-layer values computed from spans.
type layerMetrics struct {
	values      map[string]float64
	denseShapes []gemmShape // by total time, hottest first
}

func (l *layerMetrics) set(name string, v float64) { l.values[name] = v }

// spanIndex resolves span names into the layer facts analysis needs.
type spanIndex struct {
	rec   *recorder
	names []string
}

func (r *recorder) index() spanIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	return spanIndex{rec: r, names: append([]string(nil), r.names...)}
}

// layer parses a layer span name "nn.<role>.<idx>.<Type>.<dir>".
func (x spanIndex) layer(id uint16) (role, typ, dir string, ok bool) {
	parts := strings.Split(x.names[id], ".")
	if len(parts) != 5 || parts[0] != "nn" {
		return "", "", "", false
	}
	return parts[1], parts[3], parts[4], true
}

// denseShapes ranks the Dense forward GEMMs of the selected spans.
func (x spanIndex) denseShapes(spans []span, keep func(span) bool) []gemmShape {
	x.rec.mu.Lock()
	dense := x.rec.dense
	x.rec.mu.Unlock()
	byKey := make(map[[3]int]*gemmShape)
	for _, s := range spans {
		io, ok := dense[s.name]
		if !ok || !keep(s) {
			continue
		}
		key := [3]int{int(s.n), io[0], io[1]}
		g := byKey[key]
		if g == nil {
			g = &gemmShape{M: key[0], K: key[1], N: key[2]}
			byKey[key] = g
		}
		g.Calls++
		g.TotalMs += float64(s.dur()) / 1e6
	}
	var out []gemmShape
	for _, g := range byKey {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}

// trainLayerMetrics computes the per-layer metrics of a traced training
// phase over its steady-state updates (update spans whose in-repeat
// iteration exceeds warm).
func trainLayerMetrics(rec *recorder, warm int) layerMetrics {
	lm := layerMetrics{values: make(map[string]float64)}
	spans := rec.spans()
	x := rec.index()
	updName := rec.name("core.update")
	sendKinds := map[uint16]string{
		rec.name("simnet.send.c2w"): "c2w", rec.name("simnet.send.w2c"): "w2c", rec.name("simnet.send.w2w"): "w2w",
	}
	gFwd := rec.name("nn.g.fwd")

	updates := make(map[int32]span)
	for _, s := range spans {
		if s.name == updName && int(s.n) > warm {
			updates[s.upd] = s
		}
	}
	n := float64(len(updates))
	if n == 0 {
		return lm
	}
	steady := func(s span) bool { _, ok := updates[s.upd]; return ok }

	type key struct {
		upd int32
		who uint16
	}
	gBusy := make(map[int32]int64)
	dBusy := make(map[key]int64)
	roleDir := make(map[string]int64)
	typeDir := make(map[string]int64)
	sendDur := make(map[string][]float64)
	msgs := make(map[string]int)
	bytes := make(map[string]int64)
	gCalls := 0
	for _, s := range spans {
		if !steady(s) {
			continue
		}
		if k, ok := sendKinds[s.name]; ok {
			msgs[k]++
			bytes[k] += int64(s.n)
			sendDur[k] = append(sendDur[k], float64(s.dur()))
			continue
		}
		if s.name == gFwd {
			gCalls++
			continue
		}
		role, typ, dir, ok := x.layer(s.name)
		if !ok {
			continue
		}
		roleDir[role+"."+dir] += s.dur()
		typeDir[typ+"."+dir] += s.dur()
		if role == "g" {
			gBusy[s.upd] += s.dur()
		} else {
			dBusy[key{s.upd, s.who}] += s.dur()
		}
	}
	dMax := make(map[int32]int64)
	for k, v := range dBusy {
		if v > dMax[k.upd] {
			dMax[k.upd] = v
		}
	}
	var dMaxSum, otherSum int64
	for u, s := range updates {
		dMaxSum += dMax[u]
		otherSum += s.dur() - gBusy[u] - dMax[u]
	}
	perIter := func(ns int64) float64 { return float64(ns) / 1e6 / n }

	lm.set("nn.g_fwd_ms_per_iter", perIter(roleDir["g.fwd"]))
	lm.set("nn.g_bwd_ms_per_iter", perIter(roleDir["g.bwd"]))
	lm.set("nn.g_fwd_calls_per_iter", float64(gCalls)/n)
	lm.set("nn.d_fwd_ms_per_iter", perIter(roleDir["d.fwd"]))
	lm.set("nn.d_bwd_ms_per_iter", perIter(roleDir["d.bwd"]))
	lm.set("nn.d_busy_max_ms_per_iter", perIter(dMaxSum))
	for td, ns := range typeDir {
		typ, dir, _ := strings.Cut(td, ".")
		lm.set("nn."+typ+"."+dir+"_ms_per_iter", perIter(ns))
	}
	lm.set("core.blocking_other_ms", perIter(otherSum))

	// A Send's wait on back-pressure, seen from outside: its time past
	// the median Send of its link kind.
	var block float64
	for k, ds := range sendDur {
		med := median(ds)
		for _, d := range ds {
			if d > med {
				block += d - med
			}
		}
		lm.set("simnet.msgs_per_iter."+k, float64(msgs[k])/n)
		lm.set("simnet.bytes_per_iter."+k, float64(bytes[k])/n)
	}
	lm.set("simnet.send_block_ms_per_iter", block/1e6/n)
	var errs int64
	for _, b := range rec.nets {
		errs += b.errs.Load()
	}
	lm.set("simnet.send_errors", float64(errs))
	lm.denseShapes = x.denseShapes(spans, steady)
	return lm
}
