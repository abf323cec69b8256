package main

import (
	"reflect"
	"testing"
	"time"

	"mdgan"
	"mdgan/internal/cluster"
	"mdgan/internal/dataset"
	"mdgan/internal/gan"
	"mdgan/internal/simnet"
)

// retryNet is a transport that reports send retries, as TCPNet and
// ChaosNet do.
type retryNet struct{ *simnet.ChannelNet }

func (retryNet) Retries() int64 { return 7 }

func smallSpec(arch gan.Arch, workers, k, iters int, ds *dataset.Dataset) trainSpec {
	return trainSpec{arch: arch, workers: workers, k: k, iters: iters, warm: 1,
		data: func(int64) (*dataset.Dataset, *dataset.Dataset) { return ds, ds }}
}

func TestTracedNetKeepsTrafficAndFaultStats(t *testing.T) {
	w := smallSpec(gan.RingMLP(), 4, 2, 12, dataset.GaussianRing(400, 8, 2, 0.05, 1))
	in := w.setup(1)
	run := func(wrap bool) (simnet.Traffic, cluster.FaultStats) {
		var net simnet.Net = retryNet{simnet.NewChannelNet(0)}
		defer net.Close()
		if wrap {
			net = newRecorder().wrapNet(net)
		}
		r, err := w.trainOn(in, w.arch, net, nil)
		if err != nil {
			t.Fatal(err)
		}
		return r.res.Traffic, r.res.Faults
	}
	bareT, bareF := run(false)
	wrapT, wrapF := run(true)
	if !reflect.DeepEqual(bareT, wrapT) {
		t.Errorf("traffic differs: bare %+v, wrapped %+v", bareT, wrapT)
	}
	if !reflect.DeepEqual(bareF, wrapF) {
		t.Errorf("fault stats differ: bare %+v, wrapped %+v", bareF, wrapF)
	}
	if wrapF.TransportRetries != 7 {
		t.Errorf("wrapped run reports %d transport retries, want the transport's 7", wrapF.TransportRetries)
	}
}

func TestTracedLayersAreBitwiseInert(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec trainSpec
	}{
		{"mlp", smallSpec(gan.ScaledMLP(48), 8, 2, 20, dataset.SynthDigits(400, 2))},
		{"cnn", smallSpec(gan.ScaledCNN(3, 32, 10), 2, 1, 3, dataset.SynthCIFAR(80, 2))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := tc.spec
			in := w.setup(2)
			bare, err := w.trainOnce(in, w.arch, nil)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			traced, err := w.trainOnce(in, rec.wrapArch(w.arch), rec)
			if err != nil {
				t.Fatal(err)
			}
			if bare.hash != traced.hash {
				t.Fatalf("G hash %016x with wrappers, %016x without", traced.hash, bare.hash)
			}
			// Core clones D once per worker; the clones must report
			// into the same recorder, one instance each.
			dFwd := rec.name("nn.d.fwd")
			seen := make(map[uint16]bool)
			for _, s := range rec.spans() {
				if s.name == dFwd {
					seen[s.who] = true
				}
			}
			if len(seen) != w.workers {
				t.Errorf("D forward spans from %d instances, want one per worker (%d)", len(seen), w.workers)
			}
			lm := trainLayerMetrics(rec, w.warm)
			if got := lm.values["simnet.msgs_per_iter.c2w"]; got != float64(w.workers) {
				t.Errorf("simnet.msgs_per_iter.c2w = %v, want %d", got, w.workers)
			}
			if got := lm.values["nn.g_fwd_calls_per_iter"]; got != float64(2*w.k) {
				t.Errorf("nn.g_fwd_calls_per_iter = %v, want 2k = %d", got, 2*w.k)
			}
		})
	}
}

func TestServeLoadIsCheckedAndTraced(t *testing.T) {
	in, err := serveSetup(1, t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer in.srv.Close()
	rec := newRecorder()
	rec.perForward = true
	srv, err := mdgan.NewSampleServer(mdgan.ServeOptions{Arch: rec.wrapArch(serveArch), Checkpoint: in.ckpt, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	reqs := genRequests(1, 256)
	t0 := rec.now()
	open := openLoop(srv, reqs, 500, 400*time.Millisecond, rec)
	t1 := rec.now()
	closed := closedLoop(in.srv, reqs, 16, 300*time.Millisecond)
	for _, r := range []*loadResult{open, closed} {
		if r.offered == 0 || r.failed > 0 || r.firstErr != nil {
			t.Errorf("offered %d, failed %d: %v", r.offered, r.failed, r.firstErr)
		}
	}
	if len(open.winP90) == 0 || len(closed.winRate) == 0 {
		t.Fatalf("no measuring windows: open %d, closed %d", len(open.winP90), len(closed.winRate))
	}
	lm := serveLayerMetrics(rec, open, t0, t1)
	if b := lm.values["serve.avg_batch"]; b < 1 || b > 64 {
		t.Errorf("serve.avg_batch = %v, want a fused batch of 1..64 samples", b)
	}
	if len(lm.denseShapes) == 0 {
		t.Error("no Dense GEMM shapes recorded from the served generator")
	}
}
