package parallel

// Stress, race and liveness tests for the work-stealing scheduler: the
// behaviors PR 1's single-flight pool could not provide. Run with
// `go test -race` (scripts/verify.sh does) — most of the value of these
// tests is what the race detector sees while they run.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestNestedThreeLevels drives For-inside-For three levels deep and
// checks exact index coverage: every level fans out, nothing deadlocks,
// no index is lost or run twice.
func TestNestedThreeLevels(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	const l1, l2, l3 = 3, 4, 8192
	var total int64
	ForceFor(l1, func(s1, e1 int) {
		for i := s1; i < e1; i++ {
			ForceFor(l2, func(s2, e2 int) {
				for j := s2; j < e2; j++ {
					For(l3, func(s3, e3 int) {
						atomic.AddInt64(&total, int64(e3-s3))
					})
				}
			})
		}
	})
	if total != l1*l2*l3 {
		t.Fatalf("3-level nesting covered %d index units, want %d", total, l1*l2*l3)
	}
}

// TestConcurrentRegionsCompose proves the single-flight behavior is
// gone: while one region is held open mid-execution, a second region
// submitted from another goroutine must still fan out into multiple
// chunks (under the PR-1 guard it degraded to exactly one inline
// invocation) — two regions making progress simultaneously.
func TestConcurrentRegionsCompose(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	aStarted := make(chan struct{})
	release := make(chan struct{})
	var held atomic.Bool
	var aChunks, bChunks atomic.Int32
	aDone := make(chan struct{})
	go func() {
		defer close(aDone)
		ForceFor(8, func(s, e int) {
			aChunks.Add(1)
			// Only the first body holds region A open; the others return
			// at once. They must not wait for it: the test goroutine,
			// helping region B, may run them, and it releases A only
			// after B returns (bodies must not block on another region's
			// progress; see the package doc).
			if held.CompareAndSwap(false, true) {
				close(aStarted)
				<-release // keep region A open
			}
		})
	}()
	<-aStarted

	// Region A is demonstrably active (one of its bodies is blocked) and
	// cannot complete until released. Region B must still split.
	ForceFor(8, func(s, e int) { bChunks.Add(1) })

	if got := bChunks.Load(); got < 2 {
		t.Errorf("concurrent region ran in %d chunk(s): single-flight serialization is back", got)
	}
	select {
	case <-aDone:
		t.Error("region A completed while one of its bodies was still held")
	default:
	}
	close(release)
	select {
	case <-aDone:
	case <-time.After(30 * time.Second):
		t.Fatal("region A did not complete after release: scheduler lost its tasks")
	}
	if got := aChunks.Load(); got != 8 {
		t.Errorf("region A ran %d chunks, want 8", got)
	}
}

// TestTwoGoroutinesLaunchConcurrently runs two independent regions from
// two goroutines through a rendezvous that guarantees they overlap in
// time, then checks both fanned out and both covered their ranges.
func TestTwoGoroutinesLaunchConcurrently(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	var live [2]atomic.Int32
	var overlapped atomic.Bool
	var chunks [2]atomic.Int32
	var covered [2]int64
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ForceFor(64, func(s, e int) {
				chunks[g].Add(1)
				live[g].Add(1)
				// Watch briefly for the other region being live at the
				// same instant; one sighting anywhere is enough.
				deadline := time.Now().Add(100 * time.Millisecond)
				for !overlapped.Load() && time.Now().Before(deadline) {
					if live[1-g].Load() > 0 {
						overlapped.Store(true)
						break
					}
					time.Sleep(50 * time.Microsecond)
				}
				atomic.AddInt64(&covered[g], int64(e-s))
				live[g].Add(-1)
			})
		}()
	}
	wg.Wait()
	for g := 0; g < 2; g++ {
		if covered[g] != 64 {
			t.Errorf("region %d covered %d of 64", g, covered[g])
		}
		if chunks[g].Load() < 2 {
			t.Errorf("region %d ran in %d chunk(s), want fan-out", g, chunks[g].Load())
		}
	}
	if !overlapped.Load() {
		t.Error("the two regions were never live simultaneously")
	}
}

// TestPanicPropagatesFromTasks: a panic in any loop body — including
// bodies executed by pool workers on stolen tasks — must surface as a
// panic on the goroutine that submitted the region, with the original
// value, and leave the scheduler healthy.
func TestPanicPropagatesFromTasks(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	for try := 0; try < 25; try++ {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatal("panic in loop body did not propagate")
				}
				if s, ok := p.(string); !ok || s != "kernel exploded" {
					t.Fatalf("propagated %v, want the original panic value", p)
				}
			}()
			ForceFor(64, func(s, e int) {
				for i := s; i < e; i++ {
					if i == 13 {
						panic("kernel exploded")
					}
				}
			})
		}()
	}
	// The scheduler must remain fully usable after panics.
	var n int64
	ForceFor(64, func(s, e int) { atomic.AddInt64(&n, int64(e-s)) })
	if n != 64 {
		t.Fatalf("post-panic region covered %d of 64", n)
	}
}

// TestNestedPanicPropagates: a panic inside an inner region crosses
// both region boundaries and reaches the outermost submitter.
func TestNestedPanicPropagates(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	defer func() {
		if p := recover(); p != "inner kernel panic" {
			t.Fatalf("outer goroutine recovered %v, want inner panic value", p)
		}
	}()
	ForceFor(4, func(s, e int) {
		ForceFor(4, func(s, e int) {
			panic("inner kernel panic")
		})
	})
	t.Fatal("unreachable: nested panic was swallowed")
}

// TestSchedulerStress hammers every composition at once: concurrent
// submitters, nesting, varying sizes, and Do — the closest model of K
// simulated MD-GAN workers each driving their own kernels.
func TestSchedulerStress(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				switch (g + i) % 3 {
				case 0:
					ForceFor(64, func(s, e int) {
						For(5000, func(is, ie int) {
							atomic.AddInt64(&total, int64(ie-is))
						})
					})
				case 1:
					For(20000, func(s, e int) {
						atomic.AddInt64(&total, int64(e-s))
					})
				case 2:
					Do(
						func() { atomic.AddInt64(&total, 1) },
						func() { atomic.AddInt64(&total, 1) },
						func() { atomic.AddInt64(&total, 1) },
					)
				}
			}
		}()
	}
	donech := make(chan struct{})
	go func() { wg.Wait(); close(donech) }()
	select {
	case <-donech:
	case <-time.After(120 * time.Second):
		t.Fatal("scheduler stress did not complete: likely deadlock")
	}
	if total == 0 {
		t.Fatal("stress loop did no work")
	}
}
