package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForCoversRangeExactlyOnce(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	for _, n := range []int{0, 1, 7, 4096, 10000} {
		seen := make([]int32, n)
		For(n, func(s, e int) {
			for i := s; i < e; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

func TestForceForCoversRange(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	n := 37
	var mu sync.Mutex
	seen := make(map[int]int)
	ForceFor(n, func(s, e int) {
		mu.Lock()
		defer mu.Unlock()
		for i := s; i < e; i++ {
			seen[i]++
		}
	})
	if len(seen) != n {
		t.Fatalf("covered %d of %d", len(seen), n)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForGrainRespectsGrain(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	var mu sync.Mutex
	var spans [][2]int
	ForGrain(1000, 100, func(s, e int) {
		mu.Lock()
		spans = append(spans, [2]int{s, e})
		mu.Unlock()
	})
	seen := make([]int, 1000)
	for _, sp := range spans {
		if sp[1]-sp[0] > 100 {
			t.Errorf("chunk [%d,%d) exceeds grain 100", sp[0], sp[1])
		}
		for i := sp[0]; i < sp[1]; i++ {
			seen[i]++
		}
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	// n <= grain runs as a single inline invocation.
	calls := 0
	ForGrain(50, 100, func(s, e int) {
		calls++
		if s != 0 || e != 50 {
			t.Errorf("inline chunk [%d,%d), want [0,50)", s, e)
		}
	})
	if calls != 1 {
		t.Fatalf("n<=grain split into %d chunks, want 1", calls)
	}
}

func TestSetMaxProcsSerialises(t *testing.T) {
	SetMaxProcs(1)
	defer SetMaxProcs(0)
	order := make([]int, 0, 10000)
	For(10000, func(s, e int) {
		for i := s; i < e; i++ {
			order = append(order, i) // safe only because p==1
		}
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial execution out of order at %d", i)
		}
	}
}

func TestDoRunsAll(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	var a, b, c int32
	Do(
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 2) },
		func() { atomic.StoreInt32(&c, 3) },
	)
	if a != 1 || b != 2 || c != 3 {
		t.Fatal("Do did not run all tasks")
	}
}

// TestNestedParallelismComposes replaces the PR-1 regression test that
// pinned nested regions to inline execution: with the work-stealing
// scheduler a nested kernel fans out too, and the requirement is exact
// coverage, not serialisation.
func TestNestedParallelismComposes(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)

	outer, inner := 8, 10000
	var total int64
	ForceFor(outer, func(s, e int) {
		for o := s; o < e; o++ {
			ForceFor(inner, func(is, ie int) {
				atomic.AddInt64(&total, int64(ie-is))
			})
		}
	})
	if total != int64(outer*inner) {
		t.Fatalf("nested regions covered %d index units, want %d", total, outer*inner)
	}
}

// TestSerialSuppressesFanOut: inside Serial, even a large For must run
// as one inline invocation.
func TestSerialSuppressesFanOut(t *testing.T) {
	calls := 0
	Serial(func() {
		For(100000, func(s, e int) {
			calls++
			if s != 0 || e != 100000 {
				t.Errorf("chunk [%d,%d), want inline [0,100000)", s, e)
			}
		})
	})
	if calls != 1 {
		t.Fatalf("For inside Serial ran %d chunks, want 1", calls)
	}
}

// TestPoolGoroutinesAreReused: repeated fan-outs must not leak
// goroutines (workers are persistent; submitters help inline rather
// than spawning).
func TestPoolGoroutinesAreReused(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	// Warm the pool.
	ForceFor(64, func(s, e int) {})
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		ForceFor(64, func(s, e int) {})
		For(100000, func(s, e int) {})
	}
	after := runtime.NumGoroutine()
	if after > before+2 {
		t.Fatalf("goroutines grew from %d to %d across 400 parallel regions", before, after)
	}
}

// TestConcurrentRegionsDoNotDeadlock: many goroutines hammering the
// scheduler at once (the MD-GAN worker topology) must all complete.
func TestConcurrentRegionsDoNotDeadlock(t *testing.T) {
	SetMaxProcs(4)
	defer SetMaxProcs(0)
	var wg sync.WaitGroup
	var total int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				ForceFor(100, func(s, e int) {
					for j := s; j < e; j++ {
						atomic.AddInt64(&total, 1)
					}
				})
			}
		}()
	}
	wg.Wait()
	if total != 16*50*100 {
		t.Fatalf("covered %d iterations, want %d", total, 16*50*100)
	}
}

// countRanger is a pointer Ranger: it converts to the interface without
// allocating, like the pooled kernel bodies (tensor's gemmRun).
type countRanger struct {
	units, chunks atomic.Int64
}

func (c *countRanger) Range(lo, hi int) {
	c.units.Add(int64(hi - lo))
	c.chunks.Add(1)
}

// TestRegionSubmissionAllocatesNothing: a steady-state fanned-out
// region submitted from a goroutine outside the pool, with a pooled
// pointer Ranger, performs no heap allocation. Its context, region and
// victim-list slot all come from pools or reused capacity.
func TestRegionSubmissionAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	prev := runtime.GOMAXPROCS(4)
	SetMaxProcs(4)
	defer func() {
		runtime.GOMAXPROCS(prev)
		SetMaxProcs(0)
	}()
	const n, grain = 4096, 64
	r := &countRanger{}
	for i := 0; i < 10; i++ {
		ForGrainRanger(n, grain, r) // warm the pools
	}
	r.chunks.Store(0)
	r.units.Store(0)
	allocs := testing.AllocsPerRun(50, func() { ForGrainRanger(n, grain, r) })
	if got := r.units.Load(); got != 51*n {
		t.Fatalf("covered %d index units, want %d", got, 51*n)
	}
	if r.chunks.Load() <= 51 {
		t.Fatalf("regions ran as %d chunks over 51 calls: not fanned out", r.chunks.Load())
	}
	if allocs != 0 {
		t.Fatalf("steady-state region submission allocates %v times, want 0", allocs)
	}
}
