// Package parallel schedules the data-parallel loops of every compute
// kernel in the code base. It is the only place that decides how many
// goroutines a kernel may use, so the policy (and its test hooks) live
// here.
//
// Work is executed by a work-stealing scheduler. Each pool worker and
// each open region owns a deque of tasks: a persistent pool worker keeps
// its deque for life, and a fanned-out region takes a pooled one for its
// duration, so no goroutine identity is ever looked up. A task is one
// contiguous index range (lo, hi, fn) of a parallel region; executing a
// task first splits it recursively (push the upper half, keep the
// lower) until it reaches the region's grain, so large ranges become
// stealable halves while the owner keeps working on cache-adjacent
// indices. Idle workers steal half of a victim's deque at a time
// (oldest tasks first — the biggest ranges).
//
// Regions compose: a For reached from inside another For's loop body
// submits its subtasks to the same scheduler and then *helps* — the
// blocked goroutine executes tasks from its region's deque first (its
// freshly pushed subtasks, LIFO), then steals from every other deque,
// the deques of the regions it is nested in included, until its region
// has completed. Nothing ever parks while it still owes work, which makes
// arbitrarily nested regions and concurrently submitted regions (one
// per simulated MD-GAN worker) deadlock-free without the old
// single-flight guard that serialised them.
//
// Loop bodies may spawn nested regions freely but must not block on
// channels or locks held by *other* regions' bodies: a helping
// goroutine can execute any region's task while it waits, so such
// cross-region blocking can extend (though never cycle) a region's
// lifetime arbitrarily.
//
// A panic inside a loop body — even one executing on a stolen task in
// another goroutine — is recovered, the region is drained, and the
// panic value is re-raised on the goroutine that submitted the region.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// serialGrain is the loop length below which For runs inline; under
// ~4096 scalar iterations the hand-off to the scheduler costs more than
// it saves for the kernels in this repo.
const serialGrain = 4096

// splitMul is the number of grains per worker a region is split into
// when no explicit grain is given: enough slack for stealing to balance
// uneven bodies without drowning in per-task overhead.
const splitMul = 8

// maxProcsOverride pins the degree of parallelism for tests; 0 means
// use GOMAXPROCS.
var maxProcsOverride atomic.Int32

// procs returns the degree of parallelism to use.
func procs() int {
	if n := maxProcsOverride.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetMaxProcs overrides the parallelism target used by For, ForGrain,
// ForceFor and Do. n <= 0 restores the default (GOMAXPROCS). n == 1
// forces every region inline on its calling goroutine (serial order).
// For n > 1 the value tunes how finely regions split (about splitMul·n
// tasks); the number of bodies actually running concurrently is bounded
// by the pool (sized to GOMAXPROCS at startup) plus the submitting
// goroutines, not by n — use the runtime's GOMAXPROCS to cap CPU use.
func SetMaxProcs(n int) {
	if n <= 0 {
		maxProcsOverride.Store(0)
		return
	}
	maxProcsOverride.Store(int32(n))
}

// serialDepth counts open Serial sections. While positive, every region
// runs inline, process-wide, so already-parallel callers can suppress
// kernel fan-out for a bounded section.
var serialDepth atomic.Int32

// Ranger is the loop body of a parallel region in interface form: Range
// is invoked with disjoint [lo, hi) chunks, concurrently. ForGrainRanger
// takes it instead of a func so allocation-free hot paths can pool one
// pointer-backed implementation per call site — a pointer (or any
// pointer-shaped value) converts to the interface without heap
// allocation, where a fresh func literal always allocates its closure.
type Ranger interface {
	Range(lo, hi int)
}

// funcRanger adapts the closure-based entry points to the Ranger-based
// region internals. A func value is pointer-shaped, so the conversion
// does not allocate beyond the closure itself.
type funcRanger func(lo, hi int)

func (f funcRanger) Range(lo, hi int) { f(lo, hi) }

// region is one For/ForceFor/Do invocation: the loop body, the split
// grain, and the completion state shared by every task split from it.
// Regions are pooled (steady-state kernels submit thousands per
// iteration), so completion is a cond broadcast rather than a one-shot
// channel close: whoever drives pending to zero broadcasts, and the
// submitting goroutine — the only possible waiter — always re-checks
// pending, so a stray broadcast delivered to a recycled region is a
// harmless spurious wake.
type region struct {
	fn      Ranger
	grain   int
	pending atomic.Int64 // index units not yet executed

	mu   sync.Mutex
	cond sync.Cond // signalled when pending reaches zero; L is &mu

	panicMu  sync.Mutex
	panicked bool
	panicV   any
}

var regionPool = sync.Pool{New: func() any {
	r := &region{}
	r.cond.L = &r.mu
	return r
}}

func (r *region) recordPanic(p any) {
	r.panicMu.Lock()
	if !r.panicked {
		r.panicked = true
		r.panicV = p
	}
	r.panicMu.Unlock()
}

// task is one contiguous index range of a region.
type task struct {
	r      *region
	lo, hi int
}

// deque is a mutex-guarded double-ended task queue. Only its owner
// pushes and pops (at the tail: LIFO, cache-warm); thieves take from
// the head — the oldest, therefore largest, ranges.
type deque struct {
	mu sync.Mutex
	t  []task
}

func (d *deque) push(t task) {
	d.mu.Lock()
	d.t = append(d.t, t)
	d.mu.Unlock()
	signalWork()
}

func (d *deque) pop() (task, bool) {
	d.mu.Lock()
	n := len(d.t)
	if n == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	t := d.t[n-1]
	d.t[n-1] = task{} // drop the region reference
	d.t = d.t[:n-1]
	d.mu.Unlock()
	return t, true
}

// stealHalfInto moves the older half of d's queue to the thief: the
// first stolen task is returned for immediate execution, the rest are
// appended to dst. scratch is the thief's reusable staging buffer (the
// two deques are never locked at the same time, so mutual stealing
// cannot deadlock).
func (d *deque) stealHalfInto(dst *deque, scratch *[]task) (task, bool) {
	d.mu.Lock()
	n := len(d.t)
	if n == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	k := (n + 1) / 2
	buf := append((*scratch)[:0], d.t[:k]...)
	rest := copy(d.t, d.t[k:])
	for i := rest; i < n; i++ {
		d.t[i] = task{}
	}
	d.t = d.t[:rest]
	d.mu.Unlock()
	t := buf[0]
	if len(buf) > 1 {
		dst.mu.Lock()
		dst.t = append(dst.t, buf[1:]...)
		dst.mu.Unlock()
		signalWork()
	}
	// Keep the staging buffer's capacity but drop its task references:
	// a pool worker lives forever, and a stale region pointer here would
	// pin the region and every buffer its closure captured.
	for i := range buf {
		buf[i] = task{}
	}
	*scratch = buf[:0]
	return t, true
}

// wctx is a scheduling context: a deque plus the steal state of
// whoever drives it. A pool worker owns one for its whole life; every
// fanned-out region takes one from helperPool for its duration, so a
// goroutine nested in several regions drives one context per level and
// only the innermost is active. Only the driving goroutine pushes into
// a context's deque, so the deques of the suspended outer levels can
// only shrink (by thieves, the nested level's own sweep included).
type wctx struct {
	dq       deque
	stealBuf []task
	rnd      uint64
}

// nextRand is a xorshift step for victim selection.
func (w *wctx) nextRand() uint64 {
	x := w.rnd
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rnd = x
	return x
}

var (
	// victims lists every deque a thief may steal from.
	victims struct {
		mu   sync.RWMutex
		list []*wctx
	}
	helperSeed atomic.Uint64
)

func addVictim(w *wctx) {
	victims.mu.Lock()
	victims.list = append(victims.list, w)
	victims.mu.Unlock()
}

// removeVictim swap-removes w in place, so a region submission
// allocates nothing: steal reads the list only under the read lock, so
// no thief can observe the shuffle.
func removeVictim(w *wctx) {
	victims.mu.Lock()
	l := victims.list
	for i, v := range l {
		if v == w {
			last := len(l) - 1
			l[i] = l[last]
			l[last] = nil
			victims.list = l[:last]
			break
		}
	}
	victims.mu.Unlock()
}

// steal takes work from a random victim, sweeping all of them once.
func (w *wctx) steal() (task, bool) {
	victims.mu.RLock()
	defer victims.mu.RUnlock()
	n := len(victims.list)
	if n == 0 {
		return task{}, false
	}
	off := int(w.nextRand() % uint64(n))
	for i := 0; i < n; i++ {
		v := victims.list[(off+i)%n]
		if v == w {
			continue
		}
		if t, ok := v.dq.stealHalfInto(&w.dq, &w.stealBuf); ok {
			return t, true
		}
	}
	return task{}, false
}

// runTask splits t down to its region's grain (pushing upper halves for
// thieves) and executes the remaining range, recovering any panic into
// the region.
func (w *wctx) runTask(t task) {
	r := t.r
	lo, hi := t.lo, t.hi
	for hi-lo > r.grain {
		mid := lo + (hi-lo)/2
		w.dq.push(task{r: r, lo: mid, hi: hi})
		hi = mid
	}
	runBody(r, lo, hi)
	if r.pending.Add(int64(lo-hi)) == 0 {
		// pending is monotonically decreasing: exactly one broadcaster.
		// Taking mu orders the broadcast against the waiter's
		// check-then-Wait, so the wakeup cannot be lost.
		r.mu.Lock()
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

func runBody(r *region, lo, hi int) {
	defer func() {
		if p := recover(); p != nil {
			r.recordPanic(p)
		}
	}()
	r.fn.Range(lo, hi)
}

// Pool workers: persistent goroutines that execute stolen work so a
// steady-state training iteration never pays goroutine spawn cost. The
// pool tracks runtime.GOMAXPROCS: every region submission re-checks it
// (two atomic loads on the fast path), so a GOMAXPROCS change between
// Train calls grows the pool or retires the excess workers without a
// restart.
var (
	poolMu     sync.Mutex
	wake       = make(chan struct{}, 128)
	sleepers   atomic.Int32
	poolTarget atomic.Int32 // desired pool size (poolWant of the last ensurePool)
	poolLive   atomic.Int32 // workers currently alive
	poolSeq    uint64       // seeds worker RNGs distinctly across respawns
)

// signalWork wakes one parked pool worker, if any.
func signalWork() {
	if sleepers.Load() > 0 {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

// poolWant is the pool size the current GOMAXPROCS calls for (minimum 2
// so stealing is exercised even on one core). SetMaxProcs only narrows
// how finely regions split; it does not resize the pool.
func poolWant() int32 {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 2
	}
	return int32(n)
}

// ensurePool starts the pool on first use and resizes it whenever
// GOMAXPROCS has changed since the last region: new workers are spawned
// immediately; excess workers retire themselves the next time they go
// idle (poolExit), so a shrink never interrupts running tasks. A worker
// that committed to exit just as the target rose back is respawned by
// the next region's ensurePool — the pool converges within a region
// submission of any GOMAXPROCS change.
func ensurePool() {
	want := poolWant()
	if poolTarget.Load() == want {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	want = poolWant() // re-read under the lock
	cur := poolTarget.Load()
	if cur == want {
		return
	}
	poolTarget.Store(want)
	for live := poolLive.Load(); live < want; live++ {
		poolSeq++
		w := &wctx{rnd: poolSeq*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D}
		addVictim(w)
		poolLive.Add(1)
		go w.loop()
	}
	// Shrinking: wake enough parked workers for the excess to notice.
	for i := want; i < cur; i++ {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
}

// poolExit reports whether an idle worker should retire to meet a
// lowered poolTarget. The excess check and the poolLive decrement
// happen under poolMu — the same lock ensurePool grows under — so a
// retirement can never interleave with a concurrent grow: without the
// lock, a worker could read a stale (lower) target, decrement poolLive
// after the grow counted it, and leave the pool permanently below
// target behind ensurePool's fast path. The lock-free load pair keeps
// the steady-state idle loop cheap.
func (w *wctx) poolExit() bool {
	if poolLive.Load() <= poolTarget.Load() {
		return false
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolLive.Load() <= poolTarget.Load() {
		return false
	}
	poolLive.Add(-1)
	removeVictim(w)
	return true
}

// loop is the pool worker body: pop own work, steal, park. A worker's
// own deque is filled only by itself, so after a failed pop it can only
// acquire work by stealing. The sleepers increment happens before the
// final steal sweep, and every push signals after enqueueing, so a task
// enqueued concurrently with parking is never lost. An idle worker
// retires when the pool target shrank below the live count; its deque
// is empty at that point (pop just failed), so no task is stranded.
func (w *wctx) loop() {
	for {
		if t, ok := w.dq.pop(); ok {
			w.runTask(t)
			continue
		}
		if t, ok := w.steal(); ok {
			w.runTask(t)
			continue
		}
		if w.poolExit() {
			return
		}
		sleepers.Add(1)
		if t, ok := w.steal(); ok {
			sleepers.Add(-1)
			w.runTask(t)
			continue
		}
		<-wake
		sleepers.Add(-1)
	}
}

// ctx returns a scheduling context for one region: a pooled context,
// registered as a steal victim until release.
func ctx() *wctx {
	w := helperPool.Get().(*wctx)
	addVictim(w)
	return w
}

// helperPool recycles region contexts: the deque and steal buffers keep
// their capacity, so steady-state region submission (thousands per
// training iteration) allocates nothing. A pooled wctx is safe to hand
// to another goroutine: release drained its deque and deregistered it
// before the Put, so no thief can still reach it.
var helperPool = sync.Pool{New: func() any {
	return &wctx{rnd: helperSeed.Add(0x9E3779B97F4A7C15) | 1}
}}

// release drains any leftover stolen tasks, deregisters a region's
// context and returns it to helperPool. The deque must be drained before
// deregistering: it may hold tasks of other regions batched in by this
// context's own steals.
func (w *wctx) release() {
	for {
		t, ok := w.dq.pop()
		if !ok {
			break
		}
		w.runTask(t)
	}
	removeVictim(w)
	helperPool.Put(w)
}

// runRegion executes fn over [0, n) with the given split grain on the
// work-stealing scheduler, returning when every index has executed.
func runRegion(n, grain int, fn Ranger) {
	w := ctx()
	r := regionPool.Get().(*region)
	r.fn, r.grain = fn, grain
	r.pending.Store(int64(n))
	w.runTask(task{r: r, lo: 0, hi: n})
	// Help until the region completes: own subtasks first (LIFO), then
	// steal. With nothing runnable anywhere, park on the region's cond —
	// the remaining bodies are in flight on other goroutines (possibly
	// blocked in sends), and polling for them would burn the very core
	// they need. A goroutine only parks here with an empty deque, so no
	// task is ever stranded behind a parked owner. The check-then-Wait
	// under mu pairs with the completion broadcast under the same mu, so
	// the wakeup cannot be lost; the outer loop absorbs spurious wakes
	// (including stray broadcasts from a previous life of the pooled
	// region). The deques of the regions this goroutine is nested in are
	// victims of the sweep like any other, and nothing refills them while
	// this level runs, so a parked goroutine strands no task at any level.
	for r.pending.Load() > 0 {
		if t, ok := w.dq.pop(); ok {
			w.runTask(t)
			continue
		}
		if t, ok := w.steal(); ok {
			w.runTask(t)
			continue
		}
		// One yield before parking: a splitting task may be just about
		// to publish stealable halves.
		runtime.Gosched()
		if t, ok := w.steal(); ok {
			w.runTask(t)
			continue
		}
		r.mu.Lock()
		if r.pending.Load() > 0 {
			r.cond.Wait()
		}
		r.mu.Unlock()
	}
	w.release()
	// The final pending decrement happened-before the loop exit, so the
	// panic record (written before that decrement) is visible here.
	panicked, pv := r.panicked, r.panicV
	r.fn, r.panicked, r.panicV = nil, false, nil
	regionPool.Put(r)
	if panicked {
		panic(pv)
	}
}

// inline reports whether a region must run on the calling goroutine:
// single-proc configurations and open Serial sections. Every region
// submission passes through here, so this is also where the pool tracks
// GOMAXPROCS — a change resizes the pool even when the new setting
// forces regions inline (the stale workers still retire).
func inline() bool {
	ensurePool()
	return procs() == 1 || serialDepth.Load() > 0
}

// For runs fn over the half-open index ranges that partition [0, n).
// Each invocation receives a disjoint [start, end) chunk; fn must be
// safe to call concurrently on disjoint chunks. Small loops run inline;
// large ones split across the work-stealing scheduler, composing freely
// with enclosing or concurrent parallel regions.
func For(n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if n < serialGrain || inline() {
		fn(0, n)
		return
	}
	grain := n / (splitMul * procs())
	if grain < serialGrain/4 {
		grain = serialGrain / 4
	}
	runRegion(n, grain, funcRanger(fn))
}

// ForGrain behaves like For with an explicit split grain: ranges stop
// splitting at or below grain indices. Use it when the caller knows the
// per-index cost (kernels size their grain so one task amortises the
// scheduling overhead). n <= grain runs inline.
func ForGrain(n, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if n <= grain || inline() {
		fn(0, n)
		return
	}
	runRegion(n, grain, funcRanger(fn))
}

// ForGrainRanger is ForGrain for pre-built Ranger loop bodies: kernels
// that run every training iteration pool one pointer-backed Ranger and
// pass it here, so a steady-state region submission performs no heap
// allocation (a func-literal body would allocate its closure per call).
func ForGrainRanger(n, grain int, r Ranger) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if n <= grain || inline() {
		r.Range(0, n)
		return
	}
	runRegion(n, grain, r)
}

// ForceFor behaves like For but fans out even for small n. It is
// intended for coarse-grained tasks (one unit of work per index is
// itself expensive, e.g. a per-image im2col).
func ForceFor(n int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if n == 1 || inline() {
		fn(0, n)
		return
	}
	grain := n / (splitMul * procs())
	if grain < 1 {
		grain = 1
	}
	runRegion(n, grain, funcRanger(fn))
}

// Do runs the given tasks concurrently on the scheduler and waits for
// all of them.
func Do(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 || inline() {
		for _, t := range tasks {
			t()
		}
		return
	}
	runRegion(len(tasks), 1, funcRanger(func(start, end int) {
		for i := start; i < end; i++ {
			tasks[i]()
		}
	}))
}

// Serial runs fn with kernel fan-out suppressed: any For, ForGrain,
// ForceFor or Do reached from fn executes inline on the calling
// goroutine, for the whole duration of fn (the suppression is
// process-wide, so concurrent goroutines also stay inline while a
// Serial section is open).
func Serial(fn func()) {
	serialDepth.Add(1)
	defer serialDepth.Add(-1)
	fn()
}
