package main

// Outside-in tracing: the program is never edited. Spans are recorded
// around calls into its public surface — every nn.Layer the benchmark
// hands to gan.Arch.BuildG/BuildD (and so to core and serve), every
// simnet.Net.Send, every update (stamped by core's EvalFunc) and every
// serve request (issued by the load generator). Spans stay in memory
// and are written out once, when the run ends.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mdgan/internal/gan"
	"mdgan/internal/nn"
	"mdgan/internal/simnet"
	"mdgan/internal/tensor"
)

// span is one timed call. Spans of one update (or one fused serving
// forward) share upd, their ID.
type span struct {
	start, end int64 // ns since the recorder's epoch
	upd        int32
	name       uint16
	who        uint16 // model instance (G or D copy) or 0
	n          int32  // input rows of a layer call, payload bytes of a send
}

func (s span) dur() int64 { return s.end - s.start }

// spanBuf is one append-only span list. Each model instance owns one
// (it is driven by a single goroutine at a time); sends share one.
type spanBuf struct {
	mu    sync.Mutex
	spans []span
}

func (b *spanBuf) add(s span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// recorder owns the span buffers and the name table.
type recorder struct {
	epoch time.Time
	upd   atomic.Int32 // ID stamped on spans as they are recorded

	mu      sync.Mutex
	names   []string
	ids     map[string]uint16
	bufs    []*spanBuf
	who     map[string]uint16 // next instance number per role
	dense   map[uint16][2]int // Dense forward span name → (in, out)
	coreBuf *spanBuf          // update spans
	nets    []*tracedNet      // wrapped transports, for their error counts
	// perForward makes every G forward pass start a new ID (serving,
	// where a fused forward is the unit of work).
	perForward bool
}

func newRecorder() *recorder {
	return &recorder{
		epoch: time.Now(),
		ids:   make(map[string]uint16),
		who:   make(map[string]uint16),
		dense: make(map[uint16][2]int),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) name(s string) uint16 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.nameLocked(s)
}

func (r *recorder) nameLocked(s string) uint16 {
	if id, ok := r.ids[s]; ok {
		return id
	}
	id := uint16(len(r.names))
	r.names = append(r.names, s)
	r.ids[s] = id
	return id
}

func (r *recorder) newBuf() *spanBuf {
	b := &spanBuf{}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// updBuf is the buffer update spans go to.
func (r *recorder) updBuf() *spanBuf {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.coreBuf == nil {
		r.coreBuf = &spanBuf{}
		r.bufs = append(r.bufs, r.coreBuf)
	}
	return r.coreBuf
}

// spans returns every recorded span, ordered by start time.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, b := range r.bufs {
		b.mu.Lock()
		out = append(out, b.spans...)
		b.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// write dumps the spans: one JSON header line (name table, epoch, host
// facts, span count), then 32-byte little-endian records of start ns,
// end ns, ID, name, instance, n.
func (r *recorder) write(path string, host hostFacts) (err error) {
	spans := r.spans()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	hdr, _ := json.Marshal(map[string]any{
		"epoch_unix_ns": r.epoch.UnixNano(), "names": r.names, "spans": len(spans),
		"host": host, "record": "start_ns:i64 end_ns:i64 id:i32 name:u16 who:u16 n:i32 pad:u32",
	})
	w.Write(append(hdr, '\n'))
	var rec [32]byte
	for _, s := range spans {
		binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
		binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
		binary.LittleEndian.PutUint32(rec[16:], uint32(s.upd))
		binary.LittleEndian.PutUint16(rec[20:], s.name)
		binary.LittleEndian.PutUint16(rec[22:], s.who)
		binary.LittleEndian.PutUint32(rec[24:], uint32(s.n))
		w.Write(rec[:])
	}
	return w.Flush()
}

// netState is shared by the wrapped layers of one Sequential instance:
// its instance number, span buffer and whole-network span bookkeeping.
type netState struct {
	rec            *recorder
	role           string // "g" or "d"
	who            uint16
	buf            *spanBuf
	netFwd, netBwd uint16
	fwdStart       int64
	bwdStart       int64
	// clone is the state the layers of an in-progress Sequential.Clone
	// attach to: the first layer's Clone creates it, the rest join it
	// (Sequential.Clone clones its layers in order, on one goroutine).
	clone *netState
}

func (r *recorder) newState(role string) *netState {
	r.mu.Lock()
	who := r.who[role]
	r.who[role] = who + 1
	fwd, bwd := r.nameLocked("nn."+role+".fwd"), r.nameLocked("nn."+role+".bwd")
	r.mu.Unlock()
	return &netState{rec: r, role: role, who: who, buf: r.newBuf(), netFwd: fwd, netBwd: bwd}
}

// tracedLayer times one nn.Layer. Its clones share the recorder, so
// the per-worker discriminator copies core makes are traced too.
type tracedLayer struct {
	inner    nn.Layer
	st       *netState
	idx      int
	last     bool
	fwd, bwd uint16
}

// wrapArch returns a with every layer BuildG and BuildD produce wrapped.
// The builders draw from rng exactly as before, so parameters are
// bitwise-identical to the bare architecture's.
func (r *recorder) wrapArch(a gan.Arch) gan.Arch {
	bg, bd := a.BuildG, a.BuildD
	a.BuildG = func(rng *rand.Rand) *nn.Sequential { return r.wrapSeq(bg(rng), "g") }
	a.BuildD = func(rng *rand.Rand) (*nn.Sequential, int) {
		s, feat := bd(rng)
		return r.wrapSeq(s, "d"), feat
	}
	return a
}

func (r *recorder) wrapSeq(s *nn.Sequential, role string) *nn.Sequential {
	st := r.newState(role)
	for i, l := range s.Layers {
		typ := reflect.TypeOf(l).Elem().Name()
		base := fmt.Sprintf("nn.%s.%d.%s.", role, i, typ)
		tl := &tracedLayer{inner: l, st: st, idx: i, last: i == len(s.Layers)-1,
			fwd: r.name(base + "fwd"), bwd: r.name(base + "bwd")}
		if d, ok := l.(*nn.Dense); ok {
			r.mu.Lock()
			r.dense[tl.fwd] = [2]int{d.In, d.Out}
			r.mu.Unlock()
		}
		s.Layers[i] = tl
	}
	return s
}

func (l *tracedLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	st, rec := l.st, l.st.rec
	if l.idx == 0 && rec.perForward && st.role == "g" {
		rec.upd.Add(1)
	}
	t0 := rec.now()
	y := l.inner.Forward(x, train)
	t1 := rec.now()
	u := rec.upd.Load()
	st.buf.add(span{start: t0, end: t1, upd: u, name: l.fwd, who: st.who, n: int32(x.Dim(0))})
	if l.idx == 0 {
		st.fwdStart = t0
	}
	if l.last {
		st.buf.add(span{start: st.fwdStart, end: t1, upd: u, name: st.netFwd, who: st.who, n: int32(y.Dim(0))})
	}
	return y
}

func (l *tracedLayer) Backward(grad *tensor.Tensor) *tensor.Tensor {
	st, rec := l.st, l.st.rec
	t0 := rec.now()
	dx := l.inner.Backward(grad)
	t1 := rec.now()
	u := rec.upd.Load()
	st.buf.add(span{start: t0, end: t1, upd: u, name: l.bwd, who: st.who, n: int32(grad.Dim(0))})
	if l.last {
		st.bwdStart = t0
	}
	if l.idx == 0 {
		st.buf.add(span{start: st.bwdStart, end: t1, upd: u, name: st.netBwd, who: st.who, n: int32(grad.Dim(0))})
	}
	return dx
}

func (l *tracedLayer) Params() []*nn.Param { return l.inner.Params() }

func (l *tracedLayer) Clone() nn.Layer {
	st := l.st
	if l.idx == 0 || st.clone == nil {
		st.clone = st.rec.newState(st.role)
	}
	c := *l
	c.inner = l.inner.Clone()
	c.st = st.clone
	return &c
}

// tracedNet times every Send of the wrapped transport.
type tracedNet struct {
	simnet.Net
	rec   *recorder
	buf   *spanBuf
	kinds [3]uint16
	errs  atomic.Int64
}

func (r *recorder) wrapNet(n simnet.Net) *tracedNet {
	tn := &tracedNet{Net: n, rec: r, buf: r.newBuf(),
		kinds: [3]uint16{r.name("simnet.send.c2w"), r.name("simnet.send.w2c"), r.name("simnet.send.w2w")}}
	r.mu.Lock()
	r.nets = append(r.nets, tn)
	r.mu.Unlock()
	return tn
}

func (n *tracedNet) Send(m simnet.Message) error {
	bytes := int32(len(m.Payload))
	t0 := n.rec.now()
	err := n.Net.Send(m)
	t1 := n.rec.now()
	if err != nil {
		n.errs.Add(1)
	}
	name := n.kinds[0]
	if int(m.Kind) >= 0 && int(m.Kind) < len(n.kinds) {
		name = n.kinds[m.Kind]
	}
	n.buf.add(span{start: t0, end: t1, upd: n.rec.upd.Load(), name: name, n: bytes})
	return err
}

// Retries forwards the optional retry counter core type-asserts for
// its fault accounting, so a wrapped transport reports the same
// FaultStats as the bare one.
func (n *tracedNet) Retries() int64 {
	if rc, ok := n.Net.(interface{ Retries() int64 }); ok {
		return rc.Retries()
	}
	return 0
}
