package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/controlplane"
	"lazarus/internal/transport"
)

// ---------------------------------------------------------------------
// Spans

// spanRec is one finished span as written to the span file.
type spanRec struct {
	Name    string  `json:"name"`
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Req     uint64  `json:"req,omitempty"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// layerTime aggregates every span of one name, stored or not.
type layerTime struct {
	n       int64
	totalNS int64
}

// maxSpans bounds the spans kept for the span file; aggregates keep
// counting past it.
const maxSpans = 200000

// unkept names the spans that only feed aggregates: a traced run sends
// about fifteen frames per operation, and keeping a span for each would
// fill the span file before the swaps it is meant to show.
var unkept = map[string]bool{"transport.send": true}

// tracer records spans from the benchmark-side wrappers and the timed
// public calls. A nil tracer records nothing, so untraced runs pay only
// a nil check.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []spanRec
	dropped int64
	layers  map[string]*layerTime
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), layers: make(map[string]*layerTime)}
}

// span is an open span; the zero span (from a nil tracer) is inert.
type span struct {
	tr     *tracer
	name   string
	id     uint64
	parent uint64
	req    uint64
	start  time.Time
}

func (t *tracer) begin(name string, parent, req uint64) span {
	if t == nil {
		return span{}
	}
	return span{tr: t, name: name, id: t.nextID.Add(1), parent: parent, req: req, start: time.Now()}
}

func (s span) end() time.Duration {
	if s.tr == nil {
		return 0
	}
	end := time.Now()
	d := end.Sub(s.start)
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.layers[s.name]
	if l == nil {
		l = &layerTime{}
		t.layers[s.name] = l
	}
	l.n++
	l.totalNS += int64(d)
	if unkept[s.name] {
		return d
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return d
	}
	t.spans = append(t.spans, spanRec{
		Name: s.name, ID: s.id, Parent: s.parent, Req: s.req,
		StartUS: float64(s.start.Sub(t.t0).Nanoseconds()) / 1e3,
		EndUS:   float64(end.Sub(t.t0).Nanoseconds()) / 1e3,
	})
	return d
}

// layer returns the span count and mean duration of one span name.
func (t *tracer) layer(name string) (int64, time.Duration) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.layers[name]
	if l == nil || l.n == 0 {
		return 0, 0
	}
	return l.n, time.Duration(l.totalNS / l.n)
}

// total returns the summed duration of every span of one name.
func (t *tracer) total(name string) time.Duration {
	n, mean := t.layer(name)
	return time.Duration(n) * mean
}

// write stores every kept span as JSON lines.
func (t *tracer) write(path string) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------
// Network

// benchNet wraps the network replicas and clients use. It times every
// Endpoint.Send when tracing, and closes an extra network after the
// inner one: a TCP run must also close the in-memory network the
// cluster harness created and never used.
type benchNet struct {
	inner transport.Network
	extra io.Closer
	tr    *tracer
}

func (n *benchNet) Endpoint(id transport.NodeID) (transport.Endpoint, error) {
	ep, err := n.inner.Endpoint(id)
	if err != nil || n.tr == nil {
		return ep, err
	}
	return &benchEndpoint{Endpoint: ep, tr: n.tr}, nil
}

func (n *benchNet) Stats() transport.Stats { return n.inner.Stats() }

func (n *benchNet) Close() error {
	err := n.inner.Close()
	if n.extra != nil {
		err = errors.Join(err, n.extra.Close())
	}
	return err
}

type benchEndpoint struct {
	transport.Endpoint
	tr *tracer
}

func (e *benchEndpoint) Send(to transport.NodeID, payload []byte) error {
	sp := e.tr.begin("transport.send", 0, 0)
	err := e.Endpoint.Send(to, payload)
	sp.end()
	return err
}

// ---------------------------------------------------------------------
// Application

// appWrap wraps one replica's KVS. Besides timing the calls into the
// store, it keeps a replicated execution record: the count of operations
// executed since genesis and a hash chain over them, both carried in
// snapshots, so replicas can be compared at every common operation
// index even after a state transfer.
type appWrap struct {
	inner *kvs.Store
	tr    *tracer

	mu        sync.Mutex
	node      transport.NodeID
	count     uint64
	chain     [32]byte
	history   map[uint64][32]byte // chain value after each executed op
	snapBytes []int
}

func newAppWrap(node transport.NodeID, tr *tracer) *appWrap {
	return &appWrap{inner: kvs.New(), tr: tr, node: node, history: make(map[uint64][32]byte)}
}

var _ bft.Application = (*appWrap)(nil)

func (a *appWrap) Execute(op []byte) []byte {
	sp := a.tr.begin("kvs.execute", 0, 0)
	res := a.inner.Execute(op)
	sp.end()
	a.mu.Lock()
	defer a.mu.Unlock()
	h := sha256.New()
	h.Write(a.chain[:])
	h.Write(op)
	copy(a.chain[:], h.Sum(nil))
	a.count++
	a.history[a.count] = a.chain
	return res
}

// snapHeader is the count and chain prepended to the store snapshot.
const snapHeader = 8 + 32

func (a *appWrap) Snapshot() ([]byte, error) {
	sp := a.tr.begin("kvs.snapshot", 0, 0)
	inner, err := a.inner.Snapshot()
	sp.end()
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]byte, snapHeader, snapHeader+len(inner))
	binary.BigEndian.PutUint64(out, a.count)
	copy(out[8:], a.chain[:])
	a.snapBytes = append(a.snapBytes, len(inner))
	return append(out, inner...), nil
}

func (a *appWrap) Restore(snapshot []byte) error {
	if len(snapshot) < snapHeader {
		return errors.New("perfbench: snapshot shorter than its header")
	}
	sp := a.tr.begin("kvs.restore", 0, 0)
	err := a.inner.Restore(snapshot[snapHeader:])
	sp.end()
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.count = binary.BigEndian.Uint64(snapshot)
	copy(a.chain[:], snapshot[8:snapHeader])
	a.history[a.count] = a.chain
	return nil
}

// executed returns the operation count since genesis.
func (a *appWrap) executed() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.count
}

// appSet is every application instance a run created.
type appSet struct {
	tr  *tracer
	mu  sync.Mutex
	all []*appWrap
}

func (s *appSet) add(node transport.NodeID) *appWrap {
	a := newAppWrap(node, s.tr)
	s.mu.Lock()
	s.all = append(s.all, a)
	s.mu.Unlock()
	return a
}

func (s *appSet) list() []*appWrap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*appWrap(nil), s.all...)
}

// release drops the stores and execution histories once the checks have
// run; the counts and snapshot sizes the report needs stay.
func (s *appSet) release() {
	for _, a := range s.list() {
		a.mu.Lock()
		a.inner, a.history = nil, nil
		a.mu.Unlock()
	}
}

// byNode returns the newest app hosted on each node.
func (s *appSet) byNode() map[transport.NodeID]*appWrap {
	out := make(map[transport.NodeID]*appWrap)
	for _, a := range s.list() {
		a.mu.Lock()
		out[a.node] = a
		a.mu.Unlock()
	}
	return out
}

// snapshotMB is the mean store snapshot size over every snapshot taken.
func (s *appSet) snapshotMB() float64 {
	var total, n int
	for _, a := range s.list() {
		a.mu.Lock()
		for _, b := range a.snapBytes {
			total += b
			n++
		}
		a.mu.Unlock()
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n) / (1 << 20)
}

// ---------------------------------------------------------------------
// WAL

// walWrap wraps the controller's WAL. It times every append and turns
// each stage-intent/stage-outcome pair into a span for that swap stage.
type walWrap struct {
	inner controlplane.WAL
	tr    *tracer
	round atomic.Uint64 // span id of the monitor round in progress

	mu      sync.Mutex
	open    map[stageKey]span
	stages  map[string][]float64 // ms per settled stage
	outside time.Duration        // appends made while no stage was open
}

type stageKey struct {
	swap  uint64
	stage controlplane.SwapStage
	comp  bool
}

func newWALWrap(inner controlplane.WAL, tr *tracer) *walWrap {
	return &walWrap{inner: inner, tr: tr, open: make(map[stageKey]span), stages: make(map[string][]float64)}
}

func (w *walWrap) Append(rec controlplane.WALRecord) error {
	parent := w.round.Load()
	key := stageKey{rec.SwapID, rec.Stage, rec.Compensating}
	w.mu.Lock()
	if rec.Kind == controlplane.WALStageIntent {
		st := w.tr.begin("swap."+rec.Stage.String(), parent, rec.SwapID)
		w.open[key] = st
		parent = st.id
	}
	inStage := len(w.open) > 0
	w.mu.Unlock()
	sp := w.tr.begin("wal.append", parent, rec.SwapID)
	err := w.inner.Append(rec)
	d := sp.end()
	w.mu.Lock()
	defer w.mu.Unlock()
	if !inStage {
		w.outside += d
	}
	if rec.Kind == controlplane.WALStageOutcome {
		if st, ok := w.open[key]; ok {
			delete(w.open, key)
			w.stages[rec.Stage.String()] = append(w.stages[rec.Stage.String()], float64(st.end())/1e6)
		}
	}
	return err
}

func (w *walWrap) Replay(fn func(rec controlplane.WALRecord) error) error { return w.inner.Replay(fn) }
func (w *walWrap) Sync() error                                            { return w.inner.Sync() }
func (w *walWrap) Close() error                                           { return w.inner.Close() }

// stageMS returns the mean duration of one swap stage in ms.
func (w *walWrap) stageMS(stage string) float64 {
	if w == nil {
		return 0
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	v := w.stages[stage]
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
