package main

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/bft"
	"lazarus/internal/transport"
)

// stallOnce answers immediately except for one call that stalls.
type stallOnce struct {
	calls   atomic.Int64
	stallAt int64
	stall   time.Duration
}

func (s *stallOnce) Invoke(ctx context.Context, op []byte) ([]byte, error) {
	if s.calls.Add(1) == s.stallAt {
		time.Sleep(s.stall)
	}
	return []byte("OK"), nil
}

// A stall must be charged to every request due behind it, and the
// generator must report how late those requests went out: no
// coordinated omission.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	inv := &stallOnce{stallAt: 10, stall: stall}
	next := func(id uint64) request { return request{id: id} }
	p := openLoop(context.Background(), []Invoker{inv}, 100, 2*time.Second, time.Second,
		rand.New(rand.NewSource(1)), next, nil, nil)
	s := p.summary()
	if s.failed != 0 || s.attempted < 100 {
		t.Fatalf("attempted %d failed %d, want >= 100 and 0", s.attempted, s.failed)
	}
	slow := 0
	for _, l := range s.lat {
		if l >= 100 {
			slow++
		}
	}
	// At 100 arrivals/s a 300 ms stall queues about 30 requests; timing
	// from send instead of due time would show only the stalled one.
	if slow < 10 {
		t.Errorf("%d requests over 100 ms, want the ones queued behind the stall (>= 10)", slow)
	}
	if s.lateMaxMS < 200 {
		t.Errorf("gen late max %.1f ms, want the stall (>= 200 ms)", s.lateMaxMS)
	}
}

func TestReadCheckRejectsForgedValues(t *testing.T) {
	m, err := newKVModel(64, 10, 20, 0.5, false, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	put := m.put(1, keyName(3), 1)
	m.issued[keyName(3)] = 1
	now := time.Now()
	m.observe(outcome{req: &put, start: now, end: now, res: []byte("OK")})
	val := func(key string, ver uint64) []byte { return append([]byte("VAL"), kvValue(key, ver, 64)...) }
	later := now.Add(time.Second)

	for _, ok := range []struct {
		key string
		res []byte
	}{
		{keyName(3), val(keyName(3), 0)}, // preload value
		{keyName(3), val(keyName(3), 1)}, // the write
		{keyName(15), []byte("NIL")},     // never preloaded, never written
		{keyName(4), val(keyName(4), 0)}, // preload value
	} {
		if msg := m.checkRead(ok.key, ok.res, later); msg != "" {
			t.Errorf("legal read of %s rejected: %s", ok.key, msg)
		}
	}
	forged := val(keyName(3), 1)
	forged[len(forged)-1] ^= 1
	for name, bad := range map[string]struct {
		key string
		res []byte
	}{
		"other key's value":   {keyName(3), val(keyName(4), 0)},
		"never-written ver":   {keyName(3), val(keyName(3), 2)},
		"corrupted bytes":     {keyName(3), forged},
		"preloaded read NIL":  {keyName(3), []byte("NIL")},
		"preload never given": {keyName(15), val(keyName(15), 0)},
		"garbage":             {keyName(3), []byte("ERR boom")},
	} {
		if msg := m.checkRead(bad.key, bad.res, later); msg == "" {
			t.Errorf("%s: forged read accepted", name)
		}
	}
}

func TestFinalReadBackFindsLostWrite(t *testing.T) {
	m, err := newKVModel(64, 0, 10, 0, false, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	k := keyName(1)
	t0 := time.Now()
	ack := func(ver uint64, start, end time.Duration) {
		req := m.put(0, k, ver)
		m.issued[k] = max(m.issued[k], ver)
		m.observe(outcome{req: &req, start: t0.Add(start), end: t0.Add(end), res: []byte("OK")})
	}
	ack(1, 0, 10*time.Millisecond)                   // v1 acknowledged at 10 ms
	ack(2, 20*time.Millisecond, 30*time.Millisecond) // v2 started after v1's ack
	val := func(ver uint64) []byte { return append([]byte("VAL"), kvValue(k, ver, 64)...) }
	if msg := m.checkFinal(k, val(2)); msg != "" {
		t.Errorf("final v2 rejected: %s", msg)
	}
	if msg := m.checkFinal(k, val(1)); msg == "" {
		t.Error("final v1 accepted although v2 was acknowledged after it")
	}
	if msg := m.checkFinal(k, []byte("NIL")); msg == "" {
		t.Error("final NIL accepted although writes were acknowledged")
	}
	// v3 overlaps v4: either may be ordered last.
	ack(4, 40*time.Millisecond, 60*time.Millisecond)
	ack(3, 35*time.Millisecond, 70*time.Millisecond)
	for _, v := range []uint64{3, 4} {
		if msg := m.checkFinal(k, val(v)); msg != "" {
			t.Errorf("final v%d of concurrent writes rejected: %s", v, msg)
		}
	}
}

func TestTraceChecksFireOnDivergence(t *testing.T) {
	d := func(b byte) bft.Digest { return bft.Digest{b} }
	agree := map[transport.NodeID][]bft.ExecRecord{
		0: {{Seq: 1, Digest: d(1)}, {Seq: 2, Digest: d(2)}},
		1: {{Seq: 2, Digest: d(2)}, {Seq: 3, Digest: d(3)}},
	}
	if v := checkExecTraces(agree); len(v) != 0 {
		t.Errorf("agreeing traces flagged: %v", v)
	}
	agree[2] = []bft.ExecRecord{{Seq: 3, Digest: d(9)}}
	if v := checkExecTraces(agree); len(v) != 1 {
		t.Errorf("divergent trace: got %v, want one violation", v)
	}

	op1, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: "a", Value: []byte("1")})
	op2, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: "a", Value: []byte("2")})
	a, b, c := newAppWrap(0, nil), newAppWrap(1, nil), newAppWrap(2, nil)
	for _, app := range []*appWrap{a, b, c} {
		app.Execute(op1)
	}
	a.Execute(op2)
	b.Execute(op2)
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	joiner := newAppWrap(3, nil)
	if err := joiner.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if v := checkAppHistories([]*appWrap{a, b, joiner}); len(v) != 0 {
		t.Errorf("agreeing histories flagged: %v", v)
	}
	if joiner.executed() != 2 {
		t.Errorf("restored joiner at op %d, want 2", joiner.executed())
	}
	c.Execute(op1) // diverges at operation 2
	if v := checkAppHistories([]*appWrap{a, b, c}); len(v) != 1 {
		t.Errorf("divergent history: got %v, want one violation", v)
	}
	if n := lagging([]uint64{5, 7, 7, 6}); n != 2 {
		t.Errorf("lagging = %d, want 2", n)
	}
}
