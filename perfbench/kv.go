package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"lazarus/internal/apps/kvs"
	"lazarus/internal/workload"
)

// kvOp is the checker's view of one KVS request.
type kvOp struct {
	kind kvs.OpKind
	key  string
	ver  uint64 // version a PUT writes (0 = the preload value)
}

func keyName(i uint64) string { return fmt.Sprintf("user%06d", i) }

// kvValue is the deterministic value of version ver of key: a header
// naming both, padded to size with bytes derived from them, so a read
// can be traced back to the exact write that produced it.
func kvValue(key string, ver uint64, size int) []byte {
	head := key + "#" + strconv.FormatUint(ver, 10) + "#"
	v := make([]byte, 0, max(size, len(head)))
	v = append(v, head...)
	h := fnv.New64a()
	h.Write([]byte(head))
	x := h.Sum64()
	for len(v) < size {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v = append(v, 'a'+byte(x%26))
	}
	return v
}

// parseValue recovers the key and version a value claims to carry.
func parseValue(v []byte) (string, uint64, bool) {
	parts := bytes.SplitN(v, []byte("#"), 3)
	if len(parts) != 3 {
		return "", 0, false
	}
	ver, err := strconv.ParseUint(string(parts[1]), 10, 64)
	if err != nil {
		return "", 0, false
	}
	return string(parts[0]), ver, true
}

// write is one PUT as the checker saw it.
type write struct {
	ver        uint64
	start, end time.Time
	acked      bool
}

// kvModel generates the KVS traffic of a workload and checks every reply
// against what was written: a GET must return the preload value or a
// value some PUT wrote to that key, and the final read-back must find
// every acknowledged write.
type kvModel struct {
	valSize   int
	preloaded uint64  // keys [0, preloaded) start at version 0
	readShare float64 // share of GETs
	keys      func() uint64

	mu         sync.Mutex
	issued     map[string]uint64 // highest version handed out per key
	writes     map[string][]write
	violations []string
}

func newKVModel(valSize int, preloaded, keySpace uint64, readShare float64, zipf bool, rng *rand.Rand) (*kvModel, error) {
	m := &kvModel{
		valSize: valSize, preloaded: preloaded, readShare: readShare,
		issued: make(map[string]uint64), writes: make(map[string][]write),
	}
	if zipf {
		z, err := workload.NewZipfian(keySpace, rng)
		if err != nil {
			return nil, err
		}
		m.keys = z.Next
	} else {
		m.keys = func() uint64 { return uint64(rng.Int63n(int64(keySpace))) }
	}
	return m, nil
}

func (m *kvModel) violate(format string, args ...any) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.violations) < 20 {
		m.violations = append(m.violations, fmt.Sprintf(format, args...))
	}
}

func (m *kvModel) failures() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.violations...)
}

// next draws the next request. rng drives the read/write mix.
func (m *kvModel) next(rng *rand.Rand, id uint64) request {
	key := keyName(m.keys())
	if rng.Float64() < m.readShare {
		return m.get(id, key)
	}
	m.mu.Lock()
	m.issued[key]++
	ver := m.issued[key]
	m.mu.Unlock()
	return m.put(id, key, ver)
}

func (m *kvModel) get(id uint64, key string) request {
	op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpGet, Key: key}) // gob of a plain struct cannot fail
	return request{id: id, op: op, kv: kvOp{kind: kvs.OpGet, key: key}}
}

func (m *kvModel) put(id uint64, key string, ver uint64) request {
	op, _ := kvs.EncodeOp(kvs.Op{Kind: kvs.OpPut, Key: key, Value: kvValue(key, ver, m.valSize)})
	return request{id: id, op: op, kv: kvOp{kind: kvs.OpPut, key: key, ver: ver}}
}

// preloadReq is the PUT of version 0 of preloaded key i.
func (m *kvModel) preloadReq(i uint64) request {
	return m.put(i, keyName(i), 0)
}

// observe checks one finished request.
func (m *kvModel) observe(o outcome) {
	if o.err != nil {
		if o.req.kv.kind == kvs.OpPut {
			m.record(o, false)
		}
		return
	}
	switch o.req.kv.kind {
	case kvs.OpPut:
		if string(o.res) != "OK" {
			m.violate("PUT %s v%d answered %q", o.req.kv.key, o.req.kv.ver, trunc(o.res))
		}
		m.record(o, string(o.res) == "OK")
	case kvs.OpGet:
		if msg := m.checkRead(o.req.kv.key, o.res, o.start); msg != "" {
			m.violate("GET %s: %s", o.req.kv.key, msg)
		}
	}
}

func (m *kvModel) record(o outcome, acked bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := o.req.kv.key
	m.writes[k] = append(m.writes[k], write{ver: o.req.kv.ver, start: o.start, end: o.end, acked: acked})
}

func (m *kvModel) isPreloaded(key string) bool {
	var i uint64
	if _, err := fmt.Sscanf(key, "user%06d", &i); err != nil {
		return false
	}
	return i < m.preloaded
}

// checkRead validates a GET reply for key against every write issued so
// far; readStart is when the GET was sent. It returns "" when the reply
// is a value that key can legally hold.
func (m *kvModel) checkRead(key string, res []byte, readStart time.Time) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if string(res) == "NIL" {
		if m.isPreloaded(key) {
			return "preloaded key read as missing"
		}
		for _, w := range m.writes[key] {
			if w.acked && w.end.Before(readStart) {
				return fmt.Sprintf("missing after v%d was acknowledged", w.ver)
			}
		}
		return ""
	}
	if !bytes.HasPrefix(res, []byte("VAL")) {
		return fmt.Sprintf("unexpected reply %q", trunc(res))
	}
	val := res[3:]
	k, ver, ok := parseValue(val)
	switch {
	case !ok:
		return fmt.Sprintf("unparseable value %q", trunc(val))
	case k != key:
		return fmt.Sprintf("value belongs to key %s", k)
	case ver == 0 && !m.isPreloaded(key):
		return "preload value on a key that was never preloaded"
	case ver > m.issued[key]:
		return fmt.Sprintf("version v%d was never written (highest issued v%d)", ver, m.issued[key])
	case !bytes.Equal(val, kvValue(key, ver, m.valSize)):
		return fmt.Sprintf("v%d bytes differ from what was written", ver)
	}
	return ""
}

// writtenKeys lists every key a PUT touched, sorted.
func (m *kvModel) writtenKeys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.writes))
	for k := range m.writes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkFinal validates the value a key holds once load has stopped: a
// version v may only be the last one standing if no acknowledged write
// of a higher version started after v's write was acknowledged.
func (m *kvModel) checkFinal(key string, res []byte) string {
	if msg := m.checkRead(key, res, time.Now()); msg != "" {
		return msg
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var final uint64
	if k, ver, ok := parseValue(bytes.TrimPrefix(res, []byte("VAL"))); ok && k == key {
		final = ver
	}
	var finalAck time.Time // zero: the preload, acknowledged before the run
	finalKnown := final == 0 && m.isPreloaded(key)
	for _, w := range m.writes[key] {
		if w.ver == final && w.acked {
			finalAck, finalKnown = w.end, true
		}
	}
	if string(res) == "NIL" {
		finalKnown = false
	}
	for _, w := range m.writes[key] {
		if !w.acked || w.ver <= final {
			continue
		}
		if string(res) == "NIL" || (finalKnown && finalAck.Before(w.start)) {
			return fmt.Sprintf("acknowledged v%d lost (key holds v%d)", w.ver, final)
		}
	}
	return ""
}

// readBack reads every written key through the pool once load has
// stopped and checks each against checkFinal. It returns how many keys
// it read and how many of those reads failed.
func (m *kvModel) readBack(ctx context.Context, pool []Invoker, timeout time.Duration) (int, int) {
	keys := m.writtenKeys()
	work := make(chan string, len(keys)) // holds every key: workers never block the feeder
	for _, k := range keys {
		work <- k
	}
	close(work)
	var wg sync.WaitGroup
	var mu sync.Mutex
	fails := 0
	wg.Add(len(pool))
	for _, inv := range pool {
		go func(inv Invoker) {
			defer wg.Done()
			for k := range work {
				req := m.get(0, k)
				o := invokeOne(ctx, inv, &req, timeout, nil)
				if o.err != nil {
					mu.Lock()
					fails++
					mu.Unlock()
					m.violate("read-back of %s failed: %v", k, o.err)
					continue
				}
				if msg := m.checkFinal(k, o.res); msg != "" {
					m.violate("read-back %s: %s", k, msg)
				}
			}
		}(inv)
	}
	wg.Wait()
	return len(keys), fails
}

func trunc(b []byte) string {
	if len(b) > 48 {
		return string(b[:48]) + "..."
	}
	return string(b)
}
