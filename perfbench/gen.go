package main

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// Invoker is the client surface the load generator drives. *bft.Client
// satisfies it; the generator tests substitute a fake.
type Invoker interface {
	Invoke(ctx context.Context, op []byte) ([]byte, error)
}

// request is one operation the generator schedules.
type request struct {
	id  uint64
	op  []byte
	due time.Time
	kv  kvOp // workload bookkeeping for the output checks
}

// outcome is one finished request. Latency runs from due, not from
// start, so time a request spent queued behind a stalled client counts.
type outcome struct {
	req        *request
	start, end time.Time
	res        []byte
	err        error
}

func (o outcome) latency() time.Duration { return o.end.Sub(o.req.due) }
func (o outcome) late() time.Duration    { return o.start.Sub(o.req.due) }

// phase collects the outcomes of one load phase.
type phase struct {
	mu       sync.Mutex
	outcomes []outcome
	began    time.Time
	elapsed  time.Duration
	rate     float64 // open-loop arrivals per second; 0 for a closed loop
}

func (p *phase) add(o outcome) {
	p.mu.Lock()
	p.outcomes = append(p.outcomes, o)
	p.mu.Unlock()
}

// summary is what the report needs from a phase.
type summary struct {
	attempted, failed int
	lat               []float64 // ms, sorted, successful requests only
	lateMaxMS         float64
}

func (p *phase) summary() summary {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := summary{attempted: len(p.outcomes)}
	for _, o := range p.outcomes {
		if l := float64(o.late()) / 1e6; l > s.lateMaxMS {
			s.lateMaxMS = l
		}
		if o.err != nil {
			s.failed++
			continue
		}
		s.lat = append(s.lat, float64(o.latency())/1e6)
	}
	sort.Float64s(s.lat)
	return s
}

// latencies returns the sorted latencies in ms of the successful
// requests due in [from, to), split by whether a request's lifetime
// overlapped one of the given windows.
func (p *phase) latencies(from, to time.Time, windows [][2]time.Time) (clear, overlapping []float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, o := range p.outcomes {
		if o.err != nil || o.req.due.Before(from) || !o.req.due.Before(to) {
			continue
		}
		ms := float64(o.latency()) / 1e6
		hit := false
		for _, w := range windows {
			if o.req.due.Before(w[1]) && o.end.After(w[0]) {
				hit = true
				break
			}
		}
		if hit {
			overlapping = append(overlapping, ms)
		} else {
			clear = append(clear, ms)
		}
	}
	sort.Float64s(clear)
	sort.Float64s(overlapping)
	return clear, overlapping
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of unsorted values.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// invokeOne runs one request on one client and times it.
func invokeOne(ctx context.Context, inv Invoker, req *request, timeout time.Duration, tr *tracer) outcome {
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	o := outcome{req: req, start: time.Now()}
	sp := tr.begin("client.invoke", 0, req.id)
	o.res, o.err = inv.Invoke(cctx, req.op)
	sp.end()
	o.end = time.Now()
	return o
}

// openLoop sends Poisson arrivals at rate ops/s for dur from a single
// generator goroutine to a fixed pool of clients, each with one request
// outstanding. A request waits in the queue until a client is free, so a
// stall charges every request due behind it. next builds the request
// due at the given time; it runs on the generator goroutine only.
// onDone runs on the worker goroutines.
func openLoop(ctx context.Context, pool []Invoker, rate float64, dur, timeout time.Duration,
	rng *rand.Rand, next func(id uint64) request, onDone func(outcome), tr *tracer) *phase {
	p := &phase{began: time.Now(), rate: rate}
	// Sized to every request the schedule can produce (the mean plus a
	// wide Poisson margin), so the generator never blocks on a stalled
	// pool and never runs late itself.
	expected := rate * dur.Seconds()
	jobs := make(chan *request, int(expected+10*math.Sqrt(expected))+64)
	var wg sync.WaitGroup
	wg.Add(len(pool))
	for _, inv := range pool {
		go func(inv Invoker) {
			defer wg.Done()
			for req := range jobs {
				o := invokeOne(ctx, inv, req, timeout, tr)
				p.add(o)
				if onDone != nil {
					onDone(o)
				}
			}
		}(inv)
	}
	due := p.began
	var id uint64
	for ctx.Err() == nil {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(p.began) >= dur {
			break
		}
		if d := time.Until(due); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
			case <-t.C:
			}
			t.Stop()
		}
		id++
		req := next(id)
		req.due = due
		jobs <- &req
	}
	close(jobs)
	wg.Wait()
	p.elapsed = time.Since(p.began)
	return p
}

// closedLoop runs every client back to back for dur: each sends its next
// request as soon as the previous one completes.
func closedLoop(ctx context.Context, pool []Invoker, dur, timeout time.Duration,
	next func(id uint64) request, onDone func(outcome), tr *tracer) *phase {
	p := &phase{began: time.Now()}
	deadline := p.began.Add(dur)
	var mu sync.Mutex
	var id uint64
	var wg sync.WaitGroup
	wg.Add(len(pool))
	for _, inv := range pool {
		go func(inv Invoker) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				id++
				req := next(id)
				mu.Unlock()
				req.due = time.Now()
				o := invokeOne(ctx, inv, &req, timeout, tr)
				p.add(o)
				if onDone != nil {
					onDone(o)
				}
			}
		}(inv)
	}
	wg.Wait()
	p.elapsed = time.Since(p.began)
	return p
}
