package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/bft/bfttest"
	"lazarus/internal/netem"
	"lazarus/internal/transport"
)

// clusterSpec describes a workload that runs a bfttest cluster.
type clusterSpec struct {
	tcp      bool   // loopback TCP with HMAC frames
	netem    string // otherwise, this netem profile over the in-memory transport
	adaptive bool   // adaptive progress timeouts

	openPool, closedPool int
	rate                 float64 // open-loop arrivals per second
	valSize              int
	preload, keySpace    uint64
	readShare            float64
	zipf                 bool
	timeout              time.Duration // per invoke

	// Shares of the run spent in the open-loop and closed-loop phases;
	// the rest is the swap phase, with one swap every swapEvery.
	openShare, closedShare float64
	swapEvery              time.Duration
}

// maxSwapIDs bounds the replica ids a run can add by swaps; TCP runs bind
// an address for each up front.
const maxSwapIDs = 32

// clusterRun is one launched bfttest deployment.
type clusterRun struct {
	cl      *bfttest.Cluster
	net     *benchNet
	clients []*bft.Client
	ctl     *bft.Client
	memb    *bft.Membership
	retired map[transport.NodeID]*bft.Replica
	nextID  transport.NodeID
}

func (c *clusterRun) stop() {
	for _, cli := range c.clients {
		cli.Close()
	}
	if c.ctl != nil {
		c.ctl.Close()
	}
	c.cl.Stop()
}

// loopbackAddrs reserves one loopback address per node.
func loopbackAddrs(ids []transport.NodeID) (map[transport.NodeID]string, error) {
	addrs := make(map[transport.NodeID]string, len(ids))
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	for _, id := range ids {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a loopback port: %w", err)
		}
		ls = append(ls, l)
		addrs[id] = l.Addr().String()
	}
	return addrs, nil
}

func (r *run) launchCluster(spec clusterSpec, tr *tracer) (*clusterRun, error) {
	pool := max(spec.openPool, spec.closedPool)
	opts := bfttest.Options{N: 4, Clients: pool, AdaptiveTimeout: spec.adaptive, Metrics: r.reg}
	out := &clusterRun{nextID: 4, retired: make(map[transport.NodeID]*bft.Replica)}
	if spec.tcp {
		var ids []transport.NodeID
		for i := 0; i < 4+maxSwapIDs; i++ {
			ids = append(ids, transport.NodeID(i))
		}
		for i := 0; i < pool; i++ {
			ids = append(ids, transport.ClientIDBase+transport.NodeID(i))
		}
		ids = append(ids, transport.ClientIDBase+999) // the cluster's controller client
		addrs, err := loopbackAddrs(ids)
		if err != nil {
			return nil, err
		}
		tcp, err := transport.NewTCP(transport.TCPConfig{
			Addrs: addrs, Secret: []byte("perfbench-hmac-secret"), Seed: r.seed, Metrics: r.reg,
		})
		if err != nil {
			return nil, err
		}
		opts.NetWrap = func(m *transport.Memory) transport.Network {
			out.net = &benchNet{inner: tcp, extra: m, tr: tr}
			return out.net
		}
	} else {
		prof, err := netem.ByName(spec.netem)
		if err != nil {
			return nil, err
		}
		opts.NetWrap = func(m *transport.Memory) transport.Network {
			out.net = &benchNet{inner: netem.Wrap(m, netem.Config{Profile: prof, Seed: r.seed, Metrics: r.reg}), tr: tr}
			return out.net
		}
	}
	cl, err := bfttest.Launch(func(id transport.NodeID) bft.Application { return r.apps.add(id) }, opts)
	if err != nil {
		if out.net != nil {
			out.net.Close()
		}
		return nil, err
	}
	out.cl, out.memb = cl, cl.Membership
	for i := 0; i < pool; i++ {
		cli, err := cl.Client(i)
		if err != nil {
			out.stop()
			return nil, err
		}
		out.clients = append(out.clients, cli)
	}
	if out.ctl, err = cl.Controller(); err != nil {
		out.stop()
		return nil, err
	}
	return out, nil
}

func invokers(clients []*bft.Client) []Invoker {
	out := make([]Invoker, len(clients))
	for i, c := range clients {
		out[i] = c
	}
	return out
}

// preload writes version 0 of every preloaded key through the pool.
func (r *run) preload(ctx context.Context, pool []Invoker, timeout time.Duration) error {
	work := make(chan uint64, r.model.preloaded) // holds every key: the feeder never blocks
	for i := uint64(0); i < r.model.preloaded; i++ {
		work <- i
	}
	close(work)
	errs := make(chan error, len(pool)) // one verdict per worker
	for _, inv := range pool {
		go func(inv Invoker) {
			for i := range work {
				req := r.model.preloadReq(i)
				o := invokeOne(ctx, inv, &req, timeout, nil)
				if o.err == nil && string(o.res) != "OK" {
					o.err = fmt.Errorf("answered %q", trunc(o.res))
				}
				if o.err != nil {
					errs <- fmt.Errorf("preloading %s: %w", req.kv.key, o.err)
					return
				}
			}
			errs <- nil
		}(inv)
	}
	var first error
	for range pool {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// reconfigure orders one membership change through the controller
// client. Like the controller's swap engine it retries a failed attempt
// (counted in retries), and a retry answered "already done" is success.
func reconfigure(ctx context.Context, ctl *bft.Client, op bft.ReconfigOp, retries *int) error {
	payload, err := bft.EncodeReconfigOp(op)
	if err != nil {
		return err
	}
	done := bft.ReconfigNotMember
	if op.Add {
		done = bft.ReconfigAlreadyMember
	}
	for attempt := 1; ; attempt++ {
		var res []byte
		res, err = ctl.Invoke(ctx, payload)
		if err == nil {
			rr, derr := bft.DecodeReconfigResult(res)
			switch {
			case derr != nil:
				return derr
			case rr.Status == bft.ReconfigApplied || (attempt > 1 && rr.Status == done):
				return nil
			default:
				return fmt.Errorf("reconfiguration %+v: %s", op, rr)
			}
		}
		if attempt == swapAttempts || ctx.Err() != nil {
			return err
		}
		*retries++
	}
}

// swapAttempts is the per-stage attempt budget, the controller's default.
const swapAttempts = 3

// swap replaces a backup with a fresh replica through the same five
// stages the controller runs (boot, ADD, catch-up, REMOVE, power-off),
// timing each. The primary is the view-th member, so an ADD or a REMOVE
// can move it to another node, and a swap that moves it costs several
// times one that does not while the group settles on the new primary.
// The benchmark replaces a backup whose replacement leaves the primary
// where it is, so every swap is in one cost mode, the common one: three
// of the four members are backups.
func (r *run) swap(ctx context.Context, c *clusterRun) error {
	if int(c.nextID) >= 4+maxSwapIDs {
		return fmt.Errorf("swap budget of %d replica ids exhausted", maxSwapIDs)
	}
	var view uint64
	for _, id := range c.memb.Replicas {
		view = max(view, c.cl.Replicas[id].Stats().CurrentView)
	}
	newID := c.nextID
	oldID, err := stableBackup(c.memb, view, newID)
	if err != nil {
		return err
	}
	c.nextID++
	r.note("swap: view %d, members %v, replacing %d with %d", view, c.memb.Replicas, oldID, newID)
	parent := r.tr.begin("swap", 0, uint64(newID))
	t0 := time.Now()
	stage := func(name string, fn func() error) error {
		sp := r.tr.begin("swap."+name, parent.id, uint64(newID))
		start := time.Now()
		err := fn()
		sp.end()
		r.stageMS[name] = append(r.stageMS[name], float64(time.Since(start))/1e6)
		if err != nil {
			return fmt.Errorf("swap %d->%d, stage %s: %w", oldID, newID, name, err)
		}
		return nil
	}
	follow := func(m *bft.Membership) {
		c.memb, c.cl.Membership = m, m
		c.ctl.UpdateMembership(m.Replicas, m.Keys)
		for _, cli := range c.clients {
			cli.UpdateMembership(m.Replicas, m.Keys)
		}
	}
	var joiner *bft.Replica
	if err := stage("boot", func() (err error) {
		joiner, err = c.cl.AddReplica(newID, true)
		return err
	}); err != nil {
		return err
	}
	if err := stage("add", func() error {
		if err := reconfigure(ctx, c.ctl, bft.ReconfigOp{Add: true, Replica: newID, PubKey: c.cl.PublicKey(newID)}, &r.swapRetries); err != nil {
			return err
		}
		next, err := c.memb.WithAdded(newID, c.cl.PublicKey(newID))
		if err != nil {
			return err
		}
		follow(next)
		return nil
	}); err != nil {
		return err
	}
	if err := stage("catch-up", func() error {
		deadline := time.Now().Add(30 * time.Second)
		for {
			st := joiner.Stats()
			if st.CurrentEpoch >= c.memb.Epoch && st.MembershipSize > 0 && st.StateTransfers > 0 {
				return nil
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("joiner %d did not catch up in 30s", newID)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}); err != nil {
		return err
	}
	if err := stage("remove", func() error {
		if err := reconfigure(ctx, c.ctl, bft.ReconfigOp{Replica: oldID}, &r.swapRetries); err != nil {
			return err
		}
		next, err := c.memb.WithRemoved(oldID)
		if err != nil {
			return err
		}
		follow(next)
		return nil
	}); err != nil {
		return err
	}
	if err := stage("power-off", func() error {
		old := c.cl.Replicas[oldID]
		old.Stop()
		delete(c.cl.Replicas, oldID)
		c.retired[oldID] = old
		return nil
	}); err != nil {
		return err
	}
	parent.end()
	d := time.Since(t0).Seconds()
	// Without a control plane the swap order is the trigger, so the time
	// to remediate is the swap itself.
	r.swapS = append(r.swapS, d)
	r.remediateS = append(r.remediateS, d)
	return nil
}

// stableBackup picks the first backup whose replacement by joiner keeps
// the primary of the given view on the same node through the ADD and the
// REMOVE, or the first backup if none does.
func stableBackup(m *bft.Membership, view uint64, joiner transport.NodeID) (transport.NodeID, error) {
	primary := m.Primary(view)
	added, err := m.WithAdded(joiner, nil) // the key plays no part in the order
	if err != nil {
		return 0, err
	}
	var first transport.NodeID = -1
	for _, id := range m.Replicas {
		if id == primary {
			continue
		}
		if first < 0 {
			first = id
		}
		removed, err := added.WithRemoved(id)
		if err != nil {
			return 0, err
		}
		if added.Primary(view) == primary && removed.Primary(view) == primary {
			return id, nil
		}
	}
	if first < 0 {
		return 0, fmt.Errorf("membership %v has no backup", m.Replicas)
	}
	return first, nil
}

// runCluster runs one episode of the lan-kvs and wan-put workloads:
// set-up, an open-loop phase, a closed-loop phase, and a swap phase under
// open-loop background load, then the quiescence and output checks.
func (r *run) runCluster(ctx context.Context, spec clusterSpec) error {
	rng := rngFor(r.seed, 0)
	var err error
	r.model, err = newKVModel(spec.valSize, spec.preload, spec.keySpace, spec.readShare, spec.zipf, rng)
	if err != nil {
		return err
	}

	// Set-up is launch to first measured request.
	t0 := time.Now()
	c, err := r.launchCluster(spec, r.tr)
	if err != nil {
		return err
	}
	defer c.stop()
	if err := r.preload(ctx, invokers(c.clients), spec.timeout); err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	r.measureFrom()
	r.netBase = c.net.Stats()
	total := r.span
	next := func(id uint64) request { return r.model.next(rng, id) }

	r.open = openLoop(ctx, invokers(c.clients[:spec.openPool]), spec.rate,
		time.Duration(spec.openShare*float64(total)), spec.timeout, rng, next, r.model.observe, r.tr)

	r.notePhase("open loop")
	r.closed = closedLoop(ctx, invokers(c.clients[:spec.closedPool]),
		time.Duration(spec.closedShare*float64(total)), spec.timeout, next, r.model.observe, r.tr)

	r.notePhase("closed loop")
	// Swap phase: one swap every swapEvery under open-loop background load.
	swapDur := total - time.Duration((spec.openShare+spec.closedShare)*float64(total))
	bgRng := rngFor(r.seed, 1)
	bgDone := make(chan *phase, 1)
	go func() {
		bgDone <- openLoop(ctx, invokers(c.clients[:spec.openPool]), spec.rate, swapDur, spec.timeout, bgRng,
			func(id uint64) request { return r.model.next(bgRng, id) }, r.model.observe, r.tr)
	}()
	swapStart := time.Now()
	var swapErr error
	for i := 0; swapErr == nil && time.Duration(i)*spec.swapEvery < swapDur; i++ {
		time.Sleep(time.Until(swapStart.Add(time.Duration(i) * spec.swapEvery)))
		swapErr = r.swap(ctx, c)
	}
	r.background = append(r.background, <-bgDone)
	r.notePhase("swap phase")
	if swapErr != nil {
		return swapErr
	}

	// Quiescence: no load, then count replicas behind the group maximum.
	time.Sleep(quiescence)
	var pos []uint64
	for _, rep := range c.cl.Replicas {
		pos = append(pos, rep.Stats().LastExecuted)
	}
	r.lagging = lagging(pos)
	if len(c.cl.Replicas) != 4 {
		r.violate("membership holds %d replicas after the swaps, want 4", len(c.cl.Replicas))
	}

	n, fails := r.model.readBack(ctx, invokers(c.clients), spec.timeout)
	r.extraAttempted += n
	r.extraFailed += fails

	traces := make(map[transport.NodeID][]bft.ExecRecord)
	for id, rep := range c.cl.Replicas {
		traces[id] = rep.ExecTrace()
	}
	for id, rep := range c.retired {
		traces[id] = rep.ExecTrace()
	}
	r.violations = append(r.violations, checkExecTraces(traces)...)
	r.netEnd = c.net.Stats()
	return nil
}
