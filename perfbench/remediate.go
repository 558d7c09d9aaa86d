package main

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"lazarus/internal/bft"
	"lazarus/internal/catalog"
	"lazarus/internal/controlplane"
	"lazarus/internal/feeds"
	"lazarus/internal/osint"
	"lazarus/internal/transport"
)

// The remediate workload: the full Lazarus loop at daemon scale.
const (
	remPool    = 4    // memory-transport clients
	remRate    = 100  // background arrivals per second
	remPreload = 2000 // 1 kB keys, so catch-up moves 2 MB
	remClosedS = 14.0 // seconds of closed loop before the rounds
	remValSize = 1024
	// remRoundBudget is the time set aside per bombed round (a refresh
	// at paper scale takes 8.5-11 s on a 2-vCPU host). The round count
	// follows from --seconds alone, not from how fast the rounds ran, so
	// every run averages the same rounds; on a slow host the last round
	// may outlast the background traffic.
	remRoundBudget = 10 * time.Second
)

// simClock is the injected controller clock: it advances one day per
// round.
type simClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *simClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *simClock) advanceDay() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.AddDate(0, 0, 1)
	return c.now
}

// bomb is a fresh critical exploited CVE shared by the first three OSes of
// the running configuration.
func bomb(round int, config []string, now time.Time) (*osint.Vulnerability, error) {
	if len(config) < 3 {
		return nil, fmt.Errorf("configuration %v too small for a shared CVE", config)
	}
	var products []string
	for _, id := range config[:3] {
		os, err := catalog.ByID(id)
		if err != nil {
			return nil, err
		}
		products = append(products, os.CPEProduct)
	}
	return &osint.Vulnerability{
		ID:          fmt.Sprintf("CVE-2018-9%04d", round),
		Description: "Remote code execution in the shared hypervisor escape path allows full host compromise via crafted descriptors.",
		Products:    products,
		Published:   now.AddDate(0, 0, -1),
		CVSS:        9.8,
		ExploitAt:   now.AddDate(0, 0, -1),
	}, nil
}

func (r *run) runRemediate(ctx context.Context) error {
	rng := rngFor(r.seed, 0)
	var err error
	if r.model, err = newKVModel(remValSize, remPreload, remPreload, 0.5, true, rng); err != nil {
		return err
	}
	t0 := time.Now()
	// The paper-window corpus cmd/lazarus runs on: a fixed dataset, so
	// every run clusters the same records.
	ds, err := feeds.GenerateDataset(feeds.GenConfig{Seed: 1})
	if err != nil {
		return err
	}
	clock := &simClock{now: time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)}

	walDir, err := os.MkdirTemp(outDir, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	fileWAL, err := controlplane.OpenFileWAL(filepath.Join(walDir, "controller.wal"))
	if err != nil {
		return err
	}
	var wal controlplane.WAL = fileWAL
	var walw *walWrap
	if r.tr != nil {
		walw = newWALWrap(fileWAL, r.tr)
		wal = walw
	}
	defer wal.Close()

	mem := transport.NewMemory(transport.MemoryConfig{Seed: r.seed, Metrics: r.reg})
	netw := &benchNet{inner: mem, tr: r.tr}
	defer netw.Close()

	keys := make(map[transport.NodeID]ed25519.PublicKey)
	priv := make(map[transport.NodeID]ed25519.PrivateKey)
	for i := 0; i < remPool; i++ {
		id := transport.ClientIDBase + transport.NodeID(i)
		if keys[id], priv[id], err = ed25519.GenerateKey(rand.Reader); err != nil {
			return err
		}
	}
	ctrl, err := controlplane.New(controlplane.Config{
		N: 4,
		// cmd/lazarus's default controller seed: every run makes the same
		// replacement decisions, so runs compare the same swaps; --seed
		// drives the client traffic.
		Seed:      7,
		Clock:     clock.Now,
		LTUSecret: []byte("perfbench-ltu-secret"),
		// cmd/lazarus's replica tuning; the hook also tells each
		// application which node hosts it.
		ReplicaTuning: func(rc *bft.ReplicaConfig) {
			rc.CheckpointInterval = 64
			rc.ViewChangeTimeout = 300 * time.Millisecond
			if a, ok := rc.App.(*appWrap); ok {
				a.mu.Lock()
				a.node = rc.ID
				a.mu.Unlock()
			}
		},
		App:          func() bft.Application { return r.apps.add(-1) },
		Net:          netw,
		ClientKeys:   keys,
		InitialVulns: ds.PublishedBefore(clock.Now()),
		WAL:          wal,
		Metrics:      r.reg,
	})
	if err != nil {
		return err
	}
	defer ctrl.Stop()
	sp := r.tr.begin("controlplane.bootstrap", 0, 0)
	err = ctrl.Bootstrap(ctx)
	sp.end()
	if err != nil {
		return err
	}
	var clients []*bft.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < remPool; i++ {
		id := transport.ClientIDBase + transport.NodeID(i)
		c, err := ctrl.ServiceClient(id, priv[id])
		if err != nil {
			return err
		}
		clients = append(clients, c)
	}
	pool := invokers(clients)
	const timeout = 60 * time.Second
	if err := r.preload(ctx, pool, timeout); err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(t0).Seconds())
	r.measureFrom()
	r.netBase = netw.Stats()

	// The closed loop runs first, on the deployment as bootstrapped, so
	// every run measures it on the same membership.
	total := r.span
	closedDur := time.Duration(remClosedS * float64(time.Second))
	r.closed = closedLoop(ctx, pool, closedDur, timeout,
		func(id uint64) request { return r.model.next(rng, id) }, r.model.observe, r.tr)
	r.notePhase("closed loop")

	// Bombed rounds under open-loop background traffic.
	roundsDur := total - closedDur
	bgRng := rngFor(r.seed, 1)
	bgDone := make(chan *phase, 1)
	go func() {
		bgDone <- openLoop(ctx, pool, remRate, roundsDur, timeout, bgRng,
			func(id uint64) request { return r.model.next(bgRng, id) }, r.model.observe, r.tr)
	}()
	var roundErr error
	for round := 1; round <= max(1, int(roundsDur/remRoundBudget)); round++ {
		if roundErr = r.bombRound(ctx, ctrl, clock, walw, clients, round); roundErr != nil {
			break
		}
	}
	r.background = append(r.background, <-bgDone)
	if roundErr != nil {
		return roundErr
	}
	for _, rec := range ctrl.SwapHistory() {
		if rec.Outcome != controlplane.SwapSucceeded {
			r.violate("swap %s -> %s ended %s: %s", rec.Removed, rec.Added, rec.Outcome, rec.Err)
		}
	}

	time.Sleep(quiescence)
	apps := r.apps.byNode()
	var pos []uint64
	for _, id := range ctrl.Status().Members {
		if a := apps[id]; a != nil {
			pos = append(pos, a.executed())
		}
	}
	r.lagging = lagging(pos)

	n, fails := r.model.readBack(ctx, pool, timeout)
	r.extraAttempted += n
	r.extraFailed += fails
	r.netEnd = netw.Stats()
	r.collect = func(r *run) { r.collectRemediate(ctrl, walw) }
	return nil
}

// bombRound publishes one shared critical CVE, refreshes intelligence
// and runs one monitoring round, which must replace a replica.
func (r *run) bombRound(ctx context.Context, ctrl *controlplane.Controller, clock *simClock,
	walw *walWrap, clients []*bft.Client, round int) error {
	now := clock.advanceDay()
	before, stBefore := ctrl.Membership(), ctrl.Status()
	v, err := bomb(round, stBefore.Config, now)
	if err != nil {
		return err
	}
	rs := r.tr.begin("remediate.round", 0, uint64(round))
	published := time.Now()
	sp := r.tr.begin("controlplane.refresh", rs.id, uint64(round))
	err = ctrl.RefreshIntel(ctx, v)
	sp.end()
	r.refreshS = append(r.refreshS, time.Since(published).Seconds())
	if err != nil {
		return fmt.Errorf("round %d: refresh: %w", round, err)
	}
	mon := r.tr.begin("controlplane.monitor_round", rs.id, uint64(round))
	if walw != nil {
		walw.round.Store(mon.id)
	}
	monStart := time.Now()
	d, err := ctrl.MonitorRound(ctx)
	monDur := time.Since(monStart)
	mon.end()
	rs.end()
	r.swapWindows = append(r.swapWindows, [2]time.Time{monStart, monStart.Add(monDur)})
	// Clients follow the membership the round left.
	if m := ctrl.Membership(); m != nil {
		for _, c := range clients {
			c.UpdateMembership(m.Replicas, m.Keys)
		}
	}
	if err != nil {
		return fmt.Errorf("round %d: monitor: %w", round, err)
	}
	if !d.Reconfigured {
		r.violate("round %d: a shared critical CVE did not trigger a swap", round)
	} else {
		r.remediateS = append(r.remediateS, time.Since(published).Seconds())
		r.swapS = append(r.swapS, monDur.Seconds())
		idx := -1
		if before != nil {
			idx = slices.Index(before.Replicas, stBefore.Nodes[d.Removed.ID])
		}
		r.note("round %d: refresh %.3f s, monitor %.3f s, replaced %s (member index %d) with %s", round,
			r.refreshS[len(r.refreshS)-1], monDur.Seconds(), d.Removed.ID, idx, d.Added.ID)
		r.notePhase(fmt.Sprintf("round %d", round))
	}
	st := ctrl.Status()
	if len(st.Members) != 4 || len(st.Config) != 4 {
		r.violate("round %d: %d members and %d OSes after the round, want n=3f+1=4", round, len(st.Members), len(st.Config))
	}
	return nil
}
