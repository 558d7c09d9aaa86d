package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lazarus/internal/controlplane"
	"lazarus/internal/metrics"
)

// e2eUnits lists the end-to-end metrics in report order.
var e2eUnits = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_ops", "ops/s"},
	{"success_ratio", "ratio"},
	{"remediate_s", "s"},
}

// layerUnits lists the per-layer metrics in report order.
var layerUnits = []struct{ name, unit string }{
	{"bft.commit_us_p50", "us"},
	{"bft.batch_mean", "count"},
	{"bft.msgs_per_op", "count"},
	{"bft.inflight_mean", "count"},
	{"bft.view_changes", "count"},
	{"bft.progress_timeouts", "count"},
	{"bft.retransmits", "count"},
	{"bft.state_transfers", "count"},
	{"bft.verify_per_op", "count"},
	{"bft.verify_cache_hit_ratio", "ratio"},
	{"bft.verify_offload_ratio", "ratio"},
	{"bft.lagging_replicas", "count"},
	{"transport.frames_per_op", "count"},
	{"transport.bytes_per_op", "B"},
	{"transport.send_us", "us"},
	{"transport.drops", "count"},
	{"transport.drops_queue_full", "count"},
	{"transport.drops_inbox_full", "count"},
	{"transport.drops_auth_fail", "count"},
	{"transport.drops_write_fail", "count"},
	{"transport.drops_lossy", "count"},
	{"netem.drops", "count"},
	{"netem.reordered", "count"},
	{"kvs.exec_us", "us"},
	{"kvs.execs_per_op", "count"},
	{"kvs.snapshot_ms", "ms"},
	{"kvs.restore_ms", "ms"},
	{"kvs.snapshot_mb", "MB"},
	{"controlplane.refresh_s", "s"},
	{"cluster.build_s", "s"},
	{"core.decide_ms", "ms"},
	{"swap.boot_ms", "ms"},
	{"swap.add_ms", "ms"},
	{"swap.catchup_ms", "ms"},
	{"swap.remove_ms", "ms"},
	{"swap.poweroff_ms", "ms"},
	{"swap.monitor_s", "s"},
	{"swap.success_ratio", "ratio"},
	{"swap.retries", "count"},
	{"swap.client_p99_ms", "ms"},
	{"wal.append_us", "us"},
	{"wal.appends_per_swap", "count"},
	{"gen.late_ms_max", "ms"},
	{"gen.samples", "count"},
}

// stageMetric maps swap stage names to their metric names.
var stageMetric = map[string]string{
	"boot": "swap.boot_ms", "add": "swap.add_ms", "catch-up": "swap.catchup_ms",
	"remove": "swap.remove_ms", "power-off": "swap.poweroff_ms",
}

var stageOrder = []string{"boot", "add", "catch-up", "remove", "power-off"}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// latencyPhase is the open-loop phase latency is reported from: the
// dedicated phase, or the background traffic on remediate.
func (r *run) latencyPhase() *phase {
	if r.open != nil {
		return r.open
	}
	return r.background[0]
}

func (r *run) phases() []*phase {
	out := append([]*phase(nil), r.background...)
	for _, p := range []*phase{r.open, r.closed} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// counts returns attempted, failed and completed operations over every
// measured phase plus the read-back.
func (r *run) counts() (attempted, failed, completed int) {
	for _, p := range r.phases() {
		s := p.summary()
		attempted += s.attempted
		failed += s.failed
		completed += s.attempted - s.failed
	}
	return attempted + r.extraAttempted, failed + r.extraFailed, completed
}

// samples holds one episode's raw end-to-end samples.
type samples struct {
	p50, p99, setup, remediate []float64
	latN                       int // latency samples behind p50 and p99
	closedOps                  int // operations completed in the closed loop
	closedFor                  time.Duration
}

// windowSamples is the number of requests a latency window is sized to
// hold at the phase's arrival rate, so its p99 rests on a few requests,
// not on its slowest one.
const windowSamples = 200

func (r *run) samples() samples {
	c := r.closed.summary()
	s := samples{
		setup: r.setupS, remediate: r.remediateS,
		closedOps: c.attempted - c.failed, closedFor: r.closed.elapsed,
	}
	p := r.latencyPhase()
	win := max(time.Second, time.Duration(windowSamples/p.rate*float64(time.Second)))
	end := p.began.Add(p.elapsed)
	for from := p.began; from.Before(end); from = from.Add(win) {
		lat, _ := p.latencies(from, from.Add(win), r.swapWindows)
		// A window cut short by the end of the phase or by a
		// MonitorRound is left out.
		if len(lat) < windowSamples/2 {
			continue
		}
		s.p50 = append(s.p50, quantile(lat, 0.5))
		s.p99 = append(s.p99, quantile(lat, 0.99))
		s.latN += len(lat)
	}
	return s
}

// swapClientP99 is the p99 latency of the client requests that ran
// while a swap did: the swap phase on cluster workloads, requests
// overlapping a MonitorRound on remediate.
func (r *run) swapClientP99() float64 {
	p := r.background[0]
	if r.open != nil {
		return quantile(p.summary().lat, 0.99)
	}
	_, during := p.latencies(p.began, p.began.Add(p.elapsed+time.Hour), r.swapWindows)
	return quantile(during, 0.99)
}

// endToEnd computes every end-to-end metric, with the sample count behind
// each. Latency quantiles are the median over fixed windows of the
// open-loop phase of each window's quantile, so one transient stall (a
// collection, a burst of load from outside the benchmark) moves them no
// more than any other window. Throughput is completed operations over
// the closed loop's length: it swings by a quarter from one second to
// the next, and a mean over the whole phase is the steadiest estimate.
// The time to remediate is a mean per swap: a swap whose REMOVE stalls
// the group into a view change costs about three times one that does
// not, and the share of such swaps changes from run to run, so a median
// flips between the two costs while a mean moves with both the cost of
// each kind and how often the slow one happens.
func endToEnd(s samples, attempted, failed int) (map[string]float64, map[string]int) {
	v := map[string]float64{
		"setup_s":        median(s.setup),
		"latency_p50_ms": median(s.p50),
		"latency_p99_ms": median(s.p99),
		"peak_ops":       float64(s.closedOps) / s.closedFor.Seconds(),
		"success_ratio":  1 - float64(failed)/float64(max(attempted, 1)),
		"remediate_s":    mean(s.remediate),
	}
	n := map[string]int{
		"setup_s": len(s.setup), "latency_p50_ms": s.latN, "latency_p99_ms": s.latN,
		"peak_ops": s.closedOps, "success_ratio": attempted,
		"remediate_s": len(s.remediate),
	}
	return v, n
}

// delta is a registry counter's growth since measurement started.
func (r *run) delta(end metrics.Snapshot, name string) float64 {
	return float64(end.Counters[name] - r.base.Counters[name])
}

// histMean is a registry histogram's mean over the measured interval.
func (r *run) histMean(end metrics.Snapshot, name string) float64 {
	e, b := end.Histograms[name], r.base.Histograms[name]
	if e.Count == b.Count {
		return 0
	}
	return float64(e.Sum-b.Sum) / float64(e.Count-b.Count)
}

// layers computes every per-layer metric.
func (r *run) layers() {
	end := r.reg.Snapshot()
	_, _, ops := r.counts()
	perOp := func(x float64) float64 { return x / float64(max(ops, 1)) }
	l := r.layer

	l["bft.commit_us_p50"] = float64(end.Histograms["bft.commit_latency_us"].P50)
	l["bft.batch_mean"] = r.histMean(end, "bft.batch_occupancy")
	var msgs float64
	for name := range end.Counters {
		if strings.HasPrefix(name, "bft.msg_in.") {
			msgs += r.delta(end, name)
		}
	}
	l["bft.msgs_per_op"] = perOp(msgs)
	l["bft.inflight_mean"] = r.histMean(end, "bft.pipeline_inflight")
	l["bft.view_changes"] = r.delta(end, "bft.view_changes")
	l["bft.progress_timeouts"] = r.delta(end, "bft.progress_timeouts")
	l["bft.retransmits"] = r.delta(end, "bft.retransmit_votes")
	l["bft.state_transfers"] = r.delta(end, "bft.state_transfers")
	verifies, hits := r.delta(end, "bft.verify_ops"), r.delta(end, "bft.verify_cache_hits")
	l["bft.verify_per_op"] = perOp(verifies)
	if verifies+hits > 0 {
		l["bft.verify_cache_hit_ratio"] = hits / (verifies + hits)
	}
	if verifies > 0 {
		l["bft.verify_offload_ratio"] = r.delta(end, "bft.verify_offloaded") / verifies
	}
	l["bft.lagging_replicas"] = float64(r.lagging)

	n0, n1 := r.netBase, r.netEnd
	l["transport.frames_per_op"] = perOp(float64(n1.FramesSent - n0.FramesSent))
	l["transport.bytes_per_op"] = perOp(float64(n1.BytesSent - n0.BytesSent))
	_, send := r.tr.layer("transport.send")
	l["transport.send_us"] = float64(send) / 1e3
	l["transport.drops"] = float64(n1.Drops() - n0.Drops())
	l["transport.drops_queue_full"] = float64(n1.DropsQueueFull - n0.DropsQueueFull)
	l["transport.drops_inbox_full"] = float64(n1.DropsInboxFull - n0.DropsInboxFull)
	l["transport.drops_auth_fail"] = float64(n1.DropsAuthFail - n0.DropsAuthFail)
	l["transport.drops_write_fail"] = float64(n1.DropsWriteFail - n0.DropsWriteFail)
	l["transport.drops_lossy"] = float64(n1.DropsLossy - n0.DropsLossy)
	l["netem.drops"] = r.delta(end, "netem.drops_link") + r.delta(end, "netem.drops_partition")
	l["netem.reordered"] = r.delta(end, "netem.reordered")

	execs, exec := r.tr.layer("kvs.execute")
	l["kvs.exec_us"] = float64(exec) / 1e3
	l["kvs.execs_per_op"] = perOp(float64(execs))
	_, snap := r.tr.layer("kvs.snapshot")
	_, restore := r.tr.layer("kvs.restore")
	l["kvs.snapshot_ms"] = float64(snap) / 1e6
	l["kvs.restore_ms"] = float64(restore) / 1e6
	l["kvs.snapshot_mb"] = r.apps.snapshotMB()

	for stage, name := range stageMetric {
		l[name] = mean(r.stageMS[stage])
	}
	l["swap.monitor_s"] = mean(r.swapS)
	if len(r.swapS) > 0 {
		l["swap.success_ratio"] = 1 // a failed benchmark swap fails the run
	}
	l["swap.retries"] = float64(r.swapRetries)
	l["swap.client_p99_ms"] = r.swapClientP99()
	appends, appendT := r.tr.layer("wal.append")
	l["wal.append_us"] = float64(appendT) / 1e3
	if len(r.swapS) > 0 {
		l["wal.appends_per_swap"] = float64(appends) / float64(len(r.swapS))
	}
	gen := r.latencyPhase().summary()
	l["gen.late_ms_max"] = gen.lateMaxMS
	l["gen.samples"] = float64(len(gen.lat))
	if r.collect != nil {
		r.collect(r)
	}
}

// collectRemediate fills the control-plane metrics of the remediate
// workload and cross-checks the WAL stage spans against the registry.
func (r *run) collectRemediate(ctrl *controlplane.Controller, walw *walWrap) {
	end := r.reg.Snapshot()
	l := r.layer
	l["controlplane.refresh_s"] = mean(r.refreshS)
	l["cluster.build_s"] = r.histMean(end, "controlplane.cluster_build_us") / 1e6
	l["core.decide_ms"] = r.histMean(end, "controlplane.monitor_round_us") / 1e3
	for _, stage := range stageOrder {
		l[stageMetric[stage]] = walw.stageMS(stage)
		reg := r.histMean(end, "controlplane.swap_stage_us."+stage) / 1e3
		r.note("cross-check swap stage %-9s WAL span %8.2f ms, registry swap_stage_us %8.2f ms", stage, walw.stageMS(stage), reg)
	}
	walw.mu.Lock()
	r.walOutsideMS = float64(walw.outside) / 1e6 / float64(max(len(r.remediateS), 1))
	walw.mu.Unlock()
	st := ctrl.SwapStats()
	if st.Attempts > 0 {
		l["swap.success_ratio"] = float64(st.Successes) / float64(st.Attempts)
	}
	l["swap.retries"] = float64(st.Retries)
}

// summed lists the per-layer counts that total over a run's episodes;
// every other per-layer metric is averaged across them, except
// gen.late_ms_max, which takes the maximum.
var summed = map[string]bool{
	"bft.view_changes": true, "bft.progress_timeouts": true, "bft.retransmits": true,
	"bft.state_transfers": true, "bft.lagging_replicas": true, "transport.drops": true,
	"transport.drops_queue_full": true, "transport.drops_inbox_full": true,
	"transport.drops_auth_fail": true, "transport.drops_write_fail": true,
	"transport.drops_lossy": true, "netem.drops": true, "netem.reordered": true,
	"swap.retries": true, "gen.samples": true,
}

// aggregate pools the samples of every episode of a run and computes
// the end-to-end metrics over the pool.
func aggregate(eps []*run) (e2e map[string]float64, n map[string]int, attempted, failed int) {
	var all samples
	for _, r := range eps {
		s := r.samples()
		all.p50 = append(all.p50, s.p50...)
		all.p99 = append(all.p99, s.p99...)
		all.latN += s.latN
		all.closedOps += s.closedOps
		all.closedFor += s.closedFor
		all.setup = append(all.setup, s.setup...)
		all.remediate = append(all.remediate, s.remediate...)
		a, f, _ := r.counts()
		attempted += a
		failed += f
	}
	e2e, n = endToEnd(all, attempted, failed)
	return e2e, n, attempted, failed
}

// aggregateLayers combines the episodes' per-layer metrics.
func aggregateLayers(eps []*run) map[string]float64 {
	out := make(map[string]float64)
	for _, r := range eps {
		r.layers()
	}
	for _, m := range layerUnits {
		var v []float64
		for _, r := range eps {
			v = append(v, r.layer[m.name])
		}
		switch {
		case summed[m.name]:
			for _, x := range v {
				out[m.name] += x
			}
		case m.name == "gen.late_ms_max":
			for _, x := range v {
				out[m.name] = max(out[m.name], x)
			}
		default:
			out[m.name] = mean(v)
		}
	}
	return out
}

// attribution sums layer self-times against an end-to-end median and
// states the residual.
func attribution(eps []*run, e2e, layer map[string]float64) []string {
	var out []string
	row := func(name string, v, of float64, unit string) {
		out = append(out, fmt.Sprintf("  %-40s %12.3f %-3s %6.1f%%", name, v, unit, 100*v/of))
	}
	if eps[0].cfg.workload == "remediate" {
		r := eps[0]
		total := mean(r.remediateS) * 1e3
		out = append(out, fmt.Sprintf("attribution of remediate_s = %.1f ms (mean per round)", total))
		build := layer["cluster.build_s"] * 1e3
		type part struct {
			name string
			ms   float64
		}
		parts := []part{
			{"cluster.build (registry)", build},
			{"controlplane.refresh self - build", layer["controlplane.refresh_s"]*1e3 - build},
			{"core.decide (registry)", layer["core.decide_ms"]},
		}
		for _, s := range stageOrder {
			parts = append(parts, part{"swap." + s + " (WAL span)", layer[stageMetric[s]]})
		}
		parts = append(parts, part{"wal.append outside stages", r.walOutsideMS})
		var sum float64
		for _, p := range parts {
			row(p.name, p.ms, total, "ms")
			sum += p.ms
		}
		row("residual", total-sum, total, "ms")
		return out
	}
	total := e2e["latency_p50_ms"] * 1e3
	out = append(out, fmt.Sprintf("attribution of latency_p50_ms = %.1f us per request; layer rows are busy time per operation summed over every replica", total))
	var sum float64
	for _, name := range []string{"kvs.execute", "transport.send", "kvs.snapshot", "kvs.restore"} {
		var v []float64
		for _, r := range eps {
			_, _, ops := r.counts()
			v = append(v, float64(r.tr.total(name))/1e3/float64(max(ops, 1)))
		}
		row(name, mean(v), total, "us")
		sum += mean(v)
	}
	row("residual (protocol, signatures, waiting)", total-sum, total, "us")
	swapTotal := layer["swap.monitor_s"] * 1e3
	out = append(out, fmt.Sprintf("attribution of swap.monitor_s = %.1f ms against mean stage times", swapTotal))
	var ssum float64
	for _, s := range stageOrder {
		v := layer[stageMetric[s]]
		row("swap."+s, v, swapTotal, "ms")
		ssum += v
	}
	row("residual", swapTotal-ssum, swapTotal, "ms")
	return out
}

// report prints the human-readable report and, last, the JSON result.
func report(w io.Writer, cfg config, eps []*run) error {
	e2e, samples, attempted, failed := aggregate(eps)
	res := result{Attempted: attempted, Failed: failed, Metrics: make(map[string]metric)}
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v episodes %d\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace, len(eps))
	for i, r := range eps {
		a, f, _ := r.counts()
		v, _ := endToEnd(r.samples(), a, f)
		fmt.Fprintf(w, "  episode %d:", i)
		for _, m := range e2eUnits {
			fmt.Fprintf(w, " %s=%.4g", m.name, v[m.name])
		}
		fmt.Fprintf(w, " lagging_replicas=%d\n", r.lagging)
	}
	for _, m := range e2eUnits {
		fmt.Fprintf(w, "  %-16s %14.4f %-6s samples=%d\n", m.name, e2e[m.name], m.unit, samples[m.name])
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d\n", attempted, failed)
	var layer map[string]float64
	if cfg.trace {
		layer = aggregateLayers(eps) // notes the stage cross-checks
	}
	for i, r := range eps {
		for _, n := range r.notes {
			fmt.Fprintf(w, "episode %d: %s\n", i, n)
		}
	}
	var violations []string
	for i, r := range eps {
		for _, v := range r.violations {
			violations = append(violations, fmt.Sprintf("episode %d: %s", i, v))
		}
	}
	for _, v := range violations {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", v)
	}
	res.Correct = len(violations) == 0
	if !cfg.trace {
		for _, m := range e2eUnits {
			res.Metrics[m.name] = metric{Value: e2e[m.name], Unit: m.unit}
		}
		if err := writeJSON(lastPath(cfg.workload), res); err != nil {
			return err
		}
	} else {
		for _, m := range layerUnits {
			res.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
			fmt.Fprintf(w, "  %-28s %14.4f %s\n", m.name, layer[m.name], m.unit)
		}
		for _, line := range attribution(eps, e2e, layer) {
			fmt.Fprintln(w, line)
		}
		fmt.Fprintln(w, overhead(cfg.workload, e2e))
		for i, r := range eps {
			path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d-ep%d.jsonl", cfg.workload, cfg.seed, i))
			if err := r.tr.write(path); err != nil {
				return err
			}
			fmt.Fprintf(w, "episode %d spans: %d kept, %d dropped, written to %s\n", i, len(r.tr.spans), r.tr.dropped, path)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// overhead compares a traced run with the last untraced run of the same
// workload in this checkout.
func overhead(workload string, e2e map[string]float64) string {
	b, err := os.ReadFile(lastPath(workload))
	if err != nil {
		return "tracing overhead: no untraced run of this workload to compare with"
	}
	var ref result
	if err := json.Unmarshal(b, &ref); err != nil {
		return fmt.Sprintf("tracing overhead: unreadable reference: %v", err)
	}
	names := make([]string, 0, len(ref.Metrics))
	for n := range ref.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	sb.WriteString("tracing overhead (traced - last untraced run):")
	for _, n := range names {
		fmt.Fprintf(&sb, "\n  %-16s %+12.4f %s", n, e2e[n]-ref.Metrics[n].Value, ref.Metrics[n].Unit)
	}
	return sb.String()
}
