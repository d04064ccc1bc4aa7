package main

import (
	"fmt"
	"sort"
	"time"

	"esr/internal/consistency"
)

// metric is one named figure with its unit, as printed and as stored.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload.
type result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	// GateTimeouts counts reads that parked for the whole gateTimeout.
	// They completed (the gate "proceeds with what the site has"), so
	// they are not in Failed, but they are failures of the level's
	// promise: client.fail_share counts them, and each costs its read
	// phase 100 ms of throughput.
	GateTimeouts uint64   `json:"gate_timeouts"`
	Invalid      []string `json:"invalid,omitempty"`
	// Warnings describe a run that measured a system not keeping up.  Its
	// figures are real (paced latencies run from the due instant), so the
	// run stands: on a shared host a stalled minute does this to one run
	// in forty, and a driver that refuses any non-zero exit must not be
	// handed one for it.
	Warnings   []string          `json:"warnings,omitempty"`
	Violations []string          `json:"violations,omitempty"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	Layer      map[string]metric `json:"per_layer"`
}

func (res *result) e2e(name string, v float64)   { res.EndToEnd[name] = metric{v, unitOf(name)} }
func (res *result) layer(name string, v float64) { res.Layer[name] = metric{v, unitOf(name)} }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perSecond(n uint64, d time.Duration) float64 { return ratio(float64(n), d.Seconds()) }

var levelNames = map[consistency.Level]string{
	consistency.Strong: "strong", consistency.Bounded: "bounded",
	consistency.Session: "session", consistency.Eventual: "eventual",
}

// assemble turns the run's raw accounting into named metrics: the
// end-to-end set, and the counter-sourced (C) per-layer set.  before and
// after are the marks around the measured window; after was taken once
// the cluster had drained, so rates over [before, after] are rates of
// converged work.  heapEnd is HeapAlloc after the closing collection.
func (r *run) assemble(before, after windowMark, heapEnd uint64) *result {
	res := &result{Workload: r.cfg.workload, Seed: r.cfg.seed, Seconds: r.cfg.window.Seconds(), Traced: r.cfg.traced,
		EndToEnd: map[string]metric{}, Layer: map[string]metric{}}

	var upd, late hist
	var acked, lateOver uint64
	for _, c := range r.clients {
		upd.merge(&c.upd)
		late.merge(&c.late)
		acked += c.acked
		lateOver += c.lateOver
		res.Attempted += c.attempted
		res.Failed += c.failed
		for i := range c.reads {
			res.GateTimeouts += c.reads[i].gateTimeouts
		}
	}
	violations, bad := r.oracle()
	res.Violations = violations
	res.Failed += bad
	res.Correct = bad == 0 && len(violations) == 0
	ops := res.Attempted - min(res.Failed, res.Attempted)
	elapsed := after.at.Sub(before.at)

	rate, conv, p50, prop50, prop80 := r.sliceMedians()
	if r.w.paced {
		// A paced writer sends exactly pacedRate/20 updates in every
		// slice; what can vary is how long the whole schedule took.
		rate = perSecond(acked, r.windowTime)
	}
	res.e2e("setup_s", median(r.setupTimes).Seconds())
	res.e2e("update_per_s", rate)
	res.e2e("update_p50_us", p50/1e3)
	if conv == 0 { // not a workload of rounds: converged work over window plus final drain
		conv = perSecond(acked, elapsed)
	}
	res.e2e("converged_per_s", conv)
	res.layer("client.ops_per_s", perSecond(ops, r.windowTime))
	res.e2e("propagation_p50_ms", prop50/1e6)
	res.e2e("propagation_p80_ms", prop80/1e6)
	res.layer("client.propagation_p90_ms", r.obs.lat.quantile(0.90)/1e6)
	res.layer("client.propagation_p99_ms", r.obs.lat.quantile(0.99)/1e6)
	res.e2e("cpu_us_per_update", ratio(float64((after.cpu-before.cpu).Microseconds()), float64(acked)))
	res.layer("client.retained_bytes_per_op", ratio(float64(heapEnd)-float64(before.mem.HeapAlloc), float64(ops)))
	res.layer("client.fail_share", ratio(float64(res.Failed+res.GateTimeouts), float64(res.Attempted)))
	for lvl, name := range levelNames {
		ls := &r.clients[len(r.clients)-1].reads[lvl]
		res.layer("client.read_"+name+"_per_s", perSecond(ls.ops, ls.elapsed))
		res.layer("client.read_"+name+"_p50_us", ls.lat.quantile(0.50)/1e3)
		res.layer("client.read_"+name+"_p99_us", ls.lat.quantile(0.99)/1e3)
	}

	// Counters read from outside, per acknowledged update.
	n := float64(acked)
	res.layer("core.journal_syncs_per_update", ratio(float64(after.syncs-before.syncs), n))
	res.layer("core.journal_bytes_per_update", ratio(float64(after.jbytes)-float64(before.jbytes), n))
	net := after.net
	res.layer("network.frames_per_update", ratio(float64(net.Frames-before.net.Frames), n))
	res.layer("network.bytes_per_update", ratio(float64(net.Bytes-before.net.Bytes), n))
	res.layer("network.msgs_per_frame", ratio(float64(net.Delivered-before.net.Delivered), float64(net.Frames-before.net.Frames)))
	res.layer("network.lost_per_update", ratio(float64(net.Lost-before.net.Lost), n))
	res.layer("replica.applied_per_update", ratio(float64(after.site.Applied-before.site.Applied), n))
	res.layer("replica.held_per_update", ratio(float64(after.site.Held-before.site.Held), n))
	res.layer("replica.inq_max", float64(r.obs.inqMax))
	res.layer("queue.out_backlog_max", float64(r.obs.outMax))
	res.layer("replica.staleness_p50_ms", r.obs.stale.quantile(0.50)/1e6)
	res.layer("replica.staleness_max_ms", float64(r.obs.stale.max)/1e6)
	res.layer("compe.compensations_per_abort", ratio(float64(after.compensate-before.compensate), float64(r.abortsMeasured)))

	res.layer("client.update_p99_us", upd.quantile(0.99)/1e3)
	res.layer("client.update_p999_us", upd.quantile(0.999)/1e3)
	res.layer("client.gen_late_p99_us", late.quantile(0.99)/1e3)
	res.layer("client.gen_late_share", ratio(float64(lateOver), float64(late.n)))
	res.layer("client.probes", float64(r.obs.resolved))
	res.layer("client.probes_skipped", float64(r.obs.skipped.Load()))
	res.layer("client.gate_timeouts", float64(res.GateTimeouts))
	res.layer("client.rounds", float64(len(r.roundTotal)))

	res.layer("runtime.mallocs_per_op", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(ops)))
	res.layer("runtime.alloc_bytes_per_op", ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), float64(ops)))
	res.layer("runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)

	// Generator hygiene.
	if period := float64(time.Second / pacedRate); late.quantile(0.50) > period {
		res.Warnings = append(res.Warnings, fmt.Sprintf("the median paced send was %.0f us late, more than a whole period: the writer is not keeping its schedule", late.quantile(0.50)/1e3))
	}
	if !r.w.durable && after.syncs != 0 {
		res.Invalid = append(res.Invalid, fmt.Sprintf("in-memory workload issued %d journal syncs", after.syncs))
	}
	if r.cfg.traced {
		r.harvestTrace(res)
	}
	return res
}

// sliceMedians returns the median over slices of the update rate
// (updates/s), of the converged rate (rounds only, else 0), of the
// slice's median ack latency and of its median and 80th-percentile
// propagation (ns).  A slice holds fifty to eighty probes, so the 80th
// is the highest percentile with ten samples beyond it in each; the
// 90th flips between 4 ms and 20-350 ms with every collector cycle that
// stalls a tenth of a slice (README.md, "Metrics that are not
// end-to-end").  Time slices all last window/20; a
// trailing partial slice (clients overrun the deadline by one op) is
// dropped.  A round's rate is over its own submit time, its converged
// rate over submit plus drain.
func (r *run) sliceMedians() (rate, conv, p50, prop50, prop80 float64) {
	n := windowSlices
	if r.w.rounds {
		n = len(r.roundTotal)
	}
	var rates, convs, p50s, prop50s, prop80s []float64
	for i := 0; i < n; i++ {
		var acked uint64
		var lat hist
		for _, c := range r.clients {
			if i < len(c.slices) {
				acked += c.slices[i].acked
				lat.merge(&c.slices[i].upd)
			}
		}
		if acked == 0 {
			continue // a client that only reads has no update slices
		}
		span := r.cfg.window / windowSlices
		if r.w.rounds {
			span = r.roundSubmit[i]
			convs = append(convs, perSecond(acked, r.roundTotal[i]))
		}
		rates = append(rates, perSecond(acked, span))
		p50s = append(p50s, lat.quantile(0.50))
		if i < len(r.obs.sliceLat) && r.obs.sliceLat[i].n > 0 {
			prop50s = append(prop50s, r.obs.sliceLat[i].quantile(0.50))
			prop80s = append(prop80s, r.obs.sliceLat[i].quantile(0.80))
		}
	}
	return medianOf(rates), medianOf(convs), medianOf(p50s), medianOf(prop50s), medianOf(prop80s)
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
