package main

import (
	"esr/internal/consistency"
	"esr/internal/trace"
)

// traceLegs maps the leg names trace.LegStats / InfraLegStats report to
// this benchmark's metric names.
var traceLegs = map[string]string{
	"sequence":       "trace.sequence_p50_us",
	"wal-fsync":      "trace.wal_fsync_p50_us",
	"flush":          "trace.flush_p50_us",
	"net-send":       "trace.net_send_p50_us",
	"commit→receive": "trace.commit_to_receive_p50_us",
	"receive→apply":  "trace.receive_to_apply_p50_us",
	"read-wait":      "trace.read_wait_p50_us",
	"read-snap":      "trace.read_snap_p50_us",
}

// harvestTrace fills the trace-sourced (T) per-layer metrics from the
// rings and registry of a traced run.  The rings hold the last traceRing
// events per engine, so the legs describe the end of the window.
func (r *run) harvestTrace(res *result) {
	var events []trace.Event
	for _, e := range r.sys.engines {
		events = append(events, e.Cluster().Trace.Snapshot()...)
	}
	for _, name := range traceLegs {
		res.layer(name, 0)
	}
	stats := append(trace.LegStats(trace.Assemble(events)), trace.InfraLegStats(trace.Infrastructure(events))...)
	for _, st := range stats {
		if name, ok := traceLegs[st.Name]; ok {
			res.layer(name, float64(st.P50.Nanoseconds())/1e3)
		}
	}
	// What the probes saw that the two propagation legs do not explain.
	legs := res.Layer["trace.commit_to_receive_p50_us"].Value + res.Layer["trace.receive_to_apply_p50_us"].Value
	res.layer("trace.unattributed_pct", 100*(1-ratio(legs/1e3, res.EndToEnd["propagation_p50_ms"].Value)))

	var charged, fallback float64
	for _, se := range r.sys.reg.Snapshot().Counters {
		switch se.Name {
		case "esr_query_charged_total":
			charged += se.Value
		case "esr_query_fallback_total":
			fallback += se.Value
		}
	}
	var bounded uint64
	for _, c := range r.clients {
		bounded += c.readsIssued[consistency.Bounded]
	}
	res.layer("divergence.charged_share", ratio(charged, float64(bounded)))
	res.layer("divergence.fallback_share", ratio(fallback, float64(bounded)))
}
