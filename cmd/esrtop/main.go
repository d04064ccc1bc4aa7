// Command esrtop is a terminal dashboard for a running cluster's
// observability endpoint (esr.Config.MetricsAddr or esrsim -metrics).
// It polls /metrics.json once per interval and redraws a per-site view
// of the propagation pipeline: commit and apply rates, queue depths,
// commit→apply lag quantiles, the live ε budget, the query
// charged/fallback split, and the consistency-level read path's
// watermarks — the applied watermark, how far SAFETIME trails it
// (safe-Δ, in logical ticks), the worst read staleness served
// (stale-max), and how many reads parked on the delayed-read gate
// (rd-park).  With -events it also tails the /trace
// endpoint incrementally (monotone Seq across ring wrap means no event
// is ever shown twice); with -timeline it folds the tailed events into
// per-MSet timelines with per-leg latency (see internal/trace).
//
//	esrsim -method commu -metrics :9100 -linger 1m &
//	esrtop -addr localhost:9100
//
// Cluster mode attaches to every node of a multi-process deployment at
// once and merges their metrics and trace rings into one view — the
// causal stamps carried in the transport frames order events across
// processes:
//
//	esrtop -nodes 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103 -timeline 5
//
// -once prints a single frame without clearing the screen, for scripts
// and tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"esr/internal/metrics"
	"esr/internal/trace"
)

// evCap bounds the merged event buffer timelines are assembled from;
// older events age out first (their MSets have long since applied).
const evCap = 16384

func main() {
	var (
		addr     = flag.String("addr", "localhost:9100", "metrics endpoint host:port")
		nodes    = flag.String("nodes", "", "cluster mode: comma-separated metrics endpoints of every node (overrides -addr)")
		interval = flag.Duration("interval", time.Second, "poll interval")
		once     = flag.Bool("once", false, "print one frame and exit (no screen clearing)")
		events   = flag.Int("events", 0, "tail the last N protocol events from /trace per frame (0 disables)")
		timeline = flag.Int("timeline", 0, "show the N most recent per-MSet timelines with per-leg latency (0 disables)")
	)
	flag.Parse()

	addrs := []string{*addr}
	if *nodes != "" {
		addrs = addrs[:0]
		for _, a := range strings.Split(*nodes, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
	}
	client := &http.Client{Timeout: 5 * time.Second}
	t := &top{client: client, events: *events, timeline: *timeline}
	for _, a := range addrs {
		t.nodes = append(t.nodes, &node{addr: a})
	}

	if *once {
		if err := t.frame(os.Stdout, false); err != nil {
			fmt.Fprintln(os.Stderr, "esrtop:", err)
			os.Exit(1)
		}
		return
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		if err := t.frame(os.Stdout, true); err != nil {
			fmt.Printf("\x1b[H\x1b[2Jesrtop: %v (waiting for %s)\n", err, strings.Join(addrs, ","))
		}
		select {
		case <-sig:
			fmt.Println()
			return
		case <-tick.C:
		}
	}
}

// node is one endpoint being polled: its address and the trace cursor
// for incremental (?since=N) event tails.
type node struct {
	addr  string
	since uint64
}

// top holds the state carried between frames: the previous snapshot's
// totals for rate derivation and the merged trace-event buffer.
type top struct {
	nodes    []*node
	client   *http.Client
	events   int
	timeline int

	prev   map[string]float64 // summed counter totals by name
	prevAt time.Time
	evbuf  []trace.Event // merged tail across nodes, oldest first
}

func (t *top) frame(w io.Writer, clear bool) error {
	snap, up, err := t.fetch()
	if err != nil {
		return err
	}
	now := time.Now()
	var b strings.Builder
	t.render(&b, snap, up, now)
	if t.events > 0 || t.timeline > 0 {
		t.fetchEvents()
	}
	if t.timeline > 0 {
		t.renderTimelines(&b)
	}
	if t.events > 0 {
		fmt.Fprintf(&b, "\nlast %d protocol events (/trace)\n", t.events)
		tail := t.evbuf
		if len(tail) > t.events {
			tail = tail[len(tail)-t.events:]
		}
		for _, e := range tail {
			b.WriteString("  " + e.String() + "\n")
		}
	}
	if clear {
		fmt.Fprint(w, "\x1b[H\x1b[2J")
	}
	_, err = io.WriteString(w, b.String())
	t.prev = sums(snap)
	t.prevAt = now
	return err
}

// fetch polls every node's /metrics.json and merges the snapshots into
// one (per-site series live only in the process hosting the site, so
// concatenation is the merge).  It reports how many nodes answered and
// errors only when none did.
func (t *top) fetch() (metrics.Snapshot, int, error) {
	var merged metrics.Snapshot
	up := 0
	var lastErr error
	for _, n := range t.nodes {
		snap, err := t.fetchOne(n.addr)
		if err != nil {
			lastErr = err
			continue
		}
		up++
		merged.Counters = append(merged.Counters, snap.Counters...)
		merged.Gauges = append(merged.Gauges, snap.Gauges...)
		merged.Histograms = append(merged.Histograms, snap.Histograms...)
	}
	if up == 0 {
		return merged, 0, lastErr
	}
	return merged, up, nil
}

func (t *top) fetchOne(addr string) (metrics.Snapshot, error) {
	var snap metrics.Snapshot
	resp, err := t.client.Get("http://" + addr + "/metrics.json")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("GET /metrics.json: %s", resp.Status)
	}
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// fetchEvents tails every node's /trace incrementally in NDJSON form
// and appends the new events to the merged buffer in causal order.
// Errors leave the previous tail in place (the endpoint is optional:
// it serves nothing unless tracing is enabled).
func (t *top) fetchEvents() {
	var fresh []trace.Event
	for _, n := range t.nodes {
		resp, err := t.client.Get(fmt.Sprintf("http://%s/trace?since=%d&format=json", n.addr, n.since))
		if err != nil {
			continue
		}
		dec := json.NewDecoder(resp.Body)
		var hdr trace.StreamHeader
		if err := dec.Decode(&hdr); err != nil {
			resp.Body.Close()
			continue
		}
		for i := 0; i < hdr.Count; i++ {
			var e trace.Event
			if err := dec.Decode(&e); err != nil {
				break
			}
			fresh = append(fresh, e)
		}
		n.since = hdr.Next
		resp.Body.Close()
	}
	// Causal stamps order cross-process arrivals; wall clock breaks ties.
	sort.SliceStable(fresh, func(i, j int) bool {
		if fresh[i].Stamp != fresh[j].Stamp {
			return fresh[i].Stamp < fresh[j].Stamp
		}
		return fresh[i].At.Before(fresh[j].At)
	})
	t.evbuf = append(t.evbuf, fresh...)
	if len(t.evbuf) > evCap {
		t.evbuf = t.evbuf[len(t.evbuf)-evCap:]
	}
}

// renderTimelines folds the merged event buffer into per-MSet
// timelines and shows the most recent ones plus the aggregated per-leg
// latency table — the same assembly the esrtrace collector performs,
// live.
func (t *top) renderTimelines(b *strings.Builder) {
	timelines := trace.Assemble(t.evbuf)
	if len(timelines) == 0 {
		fmt.Fprintf(b, "\nper-MSet timelines: none yet (is tracing enabled?)\n")
		return
	}
	show := timelines
	if len(show) > t.timeline {
		show = show[len(show)-t.timeline:]
	}
	fmt.Fprintf(b, "\nper-MSet timelines (%d most recent of %d assembled)\n", len(show), len(timelines))
	fmt.Fprintf(b, "  %-20s %-7s %5s %6s %7s %9s  %s\n", "mset", "et", "shard", "origin", "events", "window", "legs (max per name)")
	for _, tl := range show {
		fmt.Fprintf(b, "  %-20s %-7s %5d %6d %7d %9s  %s\n",
			fmt.Sprintf("%#x", tl.MSet), tl.ET, tl.Shard, tl.Origin, len(tl.Events),
			durUnit(tl.Window()), legSummary(tl))
	}
	if byShard := shardCounts(timelines); len(byShard) > 1 {
		fmt.Fprintf(b, "  per-shard timelines:")
		for _, sc := range byShard {
			fmt.Fprintf(b, " %d=%d", sc[0], sc[1])
		}
		fmt.Fprintf(b, "\n")
	}
	fmt.Fprintf(b, "  %-18s %6s %9s %9s %9s\n", "leg", "count", "p50", "p99", "max")
	stats := append(trace.LegStats(timelines), trace.InfraLegStats(trace.Infrastructure(t.evbuf))...)
	for _, s := range stats {
		fmt.Fprintf(b, "  %-18s %6d %9s %9s %9s\n",
			s.Name, s.Count, durUnit(s.P50), durUnit(s.P99), durUnit(s.Max))
	}
}

// shardCounts tallies timelines per ordering shard, ascending; the
// table line appears only when more than one shard has traffic.
func shardCounts(timelines []*trace.Timeline) [][2]int {
	counts := map[int]int{}
	for _, tl := range timelines {
		counts[tl.Shard]++
	}
	shards := make([]int, 0, len(counts))
	for s := range counts {
		shards = append(shards, s)
	}
	sort.Ints(shards)
	out := make([][2]int, 0, len(shards))
	for _, s := range shards {
		out = append(out, [2]int{s, counts[s]})
	}
	return out
}

// legSummary compacts one timeline's legs to "name=maxdur" pairs.
func legSummary(tl *trace.Timeline) string {
	max := map[string]time.Duration{}
	var order []string
	for _, l := range tl.Legs() {
		if _, ok := max[l.Name]; !ok {
			order = append(order, l.Name)
		}
		if l.Dur > max[l.Name] {
			max[l.Name] = l.Dur
		}
	}
	parts := make([]string, 0, len(order))
	for _, n := range order {
		parts = append(parts, n+"="+durUnit(max[n]))
	}
	return strings.Join(parts, " ")
}

// sums collapses every counter series to a by-name total, the basis for
// frame-to-frame rate derivation.
func sums(s metrics.Snapshot) map[string]float64 {
	out := make(map[string]float64, len(s.Counters))
	for _, c := range s.Counters {
		out[c.Name] += c.Value
	}
	return out
}

func (t *top) rate(name string, cur map[string]float64, now time.Time) float64 {
	if t.prev == nil {
		return 0
	}
	dt := now.Sub(t.prevAt).Seconds()
	if dt <= 0 {
		return 0
	}
	return (cur[name] - t.prev[name]) / dt
}

// row is the per-site line of the dashboard.
type row struct {
	site                          string
	commits, applied, holds       float64
	depth                         float64
	p50, p95, p99                 float64
	eps                           float64
	hasEps                        bool
	charged, fallback, compensate float64
	// Consistency-level read path: the applied watermark and SAFETIME
	// (logical Time components), the worst read staleness served, and
	// how many reads parked on the delayed-read gate.
	watermark, safetime float64
	hasWater            bool
	staleMax            float64
	delayed             float64
}

func (t *top) render(b *strings.Builder, snap metrics.Snapshot, up int, now time.Time) {
	method := ""
	sites := map[string]*row{}
	get := func(site string) *row {
		r, ok := sites[site]
		if !ok {
			r = &row{site: site}
			sites[site] = r
		}
		return r
	}
	// Counters sum across nodes: a site's activity is recorded only in
	// the process hosting it, so other nodes contribute zero-valued
	// series at most.
	for _, c := range snap.Counters {
		if method == "" {
			method = c.Labels["method"]
		}
		site := c.Labels["site"]
		if site == "" {
			continue
		}
		switch c.Name {
		case "esr_commits_total":
			get(site).commits += c.Value
		case "esr_site_applied_total":
			get(site).applied += c.Value
		case "esr_site_holds_total":
			get(site).holds += c.Value
		case "esr_query_charged_total":
			get(site).charged += c.Value
		case "esr_query_fallback_total":
			get(site).fallback += c.Value
		case "esr_compensations_total":
			get(site).compensate += c.Value
		case "esr_read_delayed_total":
			get(site).delayed += c.Value // summed across levels
		}
	}
	for _, g := range snap.Gauges {
		site := g.Labels["site"]
		if site == "" {
			continue
		}
		switch g.Name {
		case "esr_queue_depth":
			get(site).depth += g.Value
		case "esr_epsilon_budget":
			r := get(site)
			if !r.hasEps || g.Value != 0 {
				r.eps, r.hasEps = g.Value, true
			}
		case "esr_watermark":
			r := get(site)
			if g.Value > r.watermark {
				r.watermark, r.hasWater = g.Value, true
			}
		case "esr_safetime":
			r := get(site)
			if g.Value > r.safetime {
				r.safetime = g.Value
			}
		case "esr_read_staleness_max_nanos":
			r := get(site)
			if v := g.Value * 1e-9; v > r.staleMax { // gauge exports nanoseconds
				r.staleMax = v
			}
		}
	}
	for _, h := range snap.Histograms {
		if h.Name != "esr_propagation_lag_seconds" {
			continue
		}
		site := h.Labels["site"]
		if site == "" || h.Count == 0 {
			continue
		}
		r := get(site)
		r.p50, r.p95, r.p99 = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	}

	cur := sums(snap)
	where := t.nodes[0].addr
	if len(t.nodes) > 1 {
		where = fmt.Sprintf("%d/%d nodes", up, len(t.nodes))
	}
	fmt.Fprintf(b, "esrtop — %s  method=%s  series=%d  %s\n",
		where, orDash(method), snap.NumSeries(), now.Format("15:04:05"))
	fmt.Fprintf(b, "cluster  commit/s %7.1f   apply/s %7.1f   net %s/s   lost/s %.1f\n\n",
		t.rate("esr_commits_total", cur, now),
		t.rate("esr_site_applied_total", cur, now),
		bytesUnit(t.rate("esr_net_bytes_total", cur, now)),
		t.rate("esr_net_lost_total", cur, now))

	names := make([]string, 0, len(sites))
	for s := range sites {
		names = append(names, s)
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := strconv.Atoi(names[i])
		c, _ := strconv.Atoi(names[j])
		return a < c
	})
	fmt.Fprintf(b, "%-5s %9s %9s %7s %7s %9s %9s %9s %7s %9s %11s %8s %6s %9s %7s\n",
		"site", "commits", "applied", "holds", "depth", "lag-p50", "lag-p95", "lag-p99", "ε-left", "q-charged", "q-fallback",
		"wmark", "safe-Δ", "stale-max", "rd-park")
	for _, s := range names {
		r := sites[s]
		eps := "-"
		if r.hasEps {
			if r.eps < 0 {
				eps = "∞"
			} else {
				eps = strconv.FormatInt(int64(r.eps), 10)
			}
		}
		// wmark is the newest applied logical time; safe-Δ is how many
		// logical ticks SAFETIME trails it (0 = no accepted-unapplied
		// window, reads at every level see the same frontier).
		wmark, safeGap := "-", "-"
		if r.hasWater {
			wmark = strconv.FormatInt(int64(r.watermark), 10)
			safeGap = strconv.FormatInt(int64(r.watermark-r.safetime), 10)
		}
		fmt.Fprintf(b, "%-5s %9.0f %9.0f %7.0f %7.0f %9s %9s %9s %7s %9.0f %11.0f %8s %6s %9s %7.0f\n",
			s, r.commits, r.applied, r.holds, r.depth,
			secUnit(r.p50), secUnit(r.p95), secUnit(r.p99), eps, r.charged, r.fallback,
			wmark, safeGap, secUnit(r.staleMax), r.delayed)
	}
	if c := cur["esr_compensations_total"]; c > 0 {
		fmt.Fprintf(b, "\ncompensations %d (backward recovery applied)\n", int64(c))
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// secUnit renders a lag bound in a human unit; histogram buckets are
// powers of two so precision beyond two digits is noise.
func secUnit(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v < 1e-3:
		return fmt.Sprintf("%.0fµs", v*1e6)
	case v < 1:
		return fmt.Sprintf("%.1fms", v*1e3)
	default:
		return fmt.Sprintf("%.2fs", v)
	}
}

func durUnit(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return secUnit(d.Seconds())
}

func bytesUnit(v float64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%.1fMiB", v/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", v/(1<<10))
	default:
		return fmt.Sprintf("%.0fB", v)
	}
}
