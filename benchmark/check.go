package main

import (
	"fmt"
	"sort"

	"esr/internal/op"
)

// oracle is the correctness check run after every workload's final
// drain.  It returns one line per violation (capped) and the number of
// violations, which also count into the run's failed ops.
//
//  1. Convergence: the three sites' stores hold the same keys with
//     equal values.
//  2. No acknowledged write lost, none applied twice: on the Inc-only
//     workloads every key's value equals the sum of the acknowledged,
//     non-aborted increments to it; on the blind-write workload every
//     key's value is the last acknowledged write to it (each key has a
//     single writer, and every write carries a unique value).
//  3. Every probe is visible everywhere: probe keys are part of (2), and
//     the observer reports any it watched in vain.
//
// The per-read checks (level echoed, Inconsistency ≤ ε, session reads
// return the session's own write) run inline in the reader.
func (r *run) oracle() (lines []string, n uint64) {
	report := func(format string, args ...any) {
		n++
		if len(lines) < 20 {
			lines = append(lines, fmt.Sprintf(format, args...))
		}
	}
	snaps := make([]map[string]op.Value, numSites+1)
	for i := 1; i <= numSites; i++ {
		snaps[i] = r.sys.sites[i].Store.Snapshot()
	}
	for i := 2; i <= numSites; i++ {
		if len(snaps[i]) != len(snaps[1]) {
			report("site %d holds %d keys, site 1 holds %d", i, len(snaps[i]), len(snaps[1]))
		}
		for k, v := range snaps[1] {
			if u, ok := snaps[i][k]; !ok || !u.Equal(v) {
				report("key %s: site 1 has %v, site %d has %v (present=%v)", k, v, i, u, ok)
			}
		}
	}

	want := r.expected()
	for k, w := range want {
		if got := snaps[1][k]; got.Num != w {
			report("key %s: converged to %d, acknowledged history gives %d", k, got.Num, w)
		}
	}
	if r.w.incOnly {
		// A key outside the acknowledged history can exist (an aborted or
		// failed ET created it) but must hold zero.
		for k, v := range snaps[1] {
			if _, ok := want[k]; !ok && v.Num != 0 {
				report("key %s: holds %d but no acknowledged update touched it", k, v.Num)
			}
		}
	}
	if r.obs.lost > 0 {
		report("%d probe(s) never became visible at both other sites", r.obs.lost)
	}
	for _, c := range r.clients {
		// The reader already counted these as failed ops.
		for _, v := range c.violations {
			lines = append(lines, fmt.Sprintf("client %d: %s", c.id, v))
		}
	}
	sort.Strings(lines)
	return lines, n
}

// expected replays every client's acknowledged history (warm-up
// included — the stores have seen it all) into the value each touched
// key must have converged to.
func (r *run) expected() map[string]int64 {
	want := make(map[string]int64)
	for i := 0; i < r.w.preloaded; i++ {
		want[r.ks.name(uint64(i))] = preloadValue
	}
	for _, c := range r.clients {
		if c.pool != nil {
			skip := make(map[int]bool, len(c.failedIdx))
			for _, j := range c.failedIdx {
				skip[j] = true
			}
			kept := make(map[int]bool, len(c.keptIdx))
			for _, j := range c.keptIdx {
				kept[j] = true
			}
			for j := 0; j < c.issued; j++ {
				if skip[j] || (r.w.aborts && isAbort(j) && !kept[j]) {
					continue
				}
				ops, _ := c.etAt(j)
				for _, o := range ops {
					if r.w.incOnly {
						want[o.Object] += o.Arg
					} else {
						want[o.Object] = o.Arg
					}
				}
			}
		}
		for _, w := range c.sessWrites {
			want[w.key] = w.val
		}
	}
	return want
}
