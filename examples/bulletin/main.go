// Bulletin board: RITU multi-version reads with VTNC visibility.
//
// Run with:
//
//	go run ./examples/bulletin
//
// Posts are blind timestamped writes (§3.3): each edit of a post simply
// installs a new immutable version, independent of the previous value,
// so updates propagate asynchronously in any order.  Readers choose
// their consistency:
//
//   - ε = 0 readers see only versions at or below the VTNC — a stable,
//     serializable snapshot of the board;
//   - ε ≥ 1 readers may take newer, not-yet-stable versions, paying one
//     inconsistency unit per fresh read.
package main

import (
	"fmt"
	"log"
	"time"

	"esr"
	"esr/internal/ritu"
)

func main() {
	cluster, err := esr.Open(esr.Config{
		Replicas:   3,
		Method:     esr.RITUMultiVersion,
		Seed:       3,
		MinLatency: 2 * time.Millisecond,
		MaxLatency: 6 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	// Post three revisions of an announcement from different sites.
	revisions := []int64{100, 200, 300}
	for i, rev := range revisions {
		if _, err := cluster.Update(i+1, esr.Write("post/announcement", rev)); err != nil {
			log.Fatal(err)
		}
	}
	if err := cluster.Quiesce(30 * time.Second); err != nil {
		log.Fatal(err)
	}

	// All revisions are now stable; inspect the version chain.
	re := cluster.Engine().(*ritu.Engine)
	site := cluster.Engine().Cluster().Site(2)
	fmt.Println("version chain at site 2 (all replicas hold the identical chain):")
	for _, v := range site.Store.Versions("post/announcement") {
		fmt.Printf("  ts=%v  revision=%v\n", v.TS, v.Val)
	}
	fmt.Println("VTNC:", re.VTNC())

	// A new revision while site 3 is unreachable: it cannot stabilize,
	// so the VTNC stays behind it.
	cluster.Partition([]int{1, 2}, []int{3})
	if _, err := cluster.Update(1, esr.Write("post/announcement", 400)); err != nil {
		log.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let it install locally

	stable, err := cluster.Query(1, []string{"post/announcement"}, esr.Epsilon(0))
	if err != nil {
		log.Fatal(err)
	}
	fresh, err := cluster.Query(1, []string{"post/announcement"}, esr.Epsilon(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ε=0 reader sees revision %v (stable snapshot, inconsistency %d)\n",
		stable.Value("post/announcement"), stable.Inconsistency)
	fmt.Printf("ε=1 reader sees revision %v (fresh, paid %d inconsistency unit)\n",
		fresh.Value("post/announcement"), fresh.Inconsistency)

	// Heal: the revision reaches site 3, stabilizes, and becomes free to
	// read for everyone.
	cluster.Heal()
	if err := cluster.Quiesce(30 * time.Second); err != nil {
		log.Fatal(err)
	}
	after, err := cluster.Query(3, []string{"post/announcement"}, esr.Epsilon(0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after heal, ε=0 reader at site 3 sees revision %v (inconsistency %d)\n",
		after.Value("post/announcement"), after.Inconsistency)

	// Old versions below the VTNC can be garbage collected.
	collected := re.GC()
	fmt.Printf("garbage-collected %d obsolete versions across the cluster\n", collected)
}
