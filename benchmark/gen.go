package main

import (
	"math/rand"
	"strconv"

	"esr/internal/op"
)

// keyspace names keys lazily: "k" plus the key number, built once per
// key that is actually drawn and shared by every op that uses it, so
// the timed window never formats a string.
type keyspace struct {
	names []string
}

func newKeyspace(n int) *keyspace { return &keyspace{names: make([]string, n)} }

func (k *keyspace) name(i uint64) string {
	if k.names[i] == "" {
		k.names[i] = "k" + strconv.FormatUint(i, 10)
	}
	return k.names[i]
}

// drawer draws key numbers below n: zipf with the given exponent when
// s > 1, uniform when s == 0.
type drawer struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	n    uint64
}

func newDrawer(rng *rand.Rand, s float64, n int) *drawer {
	d := &drawer{rng: rng, n: uint64(n)}
	if s > 1 {
		d.zipf = rand.NewZipf(rng, s, 1, uint64(n-1))
	}
	return d
}

func (d *drawer) next() uint64 {
	if d.zipf != nil {
		return d.zipf.Uint64()
	}
	return uint64(d.rng.Int63n(int64(d.n)))
}

// clientRNG derives one client's random source from the run seed, so
// the same seed gives every client the same inputs on every commit.
func clientRNG(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + 1))
}

// etPool is one client's pre-generated update ETs.  Closed-loop clients
// cycle through ets (their op count is not known beforehand); probes is
// consumed linearly — probe keys are unique, so a probe is never
// reissued.
type etPool struct {
	ets    [][]op.Op
	probes [][]op.Op
}

// probeKey names the n-th probe of a client: a key no other op touches.
func probeKey(client, n int) string {
	return "p" + strconv.Itoa(client) + "_" + strconv.Itoa(n)
}

// genIncPool builds nETs ETs of opsPer Inc(key, 1) ops and nProbes probe
// ETs whose first op increments a unique probe key.
func genIncPool(rng *rand.Rand, ks *keyspace, d *drawer, client, nETs, nProbes, opsPer int) *etPool {
	p := &etPool{ets: make([][]op.Op, nETs), probes: make([][]op.Op, nProbes)}
	gen := func() []op.Op {
		ops := make([]op.Op, opsPer)
		for i := range ops {
			ops[i] = op.IncOp(ks.name(d.next()), 1)
		}
		return ops
	}
	for i := range p.ets {
		p.ets[i] = gen()
	}
	for i := range p.probes {
		ops := gen()
		ops[0] = op.IncOp(probeKey(client, i), 1)
		p.probes[i] = ops
	}
	return p
}

// genWritePool builds nETs single blind-write ETs; write i carries the
// value base+i+1, unique across the run, so the oracle can name the
// exact write a converged value came from.
func genWritePool(ks *keyspace, d *drawer, client, nETs, nProbes int, base int64) *etPool {
	p := &etPool{ets: make([][]op.Op, nETs), probes: make([][]op.Op, nProbes)}
	for i := range p.ets {
		p.ets[i] = []op.Op{op.WriteOp(ks.name(d.next()), base+int64(i)+1)}
	}
	for i := range p.probes {
		p.probes[i] = []op.Op{op.WriteOp(probeKey(client, i), 1)}
	}
	return p
}

// genReadKeys draws n single-key read sets (cycled by the reader).
func genReadKeys(ks *keyspace, d *drawer, n, keysPer int) [][]string {
	out := make([][]string, n)
	for i := range out {
		keys := make([]string, keysPer)
		for j := range keys {
			keys[j] = ks.name(d.next())
		}
		out[i] = keys
	}
	return out
}
