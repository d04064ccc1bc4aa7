package main

import (
	"math/bits"
	"time"
)

// hist is a fixed log-bucket latency histogram: 64 sub-buckets per
// power of two (1.6 % resolution), values in nanoseconds.  Recording is
// one array increment, so it is safe inside a timed loop; it is not
// safe for concurrent use — every client owns its own and the harness
// merges them after the window.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	max    uint64
}

// histBuckets covers values below 2^42 ns (73 minutes).
const histBuckets = (42 - 6 + 1) * 64

func bucketOf(v uint64) int {
	if v < 128 {
		return int(v)
	}
	e := bits.Len64(v) - 7
	i := (e+1)*64 + int(v>>uint(e)) - 64
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBounds returns the lowest value of bucket i and its width.
func bucketBounds(i int) (low, width float64) {
	if i < 128 {
		return float64(i), 1
	}
	e := uint(i/64 - 1)
	return float64(uint64(i%64+64) << e), float64(uint64(1) << e)
}

func (h *hist) record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated inside
// its bucket so that the reported figure moves continuously with the
// data rather than snapping to bucket edges.  Zero when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			low, width := bucketBounds(i)
			return low + width*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// mean returns the exact mean in nanoseconds.
func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}
