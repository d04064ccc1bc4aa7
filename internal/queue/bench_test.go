package queue

import (
	"fmt"
	"path/filepath"
	"testing"
)

// BenchmarkPipeline measures the enqueue→deliver→ack pipeline of the
// file-backed queue at several batch sizes.  It reports fsyncs/op so the
// group-commit win is visible next to the throughput number.
func BenchmarkPipeline(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			q, err := Open(filepath.Join(b.TempDir(), "q.journal"))
			if err != nil {
				b.Fatal(err)
			}
			defer q.Close()
			msgs := make([]Message, batch)
			b.ResetTimer()
			var id uint64
			for i := 0; i < b.N; i += batch {
				for j := range msgs {
					id++
					msgs[j] = Message{ID: id, Payload: []byte("0123456789abcdef")}
				}
				if err := q.EnqueueBatch(msgs); err != nil {
					b.Fatal(err)
				}
				got, err := q.PeekN(batch)
				if err != nil {
					b.Fatal(err)
				}
				ids := make([]uint64, len(got))
				for j, m := range got {
					ids[j] = m.ID
				}
				if err := q.AckBatch(ids); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(q.Syncs())/float64(b.N), "fsyncs/op")
		})
	}
}

// BenchmarkGroupCommitContention measures concurrent single-message
// enqueues with group commit coalescing the fsyncs across goroutines.
func BenchmarkGroupCommitContention(b *testing.B) {
	q, err := Open(filepath.Join(b.TempDir(), "q.journal"))
	if err != nil {
		b.Fatal(err)
	}
	defer q.Close()
	var id uint64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// ID collisions across goroutines are fine for throughput
			// purposes; dedup work is part of the measured path.
			id++
			q.Enqueue(Message{ID: id, Payload: []byte("0123456789abcdef")})
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(q.Syncs())/float64(b.N), "fsyncs/op")
}
