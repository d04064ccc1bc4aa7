// Durable replica state: term, vote and watermark, the three promises a
// sequencer replica must not forget across kill -9.  Each change appends
// one record to a queue.Log with one fsync; once the log outgrows its
// bound, the change is saved by compacting the log down to that one
// record (temp write, fsync, rename, directory fsync).  Loading keeps
// the last record, so a torn final append loses nothing but the
// unacknowledged change itself.
package seqrep

import (
	"fmt"
	"path/filepath"

	"esr/internal/clock"
	"esr/internal/queue"
)

// stateRec is one persisted snapshot of the replica's promises.
type stateRec struct {
	term      uint64
	votedFor  uint64
	watermark uint64
}

// stateVersion guards the record layout: a version byte plus three
// uint64s.
const stateVersion = 1

// compactAt is the log size past which save rewrites the log down to
// one record.
const compactAt = 64 << 10

// statePath names one replica's per-shard state file.  Shard 0 keeps
// the pre-sharding name so single-shard ensembles recover state written
// before sharding existed.
func statePath(dir string, id clock.SiteID, shard int) string {
	if shard == 0 {
		return filepath.Join(dir, fmt.Sprintf("seqrep-%d.state", id))
	}
	return filepath.Join(dir, fmt.Sprintf("seqrep-%d-s%d.state", id, shard))
}

// openState opens (creating if absent) the replica's state file and
// returns its last record.
func openState(dir string, id clock.SiteID, shard int) (*queue.Log, stateRec, error) {
	var rec stateRec
	l, err := queue.OpenLog(statePath(dir, id, shard), 0, func(body []byte) error {
		if len(body) != 1+3*8 || body[0] != stateVersion {
			return fmt.Errorf("state record of %d bytes is not version %d", len(body), stateVersion)
		}
		rec = stateRec{
			term:      getU64(body[1:]),
			votedFor:  getU64(body[9:]),
			watermark: getU64(body[17:]),
		}
		return nil
	})
	if err != nil {
		return nil, stateRec{}, fmt.Errorf("seqrep: open state: %w", err)
	}
	return l, rec, nil
}

// saveState makes the record durable in the state log.  Failures panic:
// a replica that cannot persist its promises must not keep making them
// (continuing could grant two votes in one term after a restart,
// breaking the no-duplicate-run guarantee).
func saveState(l *queue.Log, rec stateRec) {
	buf := make([]byte, 1+3*8)
	buf[0] = stateVersion
	putU64(buf[1:], rec.term)
	putU64(buf[9:], rec.votedFor)
	putU64(buf[17:], rec.watermark)
	var err error
	if l.Size() >= compactAt {
		err = l.Compact(buf)
	} else {
		err = l.Append(true, buf)
	}
	if err != nil {
		panic(fmt.Sprintf("seqrep: persist state: %v", err))
	}
}
