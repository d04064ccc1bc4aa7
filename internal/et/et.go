// Package et defines epsilon-transactions (ETs) and the message sets
// (MSets) that carry their effects between replica sites.
//
// "At each site, an ET is represented by a message set or MSet.  Query
// ETs use query MSets to read the values of an object's copy.  An update
// MSet is a set of replica maintenance operations which propagates
// updates to object replicas." (§2.2)
//
// ETs are the high-level interface through which applications obtain ESR
// without referring to the theory: an update ET is executed at its origin
// and its MSet is propagated asynchronously through stable queues; a
// query ET reads local replicas under an ε budget.
//
// # Wire layout
//
// Encode writes one fixed binary layout, and every layer that carries an
// MSet — network frames, stable-queue journals, WAL bodies, cross-shard
// decision records, catch-up snapshots — carries these bytes as they are:
//
//	version    1 byte, 0x81
//	ET         uvarint
//	Seq        uvarint
//	SeqFloor   uvarint
//	Target     uvarint
//	TS.Time    uvarint
//	Origin     zigzag varint
//	Shard      zigzag varint
//	TS.Site    zigzag varint
//	flags      1 byte: bit 0 Compensation, the rest zero
//	op count   uvarint
//	per op:    Kind (zigzag), Object (uvarint length + bytes),
//	           Arg (zigzag), Str (uvarint length + bytes),
//	           TS.Time (uvarint), TS.Site (zigzag)
//
// The encoding has no field names and no type descriptors: a one-op
// MSet is a few dozen bytes.
package et

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"time"

	"esr/internal/clock"
	"esr/internal/consistency"
	"esr/internal/divergence"
	"esr/internal/op"
)

// MaxShards bounds the number of ordering domains a cluster may carve
// the keyspace into: shard identities ride in four bits of every message
// identity (see MSet.MsgID), so they must fit in 0..15.
const MaxShards = 16

// ShardOf maps an object to its ordering domain under n shards, with the
// same FNV-1a hash the store stripes use, so an object's shard is stable
// across every layer that partitions by key.
// n <= 1 collapses to the single unsharded domain.
func ShardOf(object string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(object))
	return int(h.Sum32() % uint32(n))
}

// shardShift places the shard identity in bits 59..62 of a message ID:
// above every origin-site bit an ET ID can carry (virtual sites stay
// below 2^11, occupying bits 48..58) and below the compensation bit 63.
const shardShift = 59

// MsgShard extracts the ordering domain from a message identity minted
// by MSet.MsgID.  Unsharded clusters stamp shard 0 everywhere, so the
// extraction is the identity there.
func MsgShard(id uint64) int { return int((id >> shardShift) & (MaxShards - 1)) }

// ID identifies an epsilon-transaction system-wide.  The origin site's
// identifier is folded in so IDs issued by different sites never collide.
type ID uint64

// MakeID builds a system-wide unique ET ID from an origin site and a
// site-local counter value.
func MakeID(origin clock.SiteID, local uint64) ID {
	return ID(uint64(origin)<<48 | (local & (1<<48 - 1)))
}

// Origin extracts the origin site from an ID.
func (id ID) Origin() clock.SiteID { return clock.SiteID(uint64(id) >> 48) }

// Local extracts the site-local counter part of an ID.  Cold recovery
// uses it to restart a site's ET counter past every ID it ever issued.
func (id ID) Local() uint64 { return uint64(id) & (1<<48 - 1) }

// gapBit marks the ID range reserved for gap-fill MSets: bit 46 of the
// site-local counter.  Ordinary ET counters count up from zero and
// never plausibly reach 2^46, so the two ranges cannot collide.
const gapBit = uint64(1) << 46

// MakeGapID builds the deterministic ET ID of the gap-fill MSet for one
// sequence number.  Determinism is the point: if two recoveries (or a
// recovery racing a stalled-site skip) both fill the same gap, the
// MSets carry the same identity and stable-queue dedup collapses them.
func MakeGapID(origin clock.SiteID, seq uint64) ID {
	return MakeID(origin, gapBit|(seq&(gapBit-1)))
}

// IsGap reports whether the ID lies in the gap-fill range.
func (id ID) IsGap() bool { return uint64(id)&gapBit != 0 }

// snapBit marks the ID range reserved for catch-up snapshot MSets: bit
// 45 of the site-local counter.  Disjoint from both ordinary counters
// and the gap-fill range.
const snapBit = uint64(1) << 45

// MakeSnapID builds the ET ID of a catch-up snapshot MSet installing
// state through the given sequence number at the given site.
func MakeSnapID(site clock.SiteID, seq uint64) ID {
	return MakeID(site, snapBit|(seq&(snapBit-1)))
}

// IsSnap reports whether the ID lies in the catch-up snapshot range.
func (id ID) IsSnap() bool {
	return uint64(id)&snapBit != 0 && uint64(id)&gapBit == 0
}

// String implements fmt.Stringer.
func (id ID) String() string {
	return fmt.Sprintf("et%d.%d", uint64(id)>>48, uint64(id)&(1<<48-1))
}

// Class distinguishes query ETs from update ETs (§2.1).
type Class int

const (
	// Query is an ET containing only reads.
	Query Class = iota
	// Update is an ET containing at least one write.
	Update
)

// Classify returns Update if any operation mutates state, else Query.
func Classify(ops []op.Op) Class {
	for _, o := range ops {
		if o.Kind.IsUpdate() {
			return Update
		}
	}
	return Query
}

// MSet is the unit of asynchronous propagation: the replica-maintenance
// operations of one update ET, destined for one replica site.
type MSet struct {
	// ET identifies the originating update ET.
	ET ID
	// Origin is the site at which the ET executed.
	Origin clock.SiteID
	// Seq is the global execution order for ORDUP (0 when the method
	// does not order MSets).
	Seq uint64
	// TS is the ET's logical timestamp (used by RITU and for Lamport
	// ordering).
	TS clock.Timestamp
	// Ops are the update operations to apply at the destination.
	Ops []op.Op
	// SeqFloor, when non-zero, is the origin's promise that it will
	// never broadcast an MSet with Seq below this value that it has not
	// already sent.  Over FIFO links this is the evidence ORDUP sites
	// use to skip permitted sequence gaps (runs reserved from the
	// replicated sequencer but never used): once every origin's floor
	// has passed a missing number and it has not arrived, it never will.
	SeqFloor uint64
	// Shard is the ordering domain the MSet belongs to (ShardOf over the
	// objects it updates).  Seq and SeqFloor are scoped to this shard's
	// sequence space; unsharded clusters leave it 0.  A cross-shard ET
	// splits into one MSet per shard sharing the same ET identity.
	Shard int
	// Compensation marks a compensation MSet issued by backward replica
	// control (§4.2).
	Compensation bool
	// Target optionally names the ET being compensated.
	Target ID
}

// MsgID derives the MSet's queue-unique message identity: the same MSet
// redelivered maps to the same ID (so stable-queue dedup holds across
// retries), and compensation MSets get a distinct high bit so they never
// collide with the forward MSet of the same ET.  The shard rides in bits
// 59..62, so the per-shard MSets of one cross-shard ET carry distinct
// identities (dedup, lag tracking and tracing all stay per-domain) and
// any consumer can recover the shard from the ID alone via MsgShard.
// Trace events and the propagation-lag tracker correlate on this ID.
func (m MSet) MsgID() uint64 {
	id := uint64(m.ET)
	id |= uint64(m.Shard&(MaxShards-1)) << shardShift
	if m.Compensation {
		id |= 1 << 63
	}
	return id
}

// msetVersion is the codec's leading byte.  It lies in 0x80..0xF7,
// where no gob stream can begin, so a record in the retired gob layout
// fails at its first byte.
const msetVersion = 0x81

// flagCompensation is the flags-byte bit for MSet.Compensation; every
// other bit must be clear.
const flagCompensation = 1

// minOpLen is the fewest bytes one encoded op occupies: six varints of
// one byte each.
const minOpLen = 6

// Encode serializes the MSet in the binary layout of the package
// comment, into one slice of exactly the encoded size.  The error is
// always nil; it stays for callers that treat encoding as fallible.
func (m MSet) Encode() ([]byte, error) {
	n := 2 + uvarintLen(uint64(m.ET)) + uvarintLen(m.Seq) + uvarintLen(m.SeqFloor) +
		uvarintLen(uint64(m.Target)) + uvarintLen(m.TS.Time) + varintLen(int64(m.Origin)) +
		varintLen(int64(m.Shard)) + varintLen(int64(m.TS.Site)) + uvarintLen(uint64(len(m.Ops)))
	for _, o := range m.Ops {
		n += varintLen(int64(o.Kind)) + uvarintLen(uint64(len(o.Object))) + len(o.Object) +
			varintLen(o.Arg) + uvarintLen(uint64(len(o.Str))) + len(o.Str) +
			uvarintLen(o.TS.Time) + varintLen(int64(o.TS.Site))
	}
	b := append(make([]byte, 0, n), msetVersion)
	for _, v := range []uint64{uint64(m.ET), m.Seq, m.SeqFloor, uint64(m.Target), m.TS.Time} {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.AppendVarint(b, int64(m.Origin))
	b = binary.AppendVarint(b, int64(m.Shard))
	b = binary.AppendVarint(b, int64(m.TS.Site))
	var flags byte
	if m.Compensation {
		flags = flagCompensation
	}
	b = binary.AppendUvarint(append(b, flags), uint64(len(m.Ops)))
	for _, o := range m.Ops {
		b = binary.AppendVarint(b, int64(o.Kind))
		b = append(binary.AppendUvarint(b, uint64(len(o.Object))), o.Object...)
		b = binary.AppendVarint(b, o.Arg)
		b = append(binary.AppendUvarint(b, uint64(len(o.Str))), o.Str...)
		b = binary.AppendVarint(binary.AppendUvarint(b, o.TS.Time), int64(o.TS.Site))
	}
	return b, nil
}

// DecodeMSet deserializes an MSet produced by Encode.  It checks every
// length and count against the bytes that remain and rejects unknown
// versions, flags and op kinds and trailing bytes; bad input is an
// error, never a panic.  The op strings share one copy of b.
func DecodeMSet(b []byte) (MSet, error) {
	if len(b) == 0 || b[0] != msetVersion {
		return MSet{}, errors.New("et: decode mset: unknown codec version")
	}
	r := reader{s: string(b), b: b[1:]}
	m := MSet{ET: ID(r.uvarint()), Seq: r.uvarint(), SeqFloor: r.uvarint(), Target: ID(r.uvarint())}
	m.TS.Time = r.uvarint()
	m.Origin = clock.SiteID(r.varint())
	m.Shard = int(r.varint())
	m.TS.Site = clock.SiteID(r.varint())
	flags := r.uvarint() // a valid flags value is one byte either way
	if flags&^flagCompensation != 0 {
		r.fail("unknown flags")
	}
	m.Compensation = flags&flagCompensation != 0
	if n := r.uvarint(); n > uint64(len(r.b)/minOpLen) {
		r.fail("op count exceeds the remaining bytes")
	} else if n > 0 {
		m.Ops = make([]op.Op, n)
	}
	for i := range m.Ops {
		o := &m.Ops[i]
		if o.Kind = op.Kind(r.varint()); o.Kind < op.Read || o.Kind > op.RemoveOne {
			r.fail("unknown op kind")
		}
		o.Object, o.Arg, o.Str = r.str(), r.varint(), r.str()
		o.TS.Time = r.uvarint()
		o.TS.Site = clock.SiteID(r.varint())
	}
	if r.err == nil && len(r.b) > 0 {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return MSet{}, r.err
	}
	return m, nil
}

// reader walks an encoded MSet.  The first failure sticks: it empties b,
// so every later read fails too and returns zero.
type reader struct {
	s   string // the whole encoding, for allocation-free substrings
	b   []byte // the bytes not yet read: the same bytes as s's tail
	err error
}

func (r *reader) fail(why string) {
	if r.err == nil {
		r.err = fmt.Errorf("et: decode mset at byte %d: %s", len(r.s)-len(r.b), why)
	}
	r.b = nil
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1) // zigzag, as binary.AppendVarint writes it
}

// str reads a length-prefixed string as a substring of the encoding.
func (r *reader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string length exceeds the remaining bytes")
	}
	if r.err != nil {
		return ""
	}
	off := len(r.s) - len(r.b)
	r.b = r.b[n:]
	return r.s[off : off+int(n)]
}

func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

// QueryResult is what a query ET returns to the application.
type QueryResult struct {
	// Values holds the value read for each requested object, keyed by
	// object name.
	Values map[string]op.Value
	// Inconsistency is the number of inconsistency units the query
	// imported (its final inconsistency-counter value).
	Inconsistency int
	// Epsilon is the limit the query ran under.
	Epsilon divergence.Limit
	// Site is where the query executed.
	Site clock.SiteID
	// Level is the consistency level the read ran at (bounded for
	// ε-queries; RITU-MV and basic-TO queries leave it zero).
	Level consistency.Level
	// SnapTS is the snapshot timestamp the read selected (zero for
	// eventual reads, clock.Latest for ε-queries of the newest local
	// state).
	SnapTS clock.Timestamp
	// Staleness is the site's wall-clock replica staleness observed at
	// read time (age of the oldest accepted-but-unapplied update).
	Staleness time.Duration
	// Waited is how long the read parked on the delayed-read gate.
	Waited time.Duration
}

// Value returns the value read for one object (zero Value if the object
// was not part of the query).
func (r QueryResult) Value(object string) op.Value {
	return r.Values[object]
}
