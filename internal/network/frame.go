package network

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"esr/internal/clock"
)

// Wire format of the TCP transport.  Every frame starts with a single
// codec-version byte so that a codec change never crashes a peer: an
// unknown version is a typed, recognizable error, not a misparsed
// length.
//
//	offset  size  field
//	0       1     codec version (3)
//	1       4     big-endian length of everything after this field
//	5       1     frame kind (send / call / batch / resp)
//	6       8     big-endian request id (matches responses to requests)
//	14      8     big-endian origin site id
//	22      8     big-endian destination site id
//	30      8     big-endian trace origin site id (0 = untraced)
//	38      8     big-endian MSet message identity (0 for batch/resp)
//	46      8     big-endian causal (Lamport) stamp
//	54      2     big-endian ordering-shard index
//	56      —     body
//
// Body by kind:
//
//	send, call:  the payload bytes, verbatim
//	batch:       uint32 message count, then per message uint64 MSet
//	             identity + uint32 length + bytes (the SendBatch
//	             framing: one frame per batch)
//	resp:        1 status byte, then the response payload (ok) or the
//	             error text (all failure codes)
//
// Versions 1 (no trace context) and 2 (no ordering shard) are retired:
// no peer emits them, and decoding them returns *CodecVersionError like
// any other unknown version.

// CodecVersion is the wire-format version this build speaks.  It is
// the first byte of every frame.
const CodecVersion = 3

// Frame kinds.
const (
	frameSend  = byte(1) // one-way message, acked by an empty resp
	frameCall  = byte(2) // round trip, resp carries the handler's reply
	frameBatch = byte(3) // whole SendBatch frame, acked by one resp
	frameResp  = byte(4) // response to any of the above
)

// Response status codes.  Non-OK codes map back to the package's
// sentinel errors on the sender, so errors.Is behaves identically over
// the simulator and over TCP.
const (
	respOK          = byte(0)
	respErr         = byte(1) // handler (application) error; body is the text
	respUnknownSite = byte(2)
	respSiteDown    = byte(3)
	respPartitioned = byte(4)
)

// frameHeaderLen is the byte length of the header (version through
// ordering shard).
const frameHeaderLen = 1 + 4 + 1 + 8 + 8 + 8 + 8 + 8 + 8 + 2

// maxFrameLen bounds a frame's post-length size: a garbage or hostile
// length prefix must not become a multi-gigabyte allocation.
const maxFrameLen = 64 << 20

// CodecVersionError reports a frame whose leading version byte is not a
// codec this build understands.  The connection carrying it is closed
// (framing cannot be trusted past an unknown codec); the sender's
// in-flight operations fail and retry through the stable queues.
type CodecVersionError struct {
	// Got is the version byte received.
	Got byte
}

func (e *CodecVersionError) Error() string {
	return fmt.Sprintf("network: unknown codec version %d (this build speaks %d)", e.Got, CodecVersion)
}

// TraceContext is the causal attribution every frame carries: which
// update (origin site + MSet message identity) caused this network
// activity, and the sender's causal stamp at send time.  The receiver
// merges Stamp into its trace ring so downstream events order after
// the sender's.  The zero value means "untraced".
type TraceContext struct {
	// Origin is the site whose update caused this traffic.
	Origin clock.SiteID
	// MSet is the message identity of the update (0 when the frame
	// carries many — batches list per-message identities in the body —
	// or none).
	MSet uint64
	// Stamp is the sender's causal (Lamport) stamp at send time.
	Stamp uint64
	// Shard is the ordering shard this traffic belongs to.
	Shard int
}

// frame is one decoded wire frame.  body aliases the read buffer and is
// only valid until the next read on the same connection, except where
// noted (payloads handed to handlers are copied by the decoder).
type frame struct {
	kind     byte
	req      uint64
	from, to clock.SiteID
	tc       TraceContext
	body     []byte
}

// frameBufPool recycles frame encode/decode buffers; frames are built
// and parsed on the hot path of every remote delivery.
var frameBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// getFrameBuf returns a pooled, zero-length buffer.
func getFrameBuf() *[]byte {
	b := frameBufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

// putFrameBuf returns a buffer to the pool.  Oversized buffers (from a
// one-off huge frame) are dropped so the pool keeps its working-set
// footprint.
func putFrameBuf(b *[]byte) {
	if cap(*b) <= 1<<20 {
		frameBufPool.Put(b)
	}
}

// appendFrameHeader appends the fixed header (including the trace
// context and ordering shard) with a zero length field; finishFrame
// patches the length once the body is in place.
func appendFrameHeader(dst []byte, kind byte, req uint64, from, to clock.SiteID, tc TraceContext) []byte {
	dst = append(dst, CodecVersion)
	dst = append(dst, 0, 0, 0, 0) // length, patched by finishFrame
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, req)
	dst = binary.BigEndian.AppendUint64(dst, uint64(from))
	dst = binary.BigEndian.AppendUint64(dst, uint64(to))
	dst = binary.BigEndian.AppendUint64(dst, uint64(tc.Origin))
	dst = binary.BigEndian.AppendUint64(dst, tc.MSet)
	dst = binary.BigEndian.AppendUint64(dst, tc.Stamp)
	dst = binary.BigEndian.AppendUint16(dst, uint16(tc.Shard))
	return dst
}

// finishFrame patches the length field of the frame that starts at
// offset start in dst.
func finishFrame(dst []byte, start int) {
	binary.BigEndian.PutUint32(dst[start+1:start+5], uint32(len(dst)-start-5))
}

// appendBatchBody appends the SendBatch body: message count, then
// per message its MSet identity + length-prefixed payload.  ids may be
// nil (untraced batch: identities are written as zero) but otherwise
// must match payloads in length.
func appendBatchBody(dst []byte, payloads [][]byte, ids []uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payloads)))
	for i, p := range payloads {
		var id uint64
		if i < len(ids) {
			id = ids[i]
		}
		dst = binary.BigEndian.AppendUint64(dst, id)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// splitBatchBody decodes a batch body into its payload slices and
// per-message MSet identities.  The returned payload slices alias body.
func splitBatchBody(body []byte) ([][]byte, []uint64, error) {
	if len(body) < 4 {
		return nil, nil, fmt.Errorf("network: batch frame truncated (%d bytes)", len(body))
	}
	n := binary.BigEndian.Uint32(body)
	body = body[4:]
	if n > maxFrameLen/4 {
		return nil, nil, fmt.Errorf("network: batch frame claims %d messages", n)
	}
	out := make([][]byte, 0, n)
	ids := make([]uint64, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(body) < 8 {
			return nil, nil, fmt.Errorf("network: batch frame truncated at message %d identity", i)
		}
		ids = append(ids, binary.BigEndian.Uint64(body))
		body = body[8:]
		if len(body) < 4 {
			return nil, nil, fmt.Errorf("network: batch frame truncated at message %d", i)
		}
		l := binary.BigEndian.Uint32(body)
		body = body[4:]
		if uint32(len(body)) < l {
			return nil, nil, fmt.Errorf("network: batch frame truncated at message %d payload", i)
		}
		out = append(out, body[:l:l])
		body = body[l:]
	}
	if len(body) != 0 {
		return nil, nil, fmt.Errorf("network: batch frame has %d trailing bytes", len(body))
	}
	return out, ids, nil
}

// readFrame reads one frame from r.  A leading version byte other than
// CodecVersion returns *CodecVersionError; the caller must close the
// connection (the framing beyond an unknown codec cannot be trusted).
// The returned frame's body is freshly allocated and safe to retain.
func readFrame(r io.Reader) (frame, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return frame{}, err
	}
	if hdr[0] != CodecVersion {
		return frame{}, &CodecVersionError{Got: hdr[0]}
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return frame{}, fmt.Errorf("network: short frame header: %w", err)
	}
	length := binary.BigEndian.Uint32(hdr[1:5])
	if length < frameHeaderLen-5 {
		return frame{}, fmt.Errorf("network: frame length %d shorter than header", length)
	}
	if length > maxFrameLen {
		return frame{}, fmt.Errorf("network: frame length %d exceeds limit %d", length, maxFrameLen)
	}
	f := frame{
		kind: hdr[5],
		req:  binary.BigEndian.Uint64(hdr[6:14]),
		from: clock.SiteID(binary.BigEndian.Uint64(hdr[14:22])),
		to:   clock.SiteID(binary.BigEndian.Uint64(hdr[22:30])),
		tc: TraceContext{
			Origin: clock.SiteID(binary.BigEndian.Uint64(hdr[30:38])),
			MSet:   binary.BigEndian.Uint64(hdr[38:46]),
			Stamp:  binary.BigEndian.Uint64(hdr[46:54]),
			Shard:  int(binary.BigEndian.Uint16(hdr[54:56])),
		},
	}
	if bodyLen := int(length) - (frameHeaderLen - 5); bodyLen > 0 {
		f.body = make([]byte, bodyLen)
		if _, err := io.ReadFull(r, f.body); err != nil {
			return frame{}, fmt.Errorf("network: short frame body: %w", err)
		}
	}
	return f, nil
}

// respError converts a non-OK response status + body into the sender's
// error, mapping wire codes back to the package sentinels.
func respError(status byte, body []byte) error {
	switch status {
	case respUnknownSite:
		return fmt.Errorf("%w: %s", ErrUnknownSite, body)
	case respSiteDown:
		return ErrSiteDown
	case respPartitioned:
		return ErrPartitioned
	default:
		return &RemoteError{Msg: string(body)}
	}
}
