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
//	0       1     codec version (4)
//	1       4     big-endian length of everything after this field
//	5       1     frame kind (call / batch / resp)
//	6       8     big-endian request id (matches responses to requests)
//	14      8     big-endian origin site id
//	22      8     big-endian destination site id
//	30      8     big-endian causal (Lamport) stamp of the sender's ring
//	38      —     body
//
// Body by kind:
//
//	call:   the payload bytes, verbatim
//	batch:  uint32 message count, then per message uint32 length +
//	        bytes (one frame per SendBatch; a single message is a batch
//	        of one)
//	resp:   1 status byte, then the response payload (ok) or the error
//	        text (all failure codes)
//
// Versions 1 (no trace context), 2 (no ordering shard) and 3 (trace
// origin, MSet identity and shard in the header, identities in batch
// bodies) are retired: no peer emits them, and decoding them returns
// *CodecVersionError like any other unknown version.

// CodecVersion is the wire-format version this build speaks.  It is
// the first byte of every frame.
const CodecVersion = 4

// Frame kinds.
const (
	frameCall  = byte(2) // round trip, resp carries the handler's reply
	frameBatch = byte(3) // whole SendBatch frame, acked by one resp
	frameResp  = byte(4) // response to either of the above
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
// stamp).
const frameHeaderLen = 1 + 4 + 1 + 8 + 8 + 8 + 8

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

// frame is one decoded wire frame.  Its body is freshly allocated by
// readFrame and safe to retain.
type frame struct {
	kind     byte
	req      uint64
	from, to clock.SiteID
	stamp    uint64 // the sender's causal stamp; 0 when it traces nothing
	body     []byte
}

// frameBufPool recycles frame encode buffers; frames are built on the
// hot path of every remote delivery.
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

// appendFrameHeader appends the fixed header with a zero length field;
// finishFrame patches the length once the body is in place.
func appendFrameHeader(dst []byte, kind byte, req uint64, from, to clock.SiteID, stamp uint64) []byte {
	dst = append(dst, CodecVersion)
	dst = append(dst, 0, 0, 0, 0) // length, patched by finishFrame
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, req)
	dst = binary.BigEndian.AppendUint64(dst, uint64(from))
	dst = binary.BigEndian.AppendUint64(dst, uint64(to))
	return binary.BigEndian.AppendUint64(dst, stamp)
}

// finishFrame patches the length field of the frame that starts at
// offset start in dst.
func finishFrame(dst []byte, start int) {
	binary.BigEndian.PutUint32(dst[start+1:start+5], uint32(len(dst)-start-5))
}

// appendBatchBody appends the SendBatch body: message count, then the
// length-prefixed payloads.
func appendBatchBody(dst []byte, payloads [][]byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payloads)))
	for _, p := range payloads {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(p)))
		dst = append(dst, p...)
	}
	return dst
}

// splitBatchBody decodes a batch body into its payload slices, which
// alias body.  Every message costs at least its 4-byte length, so a
// count the body cannot hold is rejected before anything is allocated
// for it.
func splitBatchBody(body []byte) ([][]byte, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("network: batch frame truncated (%d bytes)", len(body))
	}
	n := binary.BigEndian.Uint32(body)
	body = body[4:]
	if uint64(n)*4 > uint64(len(body)) {
		return nil, fmt.Errorf("network: batch frame claims %d messages in %d bytes", n, len(body))
	}
	out := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		if len(body) < 4 {
			return nil, fmt.Errorf("network: batch frame truncated at message %d", i)
		}
		l := binary.BigEndian.Uint32(body)
		body = body[4:]
		if uint32(len(body)) < l {
			return nil, fmt.Errorf("network: batch frame truncated at message %d payload", i)
		}
		out = append(out, body[:l:l])
		body = body[l:]
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("network: batch frame has %d trailing bytes", len(body))
	}
	return out, nil
}

// readFrame reads one frame from r.  A leading version byte other than
// CodecVersion returns *CodecVersionError; the caller must close the
// connection (the framing beyond an unknown codec cannot be trusted).
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
		kind:  hdr[5],
		req:   binary.BigEndian.Uint64(hdr[6:14]),
		from:  clock.SiteID(binary.BigEndian.Uint64(hdr[14:22])),
		to:    clock.SiteID(binary.BigEndian.Uint64(hdr[22:30])),
		stamp: binary.BigEndian.Uint64(hdr[30:38]),
	}
	if n := int(length) - (frameHeaderLen - 5); n > 0 {
		// Grow the body as its bytes arrive, so a length prefix alone
		// costs no more memory than the bytes actually sent.
		f.body = make([]byte, 0, min(n, 64<<10))
		for len(f.body) < n {
			if len(f.body) == cap(f.body) {
				f.body = append(make([]byte, 0, min(n, 2*len(f.body))), f.body...)
			}
			if _, err := io.ReadFull(r, f.body[len(f.body):cap(f.body)]); err != nil {
				return frame{}, fmt.Errorf("network: short frame body: %w", err)
			}
			f.body = f.body[:cap(f.body)]
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
