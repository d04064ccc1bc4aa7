package network

// Codec tests: the wire format round-trips its header and batch body,
// and every other version byte, the retired v1, v2 and v3 included,
// surfaces the typed error.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/trace"
)

func TestFrameRoundTrip(t *testing.T) {
	b := appendFrameHeader(nil, frameCall, 7, 1, 2, 42)
	b = append(b, []byte("payload")...)
	finishFrame(b, 0)

	f, err := readFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if f.kind != frameCall || f.req != 7 || f.from != 1 || f.to != 2 || f.stamp != 42 {
		t.Errorf("frame = %+v", f)
	}
	if string(f.body) != "payload" {
		t.Errorf("body = %q", f.body)
	}
}

func TestBatchBodyRoundTrip(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte("bb"), []byte("")}
	got, err := splitBatchBody(appendBatchBody(nil, payloads))
	if err != nil {
		t.Fatalf("splitBatchBody: %v", err)
	}
	if len(got) != 3 || string(got[0]) != "a" || string(got[1]) != "bb" || len(got[2]) != 0 {
		t.Errorf("payloads = %q", got)
	}
	// A count the body cannot hold is refused, not allocated for.
	hostile := binary.BigEndian.AppendUint32(nil, 1<<30)
	if _, err := splitBatchBody(append(hostile, 0, 0, 0, 0)); err == nil {
		t.Error("splitBatchBody accepted 2^30 messages in 4 bytes")
	}
}

// appendFrameHeaderV1 hand-crafts the retired v1 layout (30-byte
// header, no trace context), as a v1 peer would emit it.
func appendFrameHeaderV1(dst []byte, kind byte, req uint64, from, to clock.SiteID) []byte {
	dst = append(dst, 1)
	dst = append(dst, 0, 0, 0, 0)
	dst = append(dst, kind)
	dst = binary.BigEndian.AppendUint64(dst, req)
	dst = binary.BigEndian.AppendUint64(dst, uint64(from))
	dst = binary.BigEndian.AppendUint64(dst, uint64(to))
	return dst
}

// TestFrameV1EndToEnd drives a hand-crafted v1 frame through a live
// server connection: the server drops the connection without running
// the handler.
func TestFrameV1EndToEnd(t *testing.T) {
	_, b := tcpPair(t)
	ran := make(chan struct{}, 1)
	b.Register(2, func(clock.SiteID, []byte) ([]byte, error) {
		ran <- struct{}{}
		return []byte("ack"), nil
	})
	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer raw.Close()
	fr := appendFrameHeaderV1(nil, frameCall, 1, 1, 2)
	fr = append(fr, []byte("legacy")...)
	finishFrame(fr, 0)
	if _, err := raw.Write(fr); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if resp, err := readFrame(raw); err == nil {
		t.Fatalf("v1 frame answered with %+v, want the connection dropped", resp)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server kept the connection open after a v1 frame")
	}
	select {
	case <-ran:
		t.Error("handler ran for a v1 frame")
	default:
	}
}

func TestFrameUnknownVersionTyped(t *testing.T) {
	// 1, 2 and 3 are the retired codecs; they are as unknown as any
	// other.
	for _, v := range []byte{0, 1, 2, 3, CodecVersion + 1, 0xff} {
		b := appendFrameHeader(nil, frameCall, 1, 1, 2, 0)
		finishFrame(b, 0)
		b[0] = v
		var cve *CodecVersionError
		if _, err := readFrame(bytes.NewReader(b)); !errors.As(err, &cve) {
			t.Fatalf("version %d: readFrame = %v, want *CodecVersionError", v, err)
		} else if cve.Got != v {
			t.Errorf("version %d: Got = %d", v, cve.Got)
		}
	}
}

// TestFrameV1BackwardCompatible pins what a retired v1 peer now gets:
// its send and batch frames, hand-crafted in the old 30-byte-header
// layout, are refused with the typed error instead of being misparsed
// as current frames.
func TestFrameV1BackwardCompatible(t *testing.T) {
	const v1Send = 1 // the retired one-way kind
	b := appendFrameHeaderV1(nil, v1Send, 9, 4, 5)
	b = append(b, []byte("old")...)
	finishFrame(b, 0)

	bb := appendFrameHeaderV1(nil, frameBatch, 10, 4, 5)
	bb = binary.BigEndian.AppendUint32(bb, 2)
	for _, p := range []string{"x", "yz"} {
		bb = binary.BigEndian.AppendUint32(bb, uint32(len(p)))
		bb = append(bb, p...)
	}
	finishFrame(bb, 0)

	for name, fr := range map[string][]byte{"send": b, "batch": bb} {
		var cve *CodecVersionError
		if f, err := readFrame(bytes.NewReader(fr)); !errors.As(err, &cve) {
			t.Errorf("v1 %s frame: readFrame = %+v, %v; want *CodecVersionError", name, f, err)
		} else if cve.Got != 1 {
			t.Errorf("v1 %s frame: Got = %d, want 1", name, cve.Got)
		}
	}
}

// TestTracedSendPropagatesStamp pins the causal contract over real
// sockets: the receiver's ring observes a stamp at least as large as
// the sender's at send time, and net-send/net-recv spans land in the
// respective rings as infrastructure events (no MSet).
func TestTracedSendPropagatesStamp(t *testing.T) {
	a, b := tcpPair(t)
	ringA, ringB := trace.NewRing(64), trace.NewRing(64)
	a.SetTrace(ringA)
	b.SetTrace(ringB)
	b.Register(2, func(clock.SiteID, []byte) ([]byte, error) { return nil, nil })

	// Seed the sender's causal clock well past the receiver's.
	ringA.ObserveStamp(100)
	if err := a.SendBatch(1, 2, [][]byte{[]byte("x"), []byte("y")}); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if got := ringB.Stamp(); got < 100 {
		t.Errorf("receiver stamp = %d, want >= 100 (merged from frame)", got)
	}
	var sendSpan, recvSpan bool
	for _, e := range ringA.Snapshot() {
		if e.Kind == trace.NetSend && e.MSet == 0 && e.Dur > 0 {
			sendSpan = true
		}
	}
	for _, e := range ringB.Snapshot() {
		if e.Kind == trace.NetRecv && e.MSet == 0 && e.Stamp > 100 {
			recvSpan = true
		}
	}
	if !sendSpan {
		t.Error("sender ring missing net-send span")
	}
	if !recvSpan {
		t.Error("receiver ring missing net-recv event stamped after sender")
	}

	// The response stamped the sender's ring from the receiver: after
	// both sides recorded, clocks converge monotonically.
	if sa, sb := ringA.Stamp(), ringB.Stamp(); sa < sb {
		t.Errorf("sender stamp %d behind receiver stamp %d after the response", sa, sb)
	}
}

// appendFrameHeaderV3 hand-crafts the retired v3 layout (56-byte
// header: trace origin, MSet identity, stamp and shard), as a v3 peer
// would emit it.
func appendFrameHeaderV3(dst []byte, kind byte, req uint64, from, to clock.SiteID) []byte {
	start := len(dst)
	dst = appendFrameHeaderV1(dst, kind, req, from, to)
	dst[start] = 3
	dst = binary.BigEndian.AppendUint64(dst, uint64(from)) // trace origin
	dst = binary.BigEndian.AppendUint64(dst, 0xabc)        // MSet identity
	dst = binary.BigEndian.AppendUint64(dst, 42)           // stamp
	return binary.BigEndian.AppendUint16(dst, 1)           // shard
}

// FuzzReadFrame feeds arbitrary bytes to the socket decoder.  Whatever
// the input, readFrame (and splitBatchBody on a batch frame) must not
// panic, must not allocate past maxFrameLen, and every frame it accepts
// must re-encode to exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	call := appendFrameHeader(nil, frameCall, 1, 1, 2, 7)
	call = append(call, "ping"...)
	finishFrame(call, 0)
	batch := appendFrameHeader(nil, frameBatch, 2, 1, 2, 0)
	batch = appendBatchBody(batch, [][]byte{[]byte("a"), nil, []byte("ccc")})
	finishFrame(batch, 0)
	resp := appendFrameHeader(nil, frameResp, 3, 2, 1, 9)
	resp = append(resp, respErr)
	resp = append(resp, "boom"...)
	finishFrame(resp, 0)
	v3 := appendFrameHeaderV3(nil, frameBatch, 4, 1, 2)
	v3 = binary.BigEndian.AppendUint32(v3, 0)
	finishFrame(v3, 0)
	hostile := appendFrameHeader(nil, frameBatch, 5, 1, 2, 0)
	hostile = binary.BigEndian.AppendUint32(hostile, maxFrameLen/4)
	finishFrame(hostile, 0)
	for _, seed := range [][]byte{call, batch, resp, v3, hostile, call[:frameHeaderLen-1], nil} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := bytes.NewReader(data)
		fr, err := readFrame(r)
		var payloads [][]byte
		var splitErr error
		if err == nil && fr.kind == frameBatch {
			payloads, splitErr = splitBatchBody(fr.body)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > maxFrameLen {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grew)
		}
		if err != nil {
			return
		}
		consumed := data[:len(data)-r.Len()]
		again := appendFrameHeader(nil, fr.kind, fr.req, fr.from, fr.to, fr.stamp)
		again = append(again, fr.body...)
		finishFrame(again, 0)
		if !bytes.Equal(again, consumed) {
			t.Fatalf("frame re-encodes to\n%x\nwant\n%x", again, consumed)
		}
		if fr.kind == frameBatch && splitErr == nil {
			if body := appendBatchBody(nil, payloads); !bytes.Equal(body, fr.body) {
				t.Fatalf("batch body re-encodes to\n%x\nwant\n%x", body, fr.body)
			}
		}
	})
}
