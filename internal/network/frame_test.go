package network

// Codec tests: the wire format round-trips its trace context and batch
// identities, and every other version byte, the retired v1 and v2
// included, surfaces the typed error.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"esr/internal/clock"
	"esr/internal/trace"
)

func TestFrameV2RoundTrip(t *testing.T) {
	tc := TraceContext{Origin: 3, MSet: 0xdeadbeef, Stamp: 42, Shard: 5}
	b := appendFrameHeader(nil, frameSend, 7, 1, 2, tc)
	b = append(b, []byte("payload")...)
	finishFrame(b, 0)

	f, err := readFrame(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	if f.kind != frameSend || f.req != 7 || f.from != 1 || f.to != 2 {
		t.Errorf("frame = %+v", f)
	}
	if f.tc != tc {
		t.Errorf("trace context = %+v, want %+v", f.tc, tc)
	}
	if string(f.body) != "payload" {
		t.Errorf("body = %q", f.body)
	}
}

func TestBatchBodyV2CarriesIdentities(t *testing.T) {
	payloads := [][]byte{[]byte("a"), []byte("bb"), []byte("")}
	ids := []uint64{0x10, 0x20, 0x30}
	body := appendBatchBody(nil, payloads, ids)
	got, gotIDs, err := splitBatchBody(body)
	if err != nil {
		t.Fatalf("splitBatchBody: %v", err)
	}
	if len(got) != 3 || string(got[0]) != "a" || string(got[1]) != "bb" || len(got[2]) != 0 {
		t.Errorf("payloads = %q", got)
	}
	if len(gotIDs) != 3 || gotIDs[0] != 0x10 || gotIDs[2] != 0x30 {
		t.Errorf("ids = %#x", gotIDs)
	}
	// nil ids encode as zero identities, not a different layout.
	body = appendBatchBody(nil, payloads, nil)
	_, gotIDs, err = splitBatchBody(body)
	if err != nil || len(gotIDs) != 3 || gotIDs[0] != 0 {
		t.Errorf("untraced batch ids = %#x, err %v", gotIDs, err)
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
	// 1 and 2 are the retired codecs; they are as unknown as any other.
	for _, v := range []byte{0, 1, 2, CodecVersion + 1, 0xff} {
		b := appendFrameHeader(nil, frameSend, 1, 1, 2, TraceContext{})
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
// as v3 frames.
func TestFrameV1BackwardCompatible(t *testing.T) {
	b := appendFrameHeaderV1(nil, frameSend, 9, 4, 5)
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
// respective rings attributed to the MSet.
func TestTracedSendPropagatesStamp(t *testing.T) {
	a, b := tcpPair(t)
	ringA, ringB := trace.NewRing(64), trace.NewRing(64)
	a.SetTrace(ringA)
	b.SetTrace(ringB)
	b.Register(2, func(clock.SiteID, []byte) ([]byte, error) { return nil, nil })

	// Seed the sender's causal clock well past the receiver's.
	ringA.ObserveStamp(100)
	tc := TraceContext{Origin: 1, MSet: 0xabc, Stamp: ringA.Stamp()}
	if err := a.SendTraced(1, 2, []byte("m"), tc); err != nil {
		t.Fatalf("SendTraced: %v", err)
	}
	if got := ringB.Stamp(); got < 100 {
		t.Errorf("receiver stamp = %d, want >= 100 (merged from frame)", got)
	}
	var sendSpan, recvSpan bool
	for _, e := range ringA.Snapshot() {
		if e.Kind == trace.NetSend && e.MSet == 0xabc && e.Dur > 0 {
			sendSpan = true
		}
	}
	for _, e := range ringB.Snapshot() {
		if e.Kind == trace.NetRecv && e.MSet == 0xabc && e.Stamp > 100 {
			recvSpan = true
		}
	}
	if !sendSpan {
		t.Error("sender ring missing net-send span")
	}
	if !recvSpan {
		t.Error("receiver ring missing net-recv event stamped after sender")
	}

	// Batches carry identities and merge stamps the same way.
	if err := a.SendBatchTraced(1, 2, [][]byte{[]byte("x"), []byte("y")},
		[]uint64{0x1, 0x2}, TraceContext{Origin: 1, Stamp: ringA.Stamp()}); err != nil {
		t.Fatalf("SendBatchTraced: %v", err)
	}

	// The response stamped the sender's ring from the receiver: after
	// both sides recorded, clocks converge monotonically.
	if sa, sb := ringA.Stamp(), ringB.Stamp(); sa == 0 || sb == 0 {
		t.Errorf("stamps = %d, %d", sa, sb)
	}
}
