package network

// TCP-specific behavior: wire-format versioning, reconnection after a
// peer restart, remote error mapping, and configuration validation —
// everything the shared conformance suite cannot express because it is
// particular to real sockets.

import (
	"errors"
	"net"
	"testing"
	"time"

	"esr/internal/clock"
)

// tcpPair builds two connected single-site instances (1 and 2) and
// registers a trivial handler at site 2.
func tcpPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCP(TCPOptions{Listen: "127.0.0.1:0", Local: []clock.SiteID{1}, Seed: 1})
	if err != nil {
		t.Fatalf("NewTCP(a): %v", err)
	}
	b, err := NewTCP(TCPOptions{Listen: "127.0.0.1:0", Local: []clock.SiteID{2}, Seed: 2})
	if err != nil {
		a.Close()
		t.Fatalf("NewTCP(b): %v", err)
	}
	a.AddPeer(2, b.Addr())
	b.AddPeer(1, a.Addr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero", Config{}, true},
		{"ordered latencies", Config{MinLatency: time.Millisecond, MaxLatency: 2 * time.Millisecond}, true},
		{"inverted latencies", Config{MinLatency: 2 * time.Millisecond, MaxLatency: time.Millisecond}, false},
		{"negative min", Config{MinLatency: -time.Millisecond}, false},
		{"negative max", Config{MaxLatency: -time.Millisecond}, false},
		{"loss one", Config{LossRate: 1}, true},
		{"loss above one", Config{LossRate: 1.01}, false},
		{"loss negative", Config{LossRate: -0.1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate(%+v) = %v, want nil", tc.cfg, err)
			}
			if !tc.ok && err == nil {
				t.Errorf("Validate(%+v) = nil, want error", tc.cfg)
			}
			if _, nerr := New(tc.cfg); (nerr == nil) != tc.ok {
				t.Errorf("New(%+v) error = %v, want ok=%v", tc.cfg, nerr, tc.ok)
			}
		})
	}
}

// TestTCPUnknownCodecVersionRejected feeds the server a frame with a
// future codec version: the connection must be dropped (framing beyond
// an unknown codec cannot be trusted) without hurting the transport,
// and the decoder must surface the typed error.
func TestTCPUnknownCodecVersionRejected(t *testing.T) {
	a, b := tcpPair(t)
	b.Register(2, func(clock.SiteID, []byte) ([]byte, error) { return nil, nil })

	raw, err := net.Dial("tcp", b.Addr())
	if err != nil {
		t.Fatalf("raw dial: %v", err)
	}
	defer raw.Close()
	bad := appendFrameHeader(nil, frameCall, 1, 9, 2, 0)
	finishFrame(bad, 0)
	bad[0] = CodecVersion + 41 // future codec
	if _, err := raw.Write(bad); err != nil {
		t.Fatalf("raw write: %v", err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err == nil {
		t.Error("server kept the connection open after an unknown codec version")
	}

	// The transport itself is unharmed: a well-formed send still works.
	if err := a.Send(1, 2, []byte("ok")); err != nil {
		t.Errorf("Send after codec-version rejection: %v", err)
	}

	// And the decoder reports the typed error for programmatic handling.
	var cve *CodecVersionError
	if _, err := readFrame(bytesReader(bad)); !errors.As(err, &cve) {
		t.Fatalf("readFrame = %v, want *CodecVersionError", err)
	} else if cve.Got != CodecVersion+41 {
		t.Errorf("CodecVersionError.Got = %d, want %d", cve.Got, CodecVersion+41)
	}
}

// bytesReader avoids importing bytes for one helper.
type byteSliceReader struct{ b []byte }

func bytesReader(b []byte) *byteSliceReader { return &byteSliceReader{b} }

func (r *byteSliceReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, errors.New("EOF")
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// TestTCPReconnectAfterPeerRestart kills the receiving process
// (transport instance) and brings a new one up on the same address: the
// sender's pooled connection fails, enters backoff, and a retry loop —
// the delivery agents in miniature — reconnects and delivers.
func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	a, b := tcpPair(t)
	b.Register(2, func(clock.SiteID, []byte) ([]byte, error) { return nil, nil })
	if err := a.Send(1, 2, []byte("before")); err != nil {
		t.Fatalf("Send before restart: %v", err)
	}
	addr := b.Addr()
	if err := b.Close(); err != nil {
		t.Fatalf("Close(b): %v", err)
	}

	// The peer is gone: sends must fail (connection loss now, dial
	// failures while the port is free), never hang.
	if err := a.Send(1, 2, []byte("during")); err == nil {
		t.Fatal("Send to a dead peer returned nil")
	}

	b2, err := NewTCP(TCPOptions{Listen: addr, Local: []clock.SiteID{2}, Seed: 3})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer b2.Close()
	var redelivered int
	b2.Register(2, func(_ clock.SiteID, p []byte) ([]byte, error) {
		redelivered++
		return nil, nil
	})

	// Retry until the backoff window passes and the dial succeeds.
	deadline := time.After(10 * time.Second)
	for {
		if err := a.Send(1, 2, []byte("after")); err == nil {
			break
		}
		select {
		case <-deadline:
			t.Fatal("sender never reconnected to the restarted peer")
		case <-time.After(5 * time.Millisecond):
		}
	}
	if redelivered == 0 {
		t.Error("restarted peer saw no deliveries")
	}
	if st := a.Stats(); st.Dials < 2 {
		t.Errorf("Dials = %d, want >= 2 (initial connect + reconnect)", st.Dials)
	}
}

// TestTCPRemoteHandlerErrorMapping: a destination-side handler error
// crosses the wire as a RemoteError carrying the original text.
func TestTCPRemoteHandlerErrorMapping(t *testing.T) {
	a, b := tcpPair(t)
	b.Register(2, func(clock.SiteID, []byte) ([]byte, error) {
		return nil, errors.New("apply rejected: lock conflict")
	})
	err := a.Send(1, 2, []byte("x"))
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("Send = %v, want *RemoteError", err)
	}
	if re.Msg != "apply rejected: lock conflict" {
		t.Errorf("RemoteError.Msg = %q, want the handler's text", re.Msg)
	}
}

// TestTCPSharedAddressHostsMultipleSites models an esrnode process that
// hosts a replica site plus the virtual order server: two site IDs, one
// address, one connection pool entry.
func TestTCPSharedAddressHostsMultipleSites(t *testing.T) {
	a, b := tcpPair(t)
	const virtual = clock.SiteID(1000)
	b.mu.Lock()
	b.local[virtual] = true
	b.mu.Unlock()
	b.Register(2, func(clock.SiteID, []byte) ([]byte, error) { return []byte("site"), nil })
	b.Register(virtual, func(clock.SiteID, []byte) ([]byte, error) { return []byte("seq"), nil })
	a.AddPeer(virtual, b.Addr())

	if resp, err := a.Call(1, 2, nil); err != nil || string(resp) != "site" {
		t.Fatalf("Call site 2 = %q, %v", resp, err)
	}
	if resp, err := a.Call(1, virtual, nil); err != nil || string(resp) != "seq" {
		t.Fatalf("Call virtual site = %q, %v", resp, err)
	}
	if st := a.Stats(); st.Dials != 1 {
		t.Errorf("Dials = %d, want 1 (both sites share the pooled connection)", st.Dials)
	}
}

func TestTCPListenRequired(t *testing.T) {
	if _, err := NewTCP(TCPOptions{}); err == nil {
		t.Fatal("NewTCP without Listen succeeded, want error")
	}
}
