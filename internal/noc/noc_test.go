package noc

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/spad"
)

func newMesh(t *testing.T, w, h int, peephole bool) (*Mesh, *sim.Stats) {
	t.Helper()
	stats := sim.NewStats()
	m, err := NewMesh(DefaultConfig(w, h, peephole), stats)
	if err != nil {
		t.Fatal(err)
	}
	return m, stats
}

func TestMeshRejectsBadGeometry(t *testing.T) {
	if _, err := NewMesh(DefaultConfig(0, 2, false), nil); err == nil {
		t.Fatal("0-width mesh accepted")
	}
}

func TestRouteXYOrder(t *testing.T) {
	m, _ := newMesh(t, 4, 4, false)
	path, err := m.Route(Coord{0, 0}, Coord{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// XY routing: X first, then Y.
	want := []Coord{{0, 0}, {1, 0}, {2, 0}, {2, 1}, {2, 2}, {2, 3}}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
	if _, err := m.Route(Coord{0, 0}, Coord{9, 9}); err == nil {
		t.Fatal("route outside mesh accepted")
	}
}

// Property: every XY route is a connected path of unit steps with
// exactly Hops()+1 nodes, all inside the mesh.
func TestRouteProperty(t *testing.T) {
	m, _ := newMesh(t, 5, 5, false)
	f := func(sx, sy, dx, dy uint8) bool {
		src := Coord{int(sx % 5), int(sy % 5)}
		dst := Coord{int(dx % 5), int(dy % 5)}
		path, err := m.Route(src, dst)
		if err != nil {
			return false
		}
		if len(path) != src.Hops(dst)+1 {
			return false
		}
		if path[0] != src || path[len(path)-1] != dst {
			return false
		}
		for i := 1; i < len(path); i++ {
			if path[i-1].Hops(path[i]) != 1 || !m.InMesh(path[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendTiming(t *testing.T) {
	m, stats := newMesh(t, 4, 1, false)
	done, err := m.Send(Packet{Src: Coord{0, 0}, Dst: Coord{3, 0}, Flits: 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 3 hops * 1 cycle router delay + 10 flit cycles = 13.
	if done != 13 {
		t.Fatalf("tail arrival = %d, want 13", done)
	}
	if stats.Get(sim.CtrNoCFlits) != 10 || stats.Get(sim.CtrNoCPackets) != 1 {
		t.Fatal("flit/packet counters wrong")
	}
	if _, err := m.Send(Packet{Src: Coord{0, 0}, Dst: Coord{1, 0}, Flits: 0}, 0); err == nil {
		t.Fatal("zero-flit packet accepted")
	}
}

func TestLinkContentionSerializes(t *testing.T) {
	m, _ := newMesh(t, 3, 1, false)
	// Two packets share link (0,0)->(1,0).
	d1, err := m.Send(Packet{Src: Coord{0, 0}, Dst: Coord{2, 0}, Flits: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := m.Send(Packet{Src: Coord{0, 0}, Dst: Coord{1, 0}, Flits: 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d1-2 { // second must be pushed behind the first's link time
		t.Fatalf("no contention: d1=%d d2=%d", d1, d2)
	}
	// Disjoint paths do not contend.
	m2, _ := newMesh(t, 2, 2, false)
	a, _ := m2.Send(Packet{Src: Coord{0, 0}, Dst: Coord{1, 0}, Flits: 8}, 0)
	b, _ := m2.Send(Packet{Src: Coord{0, 1}, Dst: Coord{1, 1}, Flits: 8}, 0)
	if a != b {
		t.Fatalf("disjoint transfers should complete together: %d vs %d", a, b)
	}
}

func meshWithIDs(t *testing.T, peephole bool, ids map[Coord]spad.DomainID) (*Mesh, *sim.Stats) {
	t.Helper()
	m, stats := newMesh(t, 2, 2, peephole)
	m.IDSource = func(c Coord) spad.DomainID { return ids[c] }
	return m, stats
}

func TestPeepholeRejectsCrossDomain(t *testing.T) {
	ids := map[Coord]spad.DomainID{
		{0, 0}: spad.SecureDomain,
		{1, 0}: spad.NonSecure,
		{0, 1}: spad.SecureDomain,
	}
	m, stats := meshWithIDs(t, true, ids)
	// Secure -> non-secure: rejected.
	_, err := m.Send(Packet{Src: Coord{0, 0}, Dst: Coord{1, 0}, SrcID: spad.SecureDomain, Flits: 4}, 0)
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("cross-domain packet accepted: %v", err)
	}
	// Non-secure -> secure: also rejected (malicious injection).
	_, err = m.Send(Packet{Src: Coord{1, 0}, Dst: Coord{0, 1}, SrcID: spad.NonSecure, Flits: 4}, 0)
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("injection into secure core accepted: %v", err)
	}
	// Secure -> secure: accepted.
	if _, err := m.Send(Packet{Src: Coord{0, 0}, Dst: Coord{0, 1}, SrcID: spad.SecureDomain, Flits: 4}, 0); err != nil {
		t.Fatal(err)
	}
	if stats.Get(sim.CtrNoCAuthFail) != 2 || stats.Get(sim.CtrNoCAuthPass) != 1 {
		t.Fatalf("auth counters: fail=%d pass=%d", stats.Get(sim.CtrNoCAuthFail), stats.Get(sim.CtrNoCAuthPass))
	}
}

func TestPeepholeZeroCost(t *testing.T) {
	ids := map[Coord]spad.DomainID{{0, 0}: spad.SecureDomain, {1, 0}: spad.SecureDomain}
	plain, _ := newMesh(t, 2, 1, false)
	auth, _ := meshWithIDs(t, true, ids)
	pkt := Packet{Src: Coord{0, 0}, Dst: Coord{1, 0}, SrcID: spad.SecureDomain, Flits: 64}
	d1, err := plain.Send(pkt, 0)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := auth.Send(pkt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("peephole added cycles: %d vs %d", d2, d1)
	}
}

func TestChannelLock(t *testing.T) {
	m, _ := newMesh(t, 3, 1, false)
	dst := Coord{2, 0}
	m.LockChannel(dst, Coord{0, 0})
	// Locked-to source may send.
	if _, err := m.Send(Packet{Src: Coord{0, 0}, Dst: dst, Flits: 2}, 0); err != nil {
		t.Fatal(err)
	}
	// Another source is rejected.
	if _, err := m.Send(Packet{Src: Coord{1, 0}, Dst: dst, Flits: 2}, 0); !errors.Is(err, ErrChannelLocked) {
		t.Fatalf("locked channel accepted foreign packet: %v", err)
	}
	m.UnlockChannel(dst)
	if _, err := m.Send(Packet{Src: Coord{1, 0}, Dst: dst, Flits: 2}, 0); err != nil {
		t.Fatalf("unlocked channel still rejecting: %v", err)
	}
}

func TestFunctionalDelivery(t *testing.T) {
	m, _ := newMesh(t, 2, 1, false)
	payload := []byte("tensor tile data")
	if _, err := m.Send(Packet{Src: Coord{0, 0}, Dst: Coord{1, 0}, Flits: 1, Payload: payload}, 0); err != nil {
		t.Fatal(err)
	}
	pkts := m.Receive(Coord{1, 0})
	if len(pkts) != 1 || string(pkts[0].Payload) != string(payload) {
		t.Fatalf("delivery failed: %v", pkts)
	}
	if len(m.Receive(Coord{1, 0})) != 0 {
		t.Fatal("inbox not drained")
	}
}

func TestRouterControllerProtocol(t *testing.T) {
	ids := map[Coord]spad.DomainID{{0, 0}: spad.SecureDomain, {1, 1}: spad.SecureDomain}
	m, _ := meshWithIDs(t, true, ids)
	rc := NewRouterController(Coord{0, 0}, m)
	if rc.State() != StateIdle {
		t.Fatal("controller not idle initially")
	}
	start, err := rc.BeginSend(Coord{1, 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if start != 5 {
		t.Fatalf("handshake cost cycles: start=%d", start)
	}
	if rc.State() != StateStreaming {
		t.Fatalf("state = %s after handshake", rc.State())
	}
	// While locked, a third party cannot inject.
	if _, err := m.Send(Packet{Src: Coord{0, 1}, Dst: Coord{1, 1}, SrcID: spad.SecureDomain, Flits: 1}, 5); !errors.Is(err, ErrChannelLocked) {
		t.Fatalf("injection during locked stream: %v", err)
	}
	done, err := rc.Stream(8, nil, start)
	if err != nil {
		t.Fatal(err)
	}
	if done <= start {
		t.Fatal("stream took no time")
	}
	rc.EndSend()
	if rc.State() != StateIdle {
		t.Fatal("controller not idle after EndSend")
	}
	// Channel unlocked now.
	if _, err := m.Send(Packet{Src: Coord{0, 1}, Dst: Coord{1, 1}, SrcID: spad.SecureDomain, Flits: 1}, 20); err != nil {
		t.Fatalf("channel still locked after EndSend: %v", err)
	}
}

func TestRouterControllerRejectsCrossDomainHandshake(t *testing.T) {
	ids := map[Coord]spad.DomainID{{0, 0}: spad.NonSecure, {1, 1}: spad.SecureDomain}
	m, _ := meshWithIDs(t, true, ids)
	rc := NewRouterController(Coord{0, 0}, m)
	if _, err := rc.BeginSend(Coord{1, 1}, 0); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("cross-domain handshake passed: %v", err)
	}
	if rc.State() != StateIdle {
		t.Fatal("failed handshake left controller non-idle")
	}
	// Streaming without a handshake is a protocol violation.
	if _, err := rc.Stream(1, nil, 0); err == nil {
		t.Fatal("stream without handshake accepted")
	}
}

func TestRouterControllerBusyAndBadDst(t *testing.T) {
	m, _ := newMesh(t, 2, 2, false)
	rc := NewRouterController(Coord{0, 0}, m)
	if _, err := rc.BeginSend(Coord{5, 5}, 0); err == nil {
		t.Fatal("out-of-mesh destination accepted")
	}
	if _, err := rc.BeginSend(Coord{1, 1}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.BeginSend(Coord{1, 0}, 0); err == nil {
		t.Fatal("busy send engine accepted second handshake")
	}
	rc.EndSend()
}

func TestRouterControllerTransfer(t *testing.T) {
	m, _ := newMesh(t, 2, 1, false)
	rc := NewRouterController(Coord{0, 0}, m)
	done, err := rc.Transfer(Coord{1, 0}, 4, []byte("abcd"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != 5 { // 1 hop + 4 flits
		t.Fatalf("transfer done = %d, want 5", done)
	}
	if rc.State() != StateIdle {
		t.Fatal("Transfer left controller busy")
	}
	if got := m.Receive(Coord{1, 0}); len(got) != 1 {
		t.Fatal("payload not delivered")
	}
}

// A Transfer is authenticated once, at its handshake: the packet it
// streams on the locked channel is not checked again.
func TestRouterControllerTransferAuthenticatesOnce(t *testing.T) {
	ids := map[Coord]spad.DomainID{{0, 0}: spad.SecureDomain, {1, 0}: spad.SecureDomain}
	m, stats := meshWithIDs(t, true, ids)
	rc := NewRouterController(Coord{0, 0}, m)
	if _, err := rc.Transfer(Coord{1, 0}, 4, nil, 0); err != nil {
		t.Fatal(err)
	}
	if pass, fail := stats.Get(sim.CtrNoCAuthPass), stats.Get(sim.CtrNoCAuthFail); pass != 1 || fail != 0 {
		t.Fatalf("one Transfer counted %d passing and %d failing authentications, want 1 and 0", pass, fail)
	}
}

func TestRouterStateString(t *testing.T) {
	for s, want := range map[RouterState]string{
		StateIdle: "idle", StatePeephole: "peephole", StateStreaming: "streaming", RouterState(9): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d -> %q", s, s.String())
		}
	}
}
