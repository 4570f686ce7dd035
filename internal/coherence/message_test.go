package coherence

import (
	"testing"
	"testing/quick"
	"unsafe"
)

// TestMsgSize pins Msg at 24 bytes. Every queued simulator event
// carries one inline, so widening it widens the event queue.
func TestMsgSize(t *testing.T) {
	if size := unsafe.Sizeof(Msg{}); size != 24 {
		t.Errorf("Msg is %d bytes, want 24", size)
	}
}

func TestMsgTypeString(t *testing.T) {
	cases := []struct {
		t    MsgType
		want string
	}{
		{GetROReq, "get_ro_request"},
		{GetRWReq, "get_rw_request"},
		{UpgradeReq, "upgrade_request"},
		{InvalROResp, "inval_ro_response"},
		{InvalRWResp, "inval_rw_response"},
		{GetROResp, "get_ro_response"},
		{GetRWResp, "get_rw_response"},
		{UpgradeResp, "upgrade_response"},
		{InvalROReq, "inval_ro_request"},
		{InvalRWReq, "inval_rw_request"},
		{DowngradeReq, "downgrade_request"},
		{DowngradeResp, "downgrade_response"},
		{MsgInvalid, "invalid"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("MsgType(%d).String() = %q, want %q", c.t, got, c.want)
		}
	}
	if got := MsgType(200).String(); got != "MsgType(200)" {
		t.Errorf("out-of-range String() = %q", got)
	}
}

func TestDirectionPartition(t *testing.T) {
	// Every valid message type is either directory-bound or cache-bound,
	// never both.
	for mt := MsgType(1); mt < NumMsgTypes; mt++ {
		d, c := mt.DirectoryBound(), mt.CacheBound()
		if d == c {
			t.Errorf("%v: DirectoryBound=%v CacheBound=%v; want exactly one", mt, d, c)
		}
	}
	if MsgInvalid.DirectoryBound() || MsgInvalid.CacheBound() {
		t.Error("MsgInvalid must have no direction")
	}
}

func TestRequestResponsePairing(t *testing.T) {
	// Requests from caches are directory-bound; invalidation requests
	// from directories are cache-bound.
	reqs := []MsgType{GetROReq, GetRWReq, UpgradeReq, WritebackReq}
	for _, r := range reqs {
		if !r.IsRequest() || !r.DirectoryBound() {
			t.Errorf("%v should be a directory-bound request", r)
		}
	}
	dirReqs := []MsgType{InvalROReq, InvalRWReq, DowngradeReq}
	for _, r := range dirReqs {
		if !r.IsRequest() || !r.CacheBound() {
			t.Errorf("%v should be a cache-bound request", r)
		}
	}
	resps := []MsgType{GetROResp, GetRWResp, UpgradeResp, InvalROResp, InvalRWResp, DowngradeResp, WritebackAck}
	for _, r := range resps {
		if r.IsRequest() {
			t.Errorf("%v should not be a request", r)
		}
	}
}

func TestTupleString(t *testing.T) {
	tu := Tuple{Sender: 2, Type: GetROReq}
	if got, want := tu.String(), "<P2, get_ro_request>"; got != want {
		t.Errorf("Tuple.String() = %q, want %q", got, want)
	}
	var zero Tuple
	if zero.Valid() {
		t.Error("zero Tuple must be invalid")
	}
	if got := zero.String(); got != "<none>" {
		t.Errorf("zero Tuple.String() = %q", got)
	}
}

func TestGeometryBasics(t *testing.T) {
	g := MustGeometry(64, 4096, 16)
	if g.BlocksPerPage() != 64 {
		t.Fatalf("BlocksPerPage = %d, want 64", g.BlocksPerPage())
	}
	if got := g.Block(0x12345); got != 0x12340 {
		t.Errorf("Block(0x12345) = %#x, want 0x12340", uint64(got))
	}
	if got := g.Page(0x12345); got != 0x12000 {
		t.Errorf("Page(0x12345) = %#x, want 0x12000", uint64(got))
	}
	// Round-robin homing: consecutive pages land on consecutive nodes.
	for p := uint64(0); p < 40; p++ {
		a := Addr(p * 4096)
		if got, want := g.Home(a), NodeID(p%16); got != want {
			t.Errorf("Home(page %d) = %v, want %v", p, got, want)
		}
	}
}

func TestGeometryValidation(t *testing.T) {
	cases := []struct {
		block, page uint64
		nodes       int
	}{
		{0, 4096, 16},
		{65, 4096, 16},
		{64, 0, 16},
		{64, 100, 16},
		{8192, 4096, 16},
		{64, 4096, 0},
		{64, 4096, -1},
	}
	for _, c := range cases {
		if _, err := NewGeometry(c.block, c.page, c.nodes); err == nil {
			t.Errorf("NewGeometry(%d,%d,%d) succeeded, want error", c.block, c.page, c.nodes)
		}
	}
}

func TestGeometryProperties(t *testing.T) {
	g := MustGeometry(64, 4096, 16)
	f := func(raw uint64) bool {
		a := Addr(raw)
		b := g.Block(a)
		p := g.Page(a)
		// Block alignment is idempotent and within the page.
		return g.Block(b) == b && g.Page(p) == p &&
			uint64(b)%64 == 0 && uint64(p)%4096 == 0 &&
			g.Page(b) == p && b >= p &&
			g.Home(a) == g.Home(b) && g.Home(a) == g.Home(p) &&
			g.Home(a) >= 0 && int(g.Home(a)) < 16
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMsgTupleAndString(t *testing.T) {
	m := Msg{Src: 1, Dst: 3, Type: InvalRWReq, Addr: 0x1000}
	if got := m.Tuple(); got.Sender != 1 || got.Type != InvalRWReq {
		t.Errorf("Msg.Tuple() = %v", got)
	}
	if got, want := m.String(), "P1->P3 inval_rw_request addr=0x1000"; got != want {
		t.Errorf("Msg.String() = %q, want %q", got, want)
	}
}

func TestCarriesData(t *testing.T) {
	carrying := []MsgType{GetROResp, GetRWResp, InvalRWResp, DowngradeResp, WritebackReq}
	for _, mt := range carrying {
		if !mt.CarriesData() {
			t.Errorf("%v should carry data", mt)
		}
	}
	for _, mt := range []MsgType{GetROReq, UpgradeReq, InvalROReq, InvalROResp, UpgradeResp} {
		if mt.CarriesData() {
			t.Errorf("%v should not carry data", mt)
		}
	}
}

func TestNodeIDString(t *testing.T) {
	if got := NodeID(7).String(); got != "P7" {
		t.Errorf("NodeID(7) = %q", got)
	}
	if got := NoNode.String(); got != "P?" {
		t.Errorf("NoNode = %q", got)
	}
}
