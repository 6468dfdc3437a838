package rib

import (
	"testing"
	"testing/quick"

	"dice/internal/netaddr"
)

// The TestOverlay* tests pin the copy-on-write contract of Table.Clone:
// a clone reads through to the nodes it shares with its base and never
// writes them; a write copies only the nodes on its path.

func baseWithRoutes(t *testing.T) *Table {
	t.Helper()
	tb := New()
	tb.Insert(mkRoute("10.0.0.0/8", "10.0.0.1", 65001, 65001))
	tb.Insert(mkRoute("10.1.0.0/16", "10.0.0.1", 65001, 65001))
	tb.Insert(mkRoute("192.168.0.0/16", "10.0.0.2", 65002, 65002))
	return tb
}

func TestOverlayReadsFallThrough(t *testing.T) {
	base := baseWithRoutes(t)
	o := base.Clone()
	if o.Best(pfx("10.0.0.0/8")) != base.Best(pfx("10.0.0.0/8")) {
		t.Fatal("read did not fall through")
	}
	if o.Prefixes() != base.Prefixes() || o.Routes() != base.Routes() {
		t.Fatal("counts differ before any write")
	}
	if o.CoveringBest(pfx("10.1.2.0/24")) != base.Best(pfx("10.1.0.0/16")) {
		t.Fatal("covering lookup wrong")
	}
	if o.LongestMatch(ip("10.1.2.3")) != base.Best(pfx("10.1.0.0/16")) {
		t.Fatal("longest match wrong")
	}
}

func TestOverlayWriteDoesNotTouchBase(t *testing.T) {
	base := baseWithRoutes(t)
	beforeRoutes := base.Routes()
	o := base.Clone()

	o.Insert(mkRoute("10.1.0.0/16", "10.0.0.9", 65009, 65009))
	if base.Routes() != beforeRoutes {
		t.Fatal("overlay write leaked into base")
	}
	// The clone sees both candidates.
	if got := len(o.Candidates(pfx("10.1.0.0/16"))); got != 2 {
		t.Fatalf("overlay candidates = %d, want 2", got)
	}
	if got := len(base.Candidates(pfx("10.1.0.0/16"))); got != 1 {
		t.Fatalf("base candidates = %d, want 1", got)
	}
	if o.Routes() != beforeRoutes+1 {
		t.Fatalf("overlay route count %d, want %d", o.Routes(), beforeRoutes+1)
	}
	// The written node is the clone's own copy; a node off the written
	// path is still the base's.
	if o.lookup(pfx("10.1.0.0/16")) == base.lookup(pfx("10.1.0.0/16")) {
		t.Fatal("written node shared with base")
	}
	if o.lookup(pfx("192.168.0.0/16")) != base.lookup(pfx("192.168.0.0/16")) {
		t.Fatal("untouched node not shared with base")
	}
}

// TestCloneWriteCopiesOnlyItsPath pins the copy granularity: one write to
// a clone copies exactly the nodes on the path to the written prefix, at
// any table size, and shares every other node with the base.
func TestCloneWriteCopiesOnlyItsPath(t *testing.T) {
	for _, n := range []int{1000, 20000} {
		base := fillTable(n)
		p := netaddr.PrefixFrom(netaddr.Addr(uint32(n/2)<<12), 20)
		o := base.Clone()
		o.Insert(mkRoute(p.String(), "10.0.0.9", 65009, 65009))

		shared := map[*node]bool{}
		var all func(*node, func(*node))
		all = func(x *node, fn func(*node)) {
			if x != nil {
				fn(x)
				all(x.children[0], fn)
				all(x.children[1], fn)
			}
		}
		all(base.root, func(x *node) { shared[x] = true })
		copied := 0
		all(o.root, func(x *node) {
			if !shared[x] {
				copied++
			}
		})
		path := 0
		for x := o.root; x != nil && x.prefix.Covers(p); x = x.children[p.Bit(x.prefix.Bits())] {
			path++
			if x.prefix == p {
				break
			}
		}
		if path < 2 || copied != path {
			t.Fatalf("%d prefixes: write copied %d nodes, path to %s has %d", n, copied, p, path)
		}
	}
}

func TestOverlayWithdraw(t *testing.T) {
	base := baseWithRoutes(t)
	o := base.Clone()
	ch := o.Withdraw(pfx("192.168.0.0/16"), ip("10.0.0.2"))
	if !ch.Changed() {
		t.Fatal("withdraw did not change best")
	}
	if o.Best(pfx("192.168.0.0/16")) != nil {
		t.Fatal("overlay still sees withdrawn route")
	}
	if base.Best(pfx("192.168.0.0/16")) == nil {
		t.Fatal("withdraw leaked into base")
	}
	if o.Prefixes() != base.Prefixes()-1 {
		t.Fatalf("prefix count %d, want %d", o.Prefixes(), base.Prefixes()-1)
	}
}

func TestOverlayNewPrefix(t *testing.T) {
	base := baseWithRoutes(t)
	o := base.Clone()
	o.Insert(mkRoute("172.16.0.0/12", "10.0.0.9", 65009, 65009))
	if o.Best(pfx("172.16.0.0/12")) == nil {
		t.Fatal("new prefix missing in overlay")
	}
	if base.Best(pfx("172.16.0.0/12")) != nil {
		t.Fatal("new prefix leaked into base")
	}
	if o.Prefixes() != base.Prefixes()+1 {
		t.Fatal("prefix delta wrong")
	}
}

func TestOverlayWalkMergesSorted(t *testing.T) {
	base := baseWithRoutes(t)
	o := base.Clone()
	o.Insert(mkRoute("11.0.0.0/8", "10.0.0.9", 65009, 65009))
	o.Withdraw(pfx("192.168.0.0/16"), ip("10.0.0.2"))

	var got []string
	o.Walk(func(r *Route) bool {
		got = append(got, r.Prefix.String())
		return true
	})
	want := []string{"10.0.0.0/8", "10.1.0.0/16", "11.0.0.0/8"}
	if len(got) != len(want) {
		t.Fatalf("walk: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("walk order: %v", got)
		}
	}
	if d := o.Dump(); len(d) != 3 {
		t.Fatalf("dump: %v", d)
	}
}

func TestOverlayWithdrawPeer(t *testing.T) {
	base := baseWithRoutes(t)
	o := base.Clone()
	chs := o.WithdrawPeer(ip("10.0.0.1"))
	if len(chs) != 2 {
		t.Fatalf("changes = %d, want 2", len(chs))
	}
	if o.Best(pfx("10.0.0.0/8")) != nil || o.Best(pfx("10.1.0.0/16")) != nil {
		t.Fatal("peer routes still visible in overlay")
	}
	if base.Best(pfx("10.0.0.0/8")) == nil {
		t.Fatal("base mutated")
	}
}

func TestOverlayCoveringAcrossBaseAndLocal(t *testing.T) {
	base := baseWithRoutes(t)
	o := base.Clone()
	// Insert a more specific local route; covering lookups for an even
	// more specific prefix must find the local one, not the base /16.
	loc := mkRoute("10.1.2.0/24", "10.0.0.9", 65009, 65009)
	o.Insert(loc)
	if got := o.CoveringBest(pfx("10.1.2.128/25")); got != loc {
		t.Fatalf("covering = %v, want local /24", got)
	}
	// And after withdrawing an owned base prefix, covering falls back.
	o.Withdraw(pfx("10.1.0.0/16"), ip("10.0.0.1"))
	if got := o.CoveringBest(pfx("10.1.3.0/24")); got == nil || got.Prefix != pfx("10.0.0.0/8") {
		t.Fatalf("covering after withdraw = %v, want /8", got)
	}
}

// Property: a clone behaves exactly like a deep copy of the base under an
// arbitrary sequence of inserts/withdraws (observational equivalence),
// and the base keeps its routes.
func TestOverlayEquivalentToDeepCopy(t *testing.T) {
	f := func(ops []struct {
		Addr     uint32
		Bits     uint8
		Peer     uint8
		Withdraw bool
	}) bool {
		base := New()
		base.Insert(mkRoute("10.0.0.0/8", "10.0.0.1", 65001, 65001))
		base.Insert(mkRoute("20.0.0.0/8", "10.0.0.2", 65002, 65002))

		// Deep copy reference.
		ref := New()
		base.WalkAll(func(p netaddr.Prefix, cs []*Route) bool {
			for _, c := range cs {
				ref.Insert(c)
			}
			return true
		})
		o := base.Clone()

		if len(ops) > 40 {
			ops = ops[:40]
		}
		for _, op := range ops {
			p := netaddr.PrefixFrom(netaddr.Addr(op.Addr), int(op.Bits%33))
			peer := netaddr.AddrFrom4(10, 0, 0, op.Peer)
			if op.Withdraw {
				ref.Withdraw(p, peer)
				o.Withdraw(p, peer)
			} else {
				r := mkRoute(p.String(), peer.String(), uint16(op.Peer)+1, uint16(op.Peer)+1)
				ref.Insert(r)
				o.Insert(r)
			}
		}
		if ref.Prefixes() != o.Prefixes() || ref.Routes() != o.Routes() {
			return false
		}
		refDump := ref.Dump()
		oDump := o.Dump()
		if len(refDump) != len(oDump) {
			return false
		}
		for i := range refDump {
			if refDump[i].Prefix != oDump[i].Prefix ||
				refDump[i].PeerRouterID != oDump[i].PeerRouterID {
				return false
			}
		}
		return base.Prefixes() == 2 && base.Routes() == 2 && len(base.Dump()) == 2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fillTable returns a table of n /20 prefixes from one peer.
func fillTable(n int) *Table {
	tb := New()
	for i := 0; i < n; i++ {
		tb.Insert(mkRoute(netaddr.PrefixFrom(netaddr.Addr(uint32(i)<<12), 20).String(), "10.0.0.1", 65001, 65001))
	}
	return tb
}

func BenchmarkTableClone(b *testing.B) {
	base := fillTable(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = base.Clone()
	}
}

func BenchmarkCloneThenInsert(b *testing.B) {
	base := fillTable(100000)
	r := mkRoute("203.0.113.0/24", "10.0.0.9", 65009, 65009)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.Clone().Insert(r)
	}
}
