package router

import (
	"bytes"
	"testing"

	"dice/internal/bgp"
	"dice/internal/netaddr"
	"dice/internal/netsim"
)

// fill inserts n distinct /24 routes into r's Loc-RIB.
func fill(r *Router, n int) {
	for i := 0; i < n; i++ {
		rt := testRoute("203.0.113.0/24")
		rt.Prefix = netaddr.PrefixFrom(netaddr.Addr(0x14000000+uint32(i)<<8), 24)
		r.loc.Insert(rt)
	}
}

// TestCloneCostIndependentOfTableSize pins the fork() cost model: a
// checkpoint clone allocates the same at 1k and at 20k prefixes.
func TestCloneCostIndependentOfTableSize(t *testing.T) {
	allocs := func(prefixes int) float64 {
		tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
		b := tn.routers["b"]
		fill(b, prefixes)
		sink := netsim.NewCaptureSink()
		return testing.AllocsPerRun(20, func() { b.Clone(sink) })
	}
	small, large := allocs(1000), allocs(20000)
	if small != large {
		t.Fatalf("Router.Clone allocates %.0f at 1k prefixes and %.0f at 20k", small, large)
	}
}

// TestCheckpointStableUnderLiveUpdates checks that a checkpoint's state
// encoding stays byte-identical while the live router keeps taking
// updates and the checkpoint's own clones take writes.
func TestCheckpointStableUnderLiveUpdates(t *testing.T) {
	tn := newTestNet(t, twoRouterConfigs(), [][2]string{{"a", "b"}})
	a, b := tn.routers["a"], tn.routers["b"]
	fill(b, 1000)
	ckpt := b.Clone(netsim.NewCaptureSink())
	before := ckpt.EncodeStateChunks()

	explore := ckpt.Clone(netsim.NewCaptureSink())
	explore.RIB().Insert(testRoute("198.51.100.0/24"))
	explore.RIB().Withdraw(pfx("20.0.5.0/24"), ip("10.9.9.9"))

	for i := 0; i < 50; i++ {
		u := &bgp.Update{
			Attrs: bgp.Attrs{
				HasOrigin: true, Origin: bgp.OriginIGP,
				ASPath:     bgp.ASPath{{Type: bgp.ASSequence, ASNs: []uint16{65001}}},
				HasNextHop: true, NextHop: ip("10.0.0.1"),
			},
			NLRI: []netaddr.Prefix{netaddr.PrefixFrom(netaddr.Addr(0x14000000+uint32(i)<<8), 24)},
		}
		if i%5 == 0 {
			u.Withdrawn = []netaddr.Prefix{pfx("10.1.0.0/16")}
		}
		if err := a.Session("b").SendUpdate(u); err != nil {
			t.Fatal(err)
		}
		tn.net.Run(0)
	}
	if b.RIB().Best(pfx("10.1.0.0/16")) != nil || b.RIB().Routes() != ckpt.RIB().Routes()+50-1 {
		t.Fatalf("live router did not take the updates: %d routes, checkpoint %d", b.RIB().Routes(), ckpt.RIB().Routes())
	}
	after := ckpt.EncodeStateChunks()
	if len(after) != len(before) {
		t.Fatalf("checkpoint encoding has %d chunks, had %d", len(after), len(before))
	}
	for i := range before {
		if !bytes.Equal(before[i], after[i]) {
			t.Fatalf("checkpoint chunk %d changed under live updates", i)
		}
	}
}
