package rib

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"dice/internal/bgp"
	"dice/internal/netaddr"
)

// model is the reference Loc-RIB the trie is checked against: a map from
// prefix to candidates in arrival order, with the same replacement and
// selection rules and no sharing at all.
type model map[netaddr.Prefix][]*Route

func (m model) clone() model {
	c := make(model, len(m))
	for p, cs := range m {
		c[p] = slices.Clone(cs)
	}
	return c
}

func (m model) insert(r *Route) {
	cs := m[r.Prefix]
	if i := slices.IndexFunc(cs, func(c *Route) bool { return sameSource(c, r) }); i >= 0 {
		cs[i] = r
	} else {
		cs = append(cs, r)
	}
	m[r.Prefix] = cs
}

func (m model) withdraw(p netaddr.Prefix, peer netaddr.Addr) {
	m[p] = slices.DeleteFunc(m[p], func(c *Route) bool { return c.PeerRouterID == peer && !c.Local })
	if len(m[p]) == 0 {
		delete(m, p)
	}
}

func (m model) withdrawPeer(peer netaddr.Addr) {
	for p := range m {
		m.withdraw(p, peer)
	}
}

func (m model) routes() int {
	n := 0
	for _, cs := range m {
		n += len(cs)
	}
	return n
}

// sorted returns the model's prefixes in (address, length) order.
func (m model) sorted() []netaddr.Prefix {
	ps := make([]netaddr.Prefix, 0, len(m))
	for p := range m {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
	return ps
}

func (m model) best(p netaddr.Prefix) *Route { return selectBest(m[p]) }

func (m model) coveringBest(p netaddr.Prefix) *Route {
	for bits := p.Bits(); bits >= 0; bits-- {
		if r := m.best(netaddr.PrefixFrom(p.Addr(), bits)); r != nil {
			return r
		}
	}
	return nil
}

// bests returns the best routes of the prefixes in order that keep
// admits.
func (m model) bests(order []netaddr.Prefix, keep func(netaddr.Prefix) bool) []*Route {
	var out []*Route
	for _, p := range order {
		if keep(p) {
			out = append(out, m.best(p))
		}
	}
	return out
}

func collect(walk func(func(*Route) bool)) []*Route {
	var out []*Route
	walk(func(r *Route) bool {
		out = append(out, r)
		return true
	})
	return out
}

// checkShape verifies the trie's structural invariants: children extend
// their parent's prefix on the right bit, and every node holds routes or
// forks.
func checkShape(n *node) error {
	if n == nil {
		return nil
	}
	cs := n.routes()
	if len(cs) == 0 && (n.children[0] == nil || n.children[1] == nil) {
		return fmt.Errorf("node %s holds no routes and does not fork", n.prefix)
	}
	if n.best[0] != selectBest(cs) || (n.more != nil) != (len(cs) > 1) {
		return fmt.Errorf("node %s: best %v, more %v for %d routes", n.prefix, n.best[0], n.more != nil, len(cs))
	}
	for b, c := range n.children {
		if c == nil {
			continue
		}
		if c.prefix.Bits() <= n.prefix.Bits() || !n.prefix.Covers(c.prefix) || c.prefix.Bit(n.prefix.Bits()) != b {
			return fmt.Errorf("node %s: misplaced child %s", n.prefix, c.prefix)
		}
		if err := checkShape(c); err != nil {
			return err
		}
	}
	return nil
}

// checkWalks compares tb's shape, counts and full walks with the model.
func checkWalks(tb *Table, m model) error {
	if err := checkShape(tb.root); err != nil {
		return err
	}
	if tb.Prefixes() != len(m) || tb.Routes() != m.routes() {
		return fmt.Errorf("counts %d/%d, model %d/%d", tb.Prefixes(), tb.Routes(), len(m), m.routes())
	}
	order := m.sorted()
	i := 0
	var walkErr error
	tb.WalkAll(func(p netaddr.Prefix, cs []*Route) bool {
		if i >= len(order) || p != order[i] || !slices.Equal(cs, m[p]) {
			walkErr = fmt.Errorf("WalkAll entry %d is %s %v, model %v", i, p, cs, order)
			return false
		}
		i++
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	if i != len(order) {
		return fmt.Errorf("WalkAll visited %d of %d prefixes", i, len(order))
	}
	all := func(netaddr.Prefix) bool { return true }
	if got, want := collect(tb.Walk), m.bests(order, all); !slices.Equal(got, want) {
		return fmt.Errorf("Walk %v, model %v", got, want)
	}
	if got, want := tb.Dump(), m.bests(order, all); !slices.Equal(got, want) {
		return fmt.Errorf("Dump %v, model %v", got, want)
	}
	return nil
}

// checkQueries compares tb's lookups with the model: exact lookups on
// the model's prefixes and the probes, covering lookups and range walks
// on the probes.
func checkQueries(tb *Table, m model, probes []netaddr.Prefix) error {
	order := m.sorted()
	for _, p := range append(probes, order...) {
		if got, want := tb.Best(p), m.best(p); got != want {
			return fmt.Errorf("Best(%s) %v, model %v", p, got, want)
		}
		if got, want := tb.Candidates(p), m[p]; !slices.Equal(got, want) {
			return fmt.Errorf("Candidates(%s) %v, model %v", p, got, want)
		}
	}
	for _, p := range probes {
		if got, want := tb.Best(p), m.best(p); got != want {
			return fmt.Errorf("Best(%s) %v, model %v", p, got, want)
		}
		if got, want := tb.CoveringBest(p), m.coveringBest(p); got != want {
			return fmt.Errorf("CoveringBest(%s) %v, model %v", p, got, want)
		}
		a := p.Addr() | (^netaddr.Mask(p.Bits()) & 0x5a5a5a5a)
		if got, want := tb.LongestMatch(a), m.coveringBest(netaddr.PrefixFrom(a, 32)); got != want {
			return fmt.Errorf("LongestMatch(%s) %v, model %v", a, got, want)
		}
		covered := func(q netaddr.Prefix) bool { return p.Covers(q) }
		got := collect(func(fn func(*Route) bool) { tb.WalkCovered(p, fn) })
		if want := m.bests(order, covered); !slices.Equal(got, want) {
			return fmt.Errorf("WalkCovered(%s) %v, model %v", p, got, want)
		}
		lo, hi, maxBits := p.Addr(), p.Addr()|^netaddr.Mask(p.Bits()/2), 32-p.Bits()/3
		if lo > hi {
			lo, hi = hi, lo
		}
		inRange := func(q netaddr.Prefix) bool {
			return q.Bits() <= maxBits && q.Addr() <= hi && q.Addr()|^netaddr.Mask(q.Bits()) >= lo
		}
		got = collect(func(fn func(*Route) bool) { tb.WalkRange(lo, hi, maxBits, fn) })
		if want := m.bests(order, inRange); !slices.Equal(got, want) {
			return fmt.Errorf("WalkRange(%s, %s, %d) %v, model %v", lo, hi, maxBits, got, want)
		}
	}
	return nil
}

// maxTables bounds how many tables one sequence keeps alive; a clone
// beyond it replaces an existing table.
const maxTables = 5

// maxOps bounds one sequence: the checks are quadratic in table size.
const maxOps = 160

// runTableOps interprets data as a sequence of Insert, Withdraw,
// WithdrawPeer and Clone operations on a growing set of tables that
// share nodes through Clone. After each operation it checks the walks of
// every table and the lookups of the table operated on; at the end, every
// lookup of every table at every stored prefix. Four bytes make one
// operation.
func runTableOps(t *testing.T, data []byte) {
	data = data[:min(len(data), 4*maxOps)]
	tables := []*Table{New()}
	models := []model{{}}
	for len(data) >= 4 {
		op, a, b, c := data[0], data[1], data[2], data[3]
		data = data[4:]
		k := int(op>>3) % len(tables)
		tb, m := tables[k], models[k]
		// A small prefix space over the full length range, so prefixes
		// nest, fork and collide often.
		lens := [...]int{0, 1, 2, 3, 4, 5, 6, 7, 16, 24, 32}
		p := netaddr.PrefixFrom(netaddr.Addr(uint32(a&0x3f)<<26|uint32(b>>6)<<14), lens[int(c)%len(lens)])
		peer := netaddr.AddrFrom4(10, 0, 0, b&3)
		var desc string
		switch op % 8 {
		case 0, 1, 2:
			r := &Route{
				Prefix: p,
				Attrs: bgp.Attrs{
					ASPath:       bgp.ASPath{{Type: bgp.ASSequence, ASNs: make([]uint16, 1+int(c>>6))}},
					HasLocalPref: true,
					LocalPref:    uint32(b>>2) % 3,
					HasMED:       true,
					MED:          uint32(op>>5) % 2,
				},
				PeerRouterID: peer,
				PeerAS:       65000 + uint16(b&1),
				EBGP:         b&4 != 0,
				Local:        peer == 0,
			}
			tb.Insert(r)
			m.insert(r)
			desc = fmt.Sprintf("Insert(%s from %s)", p, peer)
		case 3, 4:
			if order := m.sorted(); op%8 == 4 && len(order) > 0 {
				// Withdraw a stored route rather than a random one.
				p = order[int(a)%len(order)]
				peer = m[p][int(c)%len(m[p])].PeerRouterID
			}
			tb.Withdraw(p, peer)
			m.withdraw(p, peer)
			desc = fmt.Sprintf("Withdraw(%s, %s)", p, peer)
		case 5:
			tb.WithdrawPeer(peer)
			m.withdrawPeer(peer)
			desc = fmt.Sprintf("WithdrawPeer(%s)", peer)
		default:
			ct, cm := tb.Clone(), m.clone()
			if len(tables) < maxTables {
				tables, models = append(tables, ct), append(models, cm)
			} else {
				j := int(a) % len(tables)
				tables[j], models[j] = ct, cm
			}
			desc = fmt.Sprintf("Clone(table %d)", k)
		}
		probes := []netaddr.Prefix{p, netaddr.PrefixFrom(p.Addr(), p.Bits()/2), netaddr.PrefixFrom(p.Addr()|0x00ff0000, min(32, p.Bits()+8))}
		for i := range tables {
			if err := checkWalks(tables[i], models[i]); err != nil {
				t.Fatalf("after %s on table %d: table %d: %v", desc, k, i, err)
			}
		}
		if err := checkQueries(tb, m, probes); err != nil {
			t.Fatalf("after %s: table %d: %v", desc, k, err)
		}
	}
	for i := range tables {
		if err := checkQueries(tables[i], models[i], models[i].sorted()); err != nil {
			t.Fatalf("at the end: table %d: %v", i, err)
		}
	}
}

// TestTableMatchesModel runs seeded random operation sequences through
// runTableOps: writes on both sides of a clone, clones of clones,
// peer-down withdrawals on shared tables.
func TestTableMatchesModel(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 4*(20+rng.Intn(maxOps-20)))
		rng.Read(data)
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runTableOps(t, data) })
	}
}

func FuzzTable(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		data := make([]byte, 4*64)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Fuzz(runTableOps)
}

// TestConcurrentClones covers both ways DiCE clones concurrently: workers
// cloning one frozen checkpoint and each writing its own clone, and a live
// writer racing a checkpointer for the same lock. Run it under -race.
func TestConcurrentClones(t *testing.T) {
	const n = 2000
	route := func(i int, peer byte) *Route {
		return mkRoute(netaddr.PrefixFrom(netaddr.Addr(uint32(i)<<14), 18).String(), fmt.Sprintf("10.0.0.%d", peer), 65001, 65001)
	}
	live := New()
	for i := 0; i < n; i++ {
		live.Insert(route(i, 1))
	}
	var mu sync.Mutex // the live table's state lock
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mu.Lock()
			if i%2 == 0 {
				live.Insert(route(i%n, 2))
			} else {
				live.Withdraw(route((i-1)%n, 2).Prefix, ip("10.0.0.2"))
			}
			mu.Unlock()
		}
	}()

	for round := 0; round < 20; round++ {
		mu.Lock()
		ckpt := live.Clone()
		mu.Unlock()
		want := ckpt.Dump()
		var workers sync.WaitGroup
		for w := 0; w < 4; w++ {
			workers.Add(1)
			go func(w int) {
				defer workers.Done()
				c := ckpt.Clone()
				own := route(n+w, 3)
				c.Insert(own)
				c.Withdraw(route(w, 1).Prefix, ip("10.0.0.1"))
				if c.Best(own.Prefix) != own || c.Best(route(w, 1).Prefix) != nil {
					t.Errorf("worker %d does not see its own writes", w)
				}
				if c.Prefixes() != ckpt.Prefixes() {
					t.Errorf("worker %d: %d prefixes, checkpoint %d", w, c.Prefixes(), ckpt.Prefixes())
				}
			}(w)
		}
		workers.Wait()
		if got := ckpt.Dump(); !slices.Equal(got, want) {
			t.Fatalf("round %d: checkpoint changed under its clones and the live writer", round)
		}
	}
	close(stop)
	writer.Wait()
}

// TestNodeSize pins the node layout to the 48-byte size class: a fabric
// holds a node per stored prefix and about one fork per prefix, so a
// larger node shows directly in live heap.
func TestNodeSize(t *testing.T) {
	if size := unsafe.Sizeof(node{}); size > 48 {
		t.Fatalf("trie node is %d bytes, want at most 48", size)
	}
}
