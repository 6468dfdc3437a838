// Package rib implements the Loc-RIB of a BGP speaker: every candidate
// route per prefix with the RFC 4271 §9.1 decision process.
//
// Prefixes live in a path-compressed binary trie: a node exists only where
// a prefix is stored or where two stored prefixes diverge, so a table of n
// prefixes has fewer than 2n nodes, and exact lookups, longest-prefix
// matches and covered/covering scans visit at most one node per stored
// ancestor.
//
// The trie is copy-on-write. Table.Clone is O(1): both tables keep the
// same root and get fresh owner tokens, so neither owns any existing node.
// A write changes in place only the nodes its table created since its
// last Clone, and copies every other node on its path once — the data
// structure analogue of fork()'s copy-on-write pages, which DiCE's
// checkpoints rely on (§2.3). Routes are immutable once inserted, so
// tables share them.
package rib

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"

	"dice/internal/bgp"
	"dice/internal/netaddr"
)

// Route is one path to a prefix as learned from a peer (or injected
// locally).
type Route struct {
	Prefix netaddr.Prefix
	Attrs  bgp.Attrs

	// Peer identity for the decision process and implicit withdraws.
	PeerRouterID netaddr.Addr
	PeerAS       uint16
	EBGP         bool

	// Local marks routes originated by this router (static/network
	// statements); they win over learned routes.
	Local bool
}

// OriginAS returns the AS that originated this route: the rightmost AS of
// the AS_PATH, or the local AS marker 0 for locally originated routes.
func (r *Route) OriginAS() uint16 { return r.Attrs.ASPath.OriginAS() }

// String renders the route like a routing table line.
func (r *Route) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s via %s", r.Prefix, r.Attrs.NextHop)
	fmt.Fprintf(&b, " as-path [%s]", r.Attrs.ASPath)
	fmt.Fprintf(&b, " origin %s", bgp.OriginString(r.Attrs.Origin))
	if r.Attrs.HasLocalPref {
		fmt.Fprintf(&b, " local-pref %d", r.Attrs.LocalPref)
	}
	if r.Attrs.HasMED {
		fmt.Fprintf(&b, " med %d", r.Attrs.MED)
	}
	return b.String()
}

// node is a trie node. It stores the routes of its prefix or is the fork
// where two stored prefixes diverge (both children set); every other node
// is removed. A node may be shared by any number of tables, and only the
// table whose current token equals owner writes it.
type node struct {
	owner    uint64
	prefix   netaddr.Prefix
	children [2]*node // by the bit after prefix
	// best is the selected route, nil on a fork. A prefix with one route
	// has best[:] as its candidate list and more == nil; with several,
	// *more holds them all in arrival order. Keeping the common one-route
	// case out of a slice header holds a node to 48 bytes.
	best [1]*Route
	more *[]*Route
}

// routes returns n's candidates in arrival order. The slice is n's own:
// only n's owner may write it.
func (n *node) routes() []*Route {
	switch {
	case n.more != nil:
		return *n.more
	case n.best[0] != nil:
		return n.best[:]
	}
	return nil
}

// setRoutes makes cs n's candidate list and reruns selection. n must be
// owned, and cs is n's from then on.
func (n *node) setRoutes(cs []*Route) {
	n.best[0] = selectBest(cs)
	switch {
	case len(cs) <= 1:
		n.more = nil
	case n.more != nil:
		*n.more = cs
	default:
		n.more = &cs
	}
}

// tokens issues owner tokens; 0 is never issued.
var tokens atomic.Uint64

// Table is a Loc-RIB: all candidate routes per prefix with best-path
// selection. A Table is not safe for concurrent use (the router
// serializes access), except that several goroutines may Clone and read
// one table that nobody writes.
type Table struct {
	root     *node
	prefixes int // number of prefixes with at least one candidate
	routes   int // total candidate routes
	// tok marks the nodes this table may write in place. Clone replaces
	// it; it is atomic because concurrent Clones of one frozen table all
	// replace it.
	tok atomic.Uint64
}

// New creates an empty table.
func New() *Table {
	t := &Table{}
	t.tok.Store(tokens.Add(1))
	return t
}

// Clone returns a table with the same routes in O(1). The two tables
// share every node until one of them writes it; a write copies the
// shared nodes on its path once, so neither table ever sees the other's
// changes.
func (t *Table) Clone() *Table {
	c := &Table{root: t.root, prefixes: t.prefixes, routes: t.routes}
	c.tok.Store(tokens.Add(1))
	t.tok.Store(tokens.Add(1))
	return c
}

// Prefixes returns the number of distinct prefixes present.
func (t *Table) Prefixes() int { return t.prefixes }

// Routes returns the total number of candidate routes.
func (t *Table) Routes() int { return t.routes }

// own returns n if the table holding token tok may write it in place,
// otherwise a copy that it may.
func own(n *node, tok uint64) *node {
	if n.owner == tok {
		return n
	}
	c := *n
	c.owner = tok
	if n.more != nil {
		cs := slices.Clone(*n.more)
		c.more = &cs
	}
	return &c
}

// compact returns what stands in n's place once n lost routes or a
// child: n while it still holds routes or forks, else its only child or
// nothing.
func compact(n *node) *node {
	if n.best[0] != nil || (n.children[0] != nil && n.children[1] != nil) {
		return n
	}
	if n.children[0] != nil {
		return n.children[0]
	}
	return n.children[1]
}

// commonBits returns the length of the longest prefix covering both a
// and b.
func commonBits(a, b netaddr.Prefix) int {
	return min(bits.LeadingZeros32(uint32(a.Addr()^b.Addr())), a.Bits(), b.Bits())
}

// lookup returns the node for exactly p, or nil.
func (t *Table) lookup(p netaddr.Prefix) *node {
	for n := t.root; n != nil && n.prefix.Covers(p); n = n.children[p.Bit(n.prefix.Bits())] {
		if n.prefix.Bits() == p.Bits() {
			return n
		}
	}
	return nil
}

// Change describes the effect of an insert/withdraw on the best route.
type Change struct {
	Prefix   netaddr.Prefix
	Old, New *Route // nil means no best route before/after
}

// Changed reports whether the best route actually changed.
func (c Change) Changed() bool { return c.Old != c.New }

// Insert adds (or replaces — the implicit withdraw of RFC 4271 §3.1) the
// route from the given peer and reruns selection for the prefix.
func (t *Table) Insert(r *Route) Change {
	p, tok := r.Prefix, t.tok.Load()
	slot := &t.root
	for {
		n := *slot
		if n == nil || !n.prefix.Covers(p) {
			*slot = t.graft(n, r, tok)
			return Change{Prefix: p, New: r}
		}
		n = own(n, tok)
		*slot = n
		if n.prefix.Bits() == p.Bits() {
			break
		}
		slot = &n.children[p.Bit(n.prefix.Bits())]
	}
	n := *slot
	old, cs := n.best[0], n.routes()
	if len(cs) == 0 {
		t.prefixes++
	}
	if i := slices.IndexFunc(cs, func(c *Route) bool { return sameSource(c, r) }); i >= 0 {
		cs[i] = r
	} else {
		cs = append(cs, r)
		t.routes++
	}
	n.setRoutes(cs)
	return Change{Prefix: p, Old: old, New: n.best[0]}
}

// graft returns a new subtree holding r's prefix alongside sibling, a
// subtree (or nil) whose prefix does not cover r's.
func (t *Table) graft(sibling *node, r *Route, tok uint64) *node {
	t.prefixes++
	t.routes++
	leaf := &node{owner: tok, prefix: r.Prefix, best: [1]*Route{r}}
	if sibling == nil {
		return leaf
	}
	common := commonBits(sibling.prefix, r.Prefix)
	if common == r.Prefix.Bits() {
		leaf.children[sibling.prefix.Bit(common)] = sibling
		return leaf
	}
	fork := &node{owner: tok, prefix: netaddr.PrefixFrom(r.Prefix.Addr(), common)}
	fork.children[r.Prefix.Bit(common)] = leaf
	fork.children[sibling.prefix.Bit(common)] = sibling
	return fork
}

// Withdraw removes the route for p learned from the given peer.
func (t *Table) Withdraw(p netaddr.Prefix, peerRouterID netaddr.Addr) Change {
	n := t.lookup(p)
	if n == nil || n.best[0] == nil {
		return Change{Prefix: p}
	}
	i := slices.IndexFunc(n.routes(), func(c *Route) bool { return c.PeerRouterID == peerRouterID && !c.Local })
	if i < 0 {
		return Change{Prefix: p, Old: n.best[0], New: n.best[0]}
	}
	// Own the path down to p's node, remembering the parent's slot: a
	// fork that loses a child is spliced out.
	tok := t.tok.Load()
	slot, parentSlot := &t.root, (**node)(nil)
	for {
		n = own(*slot, tok)
		*slot = n
		if n.prefix.Bits() == p.Bits() {
			break
		}
		parentSlot, slot = slot, &n.children[p.Bit(n.prefix.Bits())]
	}
	old := n.best[0]
	n.setRoutes(slices.Delete(n.routes(), i, i+1))
	t.routes--
	if n.best[0] != nil {
		return Change{Prefix: p, Old: old, New: n.best[0]}
	}
	t.prefixes--
	*slot = compact(n)
	if parentSlot != nil {
		*parentSlot = compact(*parentSlot)
	}
	return Change{Prefix: p, Old: old}
}

// WithdrawPeer removes every route learned from a peer (session down).
// It returns the changes for prefixes whose best route changed, in
// prefix order.
func (t *Table) WithdrawPeer(peerRouterID netaddr.Addr) []Change {
	var changes []Change
	t.root = t.withdrawPeer(t.root, peerRouterID, t.tok.Load(), &changes)
	return changes
}

// withdrawPeer withdraws the peer's routes under n and returns what
// stands in n's place; untouched subtrees come back unchanged and
// uncopied.
func (t *Table) withdrawPeer(n *node, peer netaddr.Addr, tok uint64, changes *[]Change) *node {
	if n == nil {
		return nil
	}
	fromPeer := func(c *Route) bool { return c.PeerRouterID == peer && !c.Local }
	if slices.ContainsFunc(n.routes(), fromPeer) {
		n = own(n, tok)
		old, cs := n.best[0], n.routes()
		t.routes -= len(cs)
		cs = slices.DeleteFunc(cs, fromPeer)
		t.routes += len(cs)
		n.setRoutes(cs)
		if len(cs) == 0 {
			t.prefixes--
		}
		if n.best[0] != old {
			*changes = append(*changes, Change{Prefix: n.prefix, Old: old, New: n.best[0]})
		}
	}
	for b, child := range n.children {
		if c := t.withdrawPeer(child, peer, tok, changes); c != child {
			n = own(n, tok)
			n.children[b] = c
		}
	}
	return compact(n)
}

// sameSource reports whether two candidates come from the same source and
// therefore replace one another.
func sameSource(a, b *Route) bool {
	if a.Local != b.Local {
		return false
	}
	if a.Local {
		return true
	}
	return a.PeerRouterID == b.PeerRouterID
}

// Best returns the selected route for exactly prefix p, or nil.
func (t *Table) Best(p netaddr.Prefix) *Route {
	if n := t.lookup(p); n != nil {
		return n.best[0]
	}
	return nil
}

// Candidates returns all candidate routes for exactly prefix p.
func (t *Table) Candidates(p netaddr.Prefix) []*Route {
	if n := t.lookup(p); n != nil {
		return slices.Clone(n.routes())
	}
	return nil
}

// LongestMatch returns the best route of the most specific prefix
// containing addr, or nil if none.
func (t *Table) LongestMatch(a netaddr.Addr) *Route {
	return t.CoveringBest(netaddr.PrefixFrom(a, 32))
}

// CoveringBest returns the best route for the longest prefix that covers p
// (including p itself), or nil.
func (t *Table) CoveringBest(p netaddr.Prefix) *Route {
	var last *Route
	for n := t.root; n != nil && n.prefix.Covers(p); n = n.children[p.Bit(n.prefix.Bits())] {
		if n.best[0] != nil {
			last = n.best[0]
		}
		if n.prefix.Bits() == p.Bits() {
			break
		}
	}
	return last
}

// walk visits n's subtree in prefix order — address, then length —
// skipping every subtree whose root prefix fails keep.
func walk(n *node, keep func(netaddr.Prefix) bool, fn func(*node) bool) bool {
	if n == nil || !keep(n.prefix) {
		return true
	}
	if n.best[0] != nil && !fn(n) {
		return false
	}
	return walk(n.children[0], keep, fn) && walk(n.children[1], keep, fn)
}

func all(netaddr.Prefix) bool { return true }

// Walk visits the best route of every prefix in prefix order.
func (t *Table) Walk(fn func(*Route) bool) {
	walk(t.root, all, func(n *node) bool { return fn(n.best[0]) })
}

// WalkCovered visits best routes of prefixes covered by p (p itself and
// more-specifics), in prefix order.
func (t *Table) WalkCovered(p netaddr.Prefix, fn func(*Route) bool) {
	n := t.root
	for n != nil && !p.Covers(n.prefix) {
		if !n.prefix.Covers(p) {
			return
		}
		n = n.children[p.Bit(n.prefix.Bits())]
	}
	walk(n, all, func(n *node) bool { return fn(n.best[0]) })
}

// WalkRange visits, in prefix order, the best route of every prefix at
// most maxBits long whose addresses intersect [lo, hi]. It reads only the
// subtrees that can hold one.
func (t *Table) WalkRange(lo, hi netaddr.Addr, maxBits int, fn func(*Route) bool) {
	keep := func(p netaddr.Prefix) bool {
		return p.Bits() <= maxBits && p.Addr() <= hi && p.Addr()|^netaddr.Mask(p.Bits()) >= lo
	}
	walk(t.root, keep, func(n *node) bool { return fn(n.best[0]) })
}

// WalkAll visits every prefix with its full candidate set in prefix
// order — used by checkpoint serialization, which needs the complete
// state, not just selected routes. The slice must not be modified.
func (t *Table) WalkAll(fn func(p netaddr.Prefix, candidates []*Route) bool) {
	walk(t.root, all, func(n *node) bool { return fn(n.prefix, n.routes()) })
}

// Dump returns all best routes in prefix order, for tests and the CLI.
func (t *Table) Dump() []*Route {
	out := make([]*Route, 0, t.prefixes)
	t.Walk(func(r *Route) bool {
		out = append(out, r)
		return true
	})
	return out
}
