package rib

// The BGP decision process (RFC 4271 §9.1.2.2), in BIRD's ordering:
//
//  1. Locally originated routes win.
//  2. Highest LOCAL_PREF (default 100 when absent).
//  3. Shortest AS_PATH (AS_SET counts as 1).
//  4. Lowest ORIGIN (IGP < EGP < Incomplete).
//  5. Lowest MED, compared only between routes from the same neighbor AS
//     (missing MED treated as 0, i.e. best).
//  6. eBGP-learned preferred over iBGP-learned.
//  7. Lowest peer router ID (the deterministic tiebreak).

// defaultLocalPref is assumed when LOCAL_PREF is absent (RFC 4271 §9.1.1
// leaves this to policy; 100 is the universal vendor default).
const defaultLocalPref = 100

func localPref(r *Route) uint32 {
	if r.Attrs.HasLocalPref {
		return r.Attrs.LocalPref
	}
	return defaultLocalPref
}

func med(r *Route) uint32 {
	if r.Attrs.HasMED {
		return r.Attrs.MED
	}
	return 0
}

// better reports whether a is preferred over b by the decision process.
func better(a, b *Route) bool {
	// Step 1: local routes first.
	if a.Local != b.Local {
		return a.Local
	}
	// Step 2: LOCAL_PREF, higher wins.
	if la, lb := localPref(a), localPref(b); la != lb {
		return la > lb
	}
	// Step 3: AS_PATH length, shorter wins.
	if pa, pb := a.Attrs.ASPath.Length(), b.Attrs.ASPath.Length(); pa != pb {
		return pa < pb
	}
	// Step 4: ORIGIN, lower wins.
	if a.Attrs.Origin != b.Attrs.Origin {
		return a.Attrs.Origin < b.Attrs.Origin
	}
	// Step 5: MED, lower wins, only comparable from the same neighbor AS.
	if a.PeerAS == b.PeerAS {
		if ma, mb := med(a), med(b); ma != mb {
			return ma < mb
		}
	}
	// Step 6: eBGP over iBGP.
	if a.EBGP != b.EBGP {
		return a.EBGP
	}
	// Step 7: lowest peer router ID.
	return a.PeerRouterID < b.PeerRouterID
}

// selectBest runs best-path selection over a candidate set. The result
// depends on candidate order (MED comparison is not transitive), so
// callers keep candidates in arrival order.
func selectBest(candidates []*Route) *Route {
	var best *Route
	for _, c := range candidates {
		if best == nil || better(c, best) {
			best = c
		}
	}
	return best
}
