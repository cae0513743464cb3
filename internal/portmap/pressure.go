package portmap

import (
	"math/bits"

	"bhive/internal/uarch"
)

// PortLoad is the port time bound to one allowed-port combination: Cycles
// port cycles of µops that may each run on any port in Ports (for the
// reference simulator, one cycle per pipelined µop, the occupancy for
// non-pipelined ones).
type PortLoad struct {
	Ports  uarch.PortSet
	Cycles int64
}

// SubsetPressure computes the pessimistic-assignment execution-port lower
// bound from a port-time profile, given as (combination, cycles) pairs.
// Pairs with the same combination add up, so callers may pass duplicates,
// but the enumeration is cheapest over distinct pairs; entries with no
// ports or no cycles are ignored.
//
// For any subset S of ports, every µop whose allowed combination is
// contained in S must execute inside S, and each port serves at most one
// µop-cycle per cycle, so any schedule needs at least
//
//	cost(S) / |S|  cycles, where  cost(S) = Σ Cycles over pairs with Ports ⊆ S.
//
// The returned value is the maximum of that ratio over all subsets of the
// ports that appear in load, together with the subset attaining it (the
// first one in submask-walk order from the union downwards). No LP is
// solved: the bound is the LP dual evaluated at the laziest feasible
// points, yet for fractional assignment it is exact (a deficiency form of
// Hall's theorem), which is what makes it usable as a *provable* bound
// rather than a heuristic. Subsets are enumerated over the union of the
// appearing combinations only, so the cost is at most 2^ports-in-use
// subsets times the number of pairs, with no allocation. Every cost(S) is
// an integer, so the ratios and the tie-break are exact.
func SubsetPressure(load []PortLoad) (float64, uarch.PortSet) {
	var union uarch.PortSet
	for _, l := range load {
		if l.Cycles > 0 {
			union |= l.Ports
		}
	}
	if union == 0 {
		return 0, 0
	}
	best, bestSet := 0.0, uarch.PortSet(0)
	// Enumerate every non-empty subset of union (standard submask walk).
	for s := union; s != 0; s = (s - 1) & union {
		var cost int64
		for _, l := range load {
			if l.Ports != 0 && l.Ports&^s == 0 {
				cost += l.Cycles
			}
		}
		if r := float64(cost) / float64(bits.OnesCount16(uint16(s))); r > best {
			best, bestSet = r, s
		}
	}
	return best, bestSet
}
