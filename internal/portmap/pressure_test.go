package portmap

import (
	"math"
	"math/rand"
	"testing"

	"bhive/internal/uarch"
)

func TestSubsetPressure(t *testing.T) {
	p := uarch.Ports
	cases := []struct {
		name string
		load []PortLoad
		want float64
		set  uarch.PortSet
	}{
		{"empty", nil, 0, 0},
		{"single port", []PortLoad{{p(0), 3}}, 3, p(0)},
		{"two spreadable", []PortLoad{{p(0, 1), 4}}, 2, p(0, 1)},
		// Restricted µops force the shared subset even though the wide
		// combination alone would spread: {0,1} holds 1+1+2 = 4 over 2.
		{"hall deficiency", []PortLoad{{p(0), 1}, {p(1), 1}, {p(0, 1), 2}}, 2, p(0, 1)},
		// The narrow subset binds when the restricted load dominates.
		{"narrow binds", []PortLoad{{p(0), 5}, {p(0, 1, 2), 3}}, 5, p(0)},
		// Zero and unconstrained (PortSet 0) entries are ignored.
		{"ignores zero", []PortLoad{{p(0), 0}, {0, 7}}, 0, 0},
		// Duplicate combinations add up.
		{"duplicates add", []PortLoad{{p(0), 2}, {p(0, 1), 1}, {p(0), 3}}, 5, p(0)},
	}
	for _, c := range cases {
		got, set := SubsetPressure(c.load)
		if math.Abs(got-c.want) > 1e-9 || set != c.set {
			t.Errorf("%s: got %.4f on %s, want %.4f on %s", c.name, got, set, c.want, c.set)
		}
		if ref, refSet := subsetPressureMap(loadMap(c.load)); got != ref || set != refSet {
			t.Errorf("%s: got %.4f on %s, map reference %.4f on %s", c.name, got, set, ref, refSet)
		}
	}
}

// subsetPressureMap is the map-keyed form SubsetPressure replaced, kept as
// the reference: the same submask walk and strict > over float costs.
func subsetPressureMap(load map[uarch.PortSet]float64) (float64, uarch.PortSet) {
	var union uarch.PortSet
	for m, v := range load {
		if v > 0 && m != 0 {
			union |= m
		}
	}
	if union == 0 {
		return 0, 0
	}
	best, bestSet := 0.0, uarch.PortSet(0)
	for s := union; s != 0; s = (s - 1) & union {
		cost := 0.0
		for m, v := range load {
			if m != 0 && m&^s == 0 {
				cost += v
			}
		}
		if r := cost / float64(s.Count()); r > best {
			best, bestSet = r, s
		}
	}
	return best, bestSet
}

func loadMap(load []PortLoad) map[uarch.PortSet]float64 {
	m := make(map[uarch.PortSet]float64)
	for _, l := range load {
		m[l.Ports] += float64(l.Cycles)
	}
	return m
}

// TestSubsetPressureMatchesMap checks the pair-list form against the map
// reference on random profiles, tie-break included: small port universes
// and small costs make exactly tied subsets common.
func TestSubsetPressureMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		nports := 1 + rng.Intn(10)
		var load []PortLoad
		for k := rng.Intn(12); k > 0; k-- {
			ports := uarch.PortSet(rng.Intn(1 << nports))
			load = append(load, PortLoad{ports, int64(rng.Intn(8))})
		}
		got, set := SubsetPressure(load)
		want, wantSet := subsetPressureMap(loadMap(load))
		if got != want || set != wantSet {
			t.Fatalf("%v: got %v on %s, map reference %v on %s", load, got, set, want, wantSet)
		}
	}
}

// TestSubsetPressureLowerBoundsSchedule checks the defining property on a
// brute-forced instance: no integral assignment of µops to allowed ports
// can finish in fewer cycles than the subset bound.
func TestSubsetPressureLowerBoundsSchedule(t *testing.T) {
	p := uarch.Ports
	load := []PortLoad{
		{p(0), 2},
		{p(0, 1), 3},
		{p(1, 5), 1},
		{p(5), 2},
	}
	bound, _ := SubsetPressure(load)

	// Enumerate every assignment of the 8 unit µops to a port in their
	// combination and take the best makespan.
	type uop struct{ ports []int }
	var uops []uop
	for _, l := range load {
		var ps []int
		for i := 0; i < 16; i++ {
			if l.Ports.Has(i) {
				ps = append(ps, i)
			}
		}
		for k := int64(0); k < l.Cycles; k++ {
			uops = append(uops, uop{ports: ps})
		}
	}
	best := math.Inf(1)
	var rec func(i int, used map[int]int)
	rec = func(i int, used map[int]int) {
		if i == len(uops) {
			worst := 0
			for _, n := range used {
				if n > worst {
					worst = n
				}
			}
			best = math.Min(best, float64(worst))
			return
		}
		for _, pt := range uops[i].ports {
			used[pt]++
			rec(i+1, used)
			used[pt]--
		}
	}
	rec(0, map[int]int{})

	if bound > best+1e-9 {
		t.Fatalf("subset bound %.4f exceeds the best schedule %.4f", bound, best)
	}
	// The bound is exact for fractional assignment; integral schedules can
	// only round up. For this instance (8 unit µops over {0,1,5}) the gap
	// is exactly the ceiling.
	if math.Ceil(bound-1e-9) != best {
		t.Fatalf("ceil of subset bound %.4f should meet the best schedule %.4f", bound, best)
	}
}
