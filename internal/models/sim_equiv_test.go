package models

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// byteReader hands out fuzz bytes, then zeros once they run out.
type byteReader []byte

func (r *byteReader) next() int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b)
}

// decodeSimBlock turns bytes into a random block the scheduler can always
// finish: every fused count fits the width and every µop has a port.
// Runaway shapes are covered by hand in TestSimulateRunawayMatchesReference,
// because the reference needs ~0.2 s to reach its guard.
func decodeSimBlock(data []byte) (insts []simInst, texts []string, width, nports, k int) {
	r := byteReader(data)
	width = 4 + r.next()%2
	nports = 6 + r.next()%5
	k = 1 + r.next()%16
	ninst := 1 + r.next()%8
	regs := func() []uint8 {
		var out []uint8
		for n := r.next() % 3; n > 0; n-- {
			out = append(out, uint8(r.next()%6))
		}
		return out
	}
	for i := 0; i < ninst; i++ {
		flags := r.next()
		in := simInst{
			fused:     1 + r.next()%width,
			zeroIdiom: flags%8 == 1,
			elimMove:  flags%8 == 2,
		}
		in.addr, in.data, in.writes = regs(), regs(), regs()
		for u := r.next() % 5; u > 0; u-- {
			ports := uarch.PortSet(r.next()|r.next()<<8) & (1<<nports - 1)
			if ports == 0 {
				ports = uarch.Ports(r.next() % nports)
			}
			su := simUop{
				ports:     ports,
				isLoad:    r.next()%4 == 0,
				class:     uarch.UopClass(r.next() % 20),
				fusedLoad: r.next()%8 == 0,
			}
			if lat := r.next(); lat%3 != 0 { // a third are zero-latency
				su.lat = 1 + lat%12
			}
			if occ := r.next(); occ%4 == 0 {
				su.occ = occ % 26
			}
			in.uops = append(in.uops, su)
		}
		insts = append(insts, in)
		texts = append(texts, "i"+strconv.Itoa(i))
	}
	return insts, texts, width, nports, k
}

// checkAgainstReference prepares the block once for 2k iterations, as
// derivedPrediction does, and compares the cycle counts and traces at k
// and 2k with the per-cycle reference.
func checkAgainstReference(t *testing.T, insts []simInst, texts []string, width, nports, k int) {
	t.Helper()
	var s simScratch
	s.prepare(insts, width, nports, 2*k)
	for _, iters := range []int{k, 2 * k} {
		var got, want []ScheduleEntry
		c, ok := s.run(iters, texts, &got)
		ref := simulateRef(insts, texts, width, nports, iters, &want)
		if c != ref {
			t.Fatalf("iters %d: cycles %d, reference %d", iters, c, ref)
		}
		if ok != (ref <= simMaxCycles) {
			t.Fatalf("iters %d: ok=%v at %d cycles", iters, ok, c)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iters %d: schedule diverged\n got  %v\n want %v", iters, got, want)
		}
	}
}

func TestSimulateMatchesReference(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 300
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 160)
	for i := 0; i < n; i++ {
		rng.Read(data)
		insts, texts, width, nports, k := decodeSimBlock(data)
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			checkAgainstReference(t, insts, texts, width, nports, k)
		})
	}
}

// TestSimulateRunawayMatchesReference covers the two shapes that never
// finish: an instruction wider than the issue width stalls allocation, and
// a µop with no port never issues. The prepared scheduler skips straight
// to the guard and must still report the reference's count and trace.
func TestSimulateRunawayMatchesReference(t *testing.T) {
	alu := simUop{ports: uarch.Ports(0, 1), lat: 1, class: uarch.ClassIntALU}
	cases := map[string][]simInst{
		"fused>width": {
			{uops: []simUop{alu}, fused: 1, data: []uint8{0}, writes: []uint8{0}},
			{uops: []simUop{alu, alu}, fused: 5, data: []uint8{0}, writes: []uint8{1}},
		},
		"no port": {
			{uops: []simUop{alu}, fused: 1, data: []uint8{0}, writes: []uint8{0}},
			{uops: []simUop{{class: uarch.ClassIntALU, lat: 1}}, fused: 1, data: []uint8{0}, writes: []uint8{2}},
		},
	}
	for name, insts := range cases {
		t.Run(name, func(t *testing.T) {
			checkAgainstReference(t, insts, []string{"a", "b"}, 4, 8, 1)
			if _, err := derivedPrediction(insts, 4, 8, len(insts)); !errors.Is(err, errUnschedulable) {
				t.Fatalf("derivedPrediction error %v, want errUnschedulable", err)
			}
		})
	}
}

// TestRunawayIsAnError pins the fix for runaway schedules: both runs used
// to stop at the same guard, so the marginal cost came out as 0
// cycles/iteration. A read-modify-write add is two fused µops; on a
// one-wide machine it can never allocate.
func TestRunawayIsAnError(t *testing.T) {
	narrow := *uarch.Haswell()
	narrow.IssueWidth = 1
	b := parse(t, "add qword ptr [rbx], rax\nadd rcx, rax")
	if d, err := narrow.Describe(&b.Insts[0]); err != nil || d.FusedUops <= narrow.IssueWidth {
		t.Fatalf("want a fused count above the width, got %+v, %v", d, err)
	}
	for _, m := range []Predictor{NewIACA(&narrow), NewLLVMMCA(&narrow)} {
		if p, err := m.Predict(b); !errors.Is(err, errUnschedulable) {
			t.Errorf("%s: Predict = %v, %v; want errUnschedulable", m.Name(), p, err)
		}
		if _, err := m.(ScheduleTracer).Schedule(b, 2); !errors.Is(err, errUnschedulable) {
			t.Errorf("%s: Schedule error %v, want errUnschedulable", m.Name(), err)
		}
	}
	if _, err := Report(&narrow, b); !errors.Is(err, errUnschedulable) {
		t.Errorf("Report error %v, want errUnschedulable", err)
	}
}

func FuzzModelSimulateEquivalence(f *testing.F) {
	f.Add([]byte{0, 2, 11, 3, 0, 1, 1, 1, 3, 0, 1, 2, 1, 3, 6, 0, 2, 5, 9, 4})
	f.Add([]byte{1, 4, 7, 7, 2, 4, 1, 2, 1, 0, 0, 2, 3, 3, 0, 255, 4, 0, 3, 3, 4, 8})
	f.Add([]byte{1, 0, 15, 5, 1, 3, 2, 1, 1, 1, 4, 1, 2, 2, 4, 3, 7, 1, 0, 1, 4, 100, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		insts, texts, width, nports, k := decodeSimBlock(data)
		checkAgainstReference(t, insts, texts, width, nports, k)
	})
}

// TestPredictAllocs guards the pooled scheduler: once the scratch has grown
// to the block's size, a Predict allocates only the model's view of the
// block (the instruction slice and one µop array), never per µop or per
// cycle. The per-cycle scheduler allocated 659 times on this block; the
// slack over 2 absorbs rare pool-miss refills under concurrent GC.
func TestPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	b, err := x86.ParseBlock(crcBlock, x86.SyntaxATT)
	if err != nil {
		t.Fatal(err)
	}
	hsw := uarch.Haswell()
	for _, m := range []Predictor{NewIACA(hsw), NewLLVMMCA(hsw)} {
		if _, err := m.Predict(b); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(200, func() {
			if _, err := m.Predict(b); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 4 {
			t.Errorf("%s.Predict allocates %.1f times per call; want <= 4", m.Name(), avg)
		}
	}
}
