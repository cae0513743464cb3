package models

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"bhive/internal/uarch"
)

// simUop is a micro-op in the model's view of the machine.
type simUop struct {
	ports     uarch.PortSet
	lat       int
	occ       int  // non-pipelined unit occupancy
	isLoad    bool // load µops depend only on address registers
	fusedLoad bool // a load folded into this µop (see fuseLoadUops)
	class     uarch.UopClass
}

// name labels the µop in schedule traces.
func (u *simUop) name() string {
	if u.fusedLoad {
		return "load+" + u.class.String()
	}
	return u.class.String()
}

// simInst is a model's description of one instruction.
type simInst struct {
	uops  []simUop
	fused int

	addr, data, writes []uint8

	zeroIdiom bool
	elimMove  bool
}

const (
	simRegs = 33

	// simWindow is the ROB-ish bound on in-flight µops.
	simWindow = 192
	// simMaxCycles is the runaway guard: a schedule still incomplete after
	// this many cycles is abandoned.
	simMaxCycles = 10_000_000
)

// errUnschedulable reports a block the model's machine can never finish:
// an instruction wider than the issue width, or a µop with no port.
var errUnschedulable = errors.New("models: block cannot be scheduled (runaway guard reached)")

// simScratch is the models' scheduler. prepare unrolls a block's
// dependence graph once into flat CSR arrays; run then schedules any
// prefix of those iterations: instruction i's edges depend only on the
// instructions before it, so the graph of k iterations is the first k
// iterations of the graph of 2k. Every slice is reused across calls
// through simPool, so a warm scratch schedules without allocating.
type simScratch struct {
	insts         []simInst
	width, nports int
	perIter       int // µops per iteration (every iteration has the same)

	// The block's µops, flattened: spec index specLo[i]+u is µop u of
	// instruction i, its ports restricted to the machine's.
	specLo []int32
	specs  []simUop

	instLo []int32 // per unrolled instruction: first µop id, +1 sentinel
	spec   []int32 // per µop: spec index
	depLo  []int32 // per µop, +1 sentinel: producer range in deps
	deps   []int32
	useLo  []int32 // per µop, +1 sentinel: consumer range in uses
	uses   []int32 // ascending consumer ids

	pending  []int32  // producers not yet issued
	readyAt  []int64  // max doneAt over the issued producers
	doneAt   []int64  // -1 until issued
	ready    []uint64 // bitset: allocated, unissued, pending == 0
	portBusy []int64  // busy-until for non-pipelined units
}

var simPool = sync.Pool{New: func() any { return new(simScratch) }}

// grow returns s[:n], reallocating when the capacity is short. The
// returned contents are unspecified; callers overwrite them.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prepare builds the dependence graph of iters copies of the block on a
// width-wide machine with nports ports.
func (s *simScratch) prepare(insts []simInst, width, nports, iters int) {
	s.insts, s.width, s.nports = insts, width, nports
	portMask := uarch.PortSet(1<<nports - 1)

	s.specLo = grow(s.specLo, len(insts)+1)
	s.specs = s.specs[:0]
	perIter := 0
	for i := range insts {
		s.specLo[i] = int32(len(s.specs))
		for _, su := range insts[i].uops {
			su.ports &= portMask
			s.specs = append(s.specs, su)
		}
		if !insts[i].zeroIdiom && !insts[i].elimMove {
			perIter += len(insts[i].uops)
		}
	}
	s.specLo[len(insts)] = int32(len(s.specs))
	s.perIter = perIter

	// Unroll and build dependence edges.
	total := len(insts) * iters
	n := perIter * iters
	s.instLo = grow(s.instLo, total+1)
	s.spec = grow(s.spec, n)
	s.depLo = grow(s.depLo, n+1)
	deps := s.deps[:0]
	var lastWriter [simRegs]int32
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	id := int32(0)
	for k, i := 0, 0; k < total; k, i = k+1, i+1 {
		if i == len(insts) {
			i = 0
		}
		in := &insts[i]
		s.instLo[k] = id
		if in.zeroIdiom {
			for _, w := range in.writes {
				lastWriter[w] = -1
			}
			continue
		}
		if in.elimMove {
			src := int32(-1)
			if len(in.data) > 0 {
				src = lastWriter[in.data[0]]
			}
			for _, w := range in.writes {
				lastWriter[w] = src
			}
			continue
		}
		hasLoad := false
		for u := range in.uops {
			if in.uops[u].isLoad {
				hasLoad = true
			}
		}
		var last, loadID int32 = -1, -1
		for u := range in.uops {
			s.depLo[id] = int32(len(deps))
			if in.uops[u].isLoad {
				// Loads wait only on address registers — this is what lets
				// hardware (and IACA) hoist an independent load ahead of
				// the dependent computation that consumes it.
				for _, r := range in.addr {
					if p := lastWriter[r]; p >= 0 {
						deps = append(deps, p)
					}
				}
			} else {
				for _, r := range in.data {
					if p := lastWriter[r]; p >= 0 {
						deps = append(deps, p)
					}
				}
				if !hasLoad {
					// Store-address computation and fused load+op shapes
					// consume the addressing registers directly.
					for _, r := range in.addr {
						if p := lastWriter[r]; p >= 0 {
							deps = append(deps, p)
						}
					}
				}
				if loadID >= 0 {
					deps = append(deps, loadID)
				}
				if last >= 0 {
					deps = append(deps, last)
				}
			}
			s.spec[id] = s.specLo[i] + int32(u)
			if in.uops[u].isLoad {
				loadID = id
			} else {
				last = id
			}
			id++
		}
		if len(in.uops) > 0 {
			for _, w := range in.writes {
				lastWriter[w] = id - 1
			}
		}
	}
	s.instLo[total] = id
	s.depLo[n] = int32(len(deps))
	s.deps = deps

	// Consumer lists, filled in ascending consumer order.
	s.useLo = grow(s.useLo, n+1)
	clear(s.useLo)
	for _, p := range deps {
		s.useLo[p+1]++
	}
	for c := 0; c < n; c++ {
		s.useLo[c+1] += s.useLo[c]
	}
	s.uses = grow(s.uses, len(deps))
	cursor := grow(s.pending, n)
	copy(cursor, s.useLo[:n])
	for c := int32(0); c < int32(n); c++ {
		for _, p := range deps[s.depLo[c]:s.depLo[c+1]] {
			s.uses[cursor[p]] = c
			cursor[p]++
		}
	}
	s.pending = cursor
}

// run schedules the first iters iterations of the prepared graph, which
// must have been prepared for at least iters, allocating width fused µops
// per cycle and issuing oldest-first to the lowest free port. It returns
// the total cycles, and false when the runaway guard stopped the
// schedule. With trace non-nil it appends one entry per issued µop, its
// Inst taken from texts.
func (s *simScratch) run(iters int, texts []string, trace *[]ScheduleEntry) (int64, bool) {
	insts := s.insts
	total := len(insts) * iters
	n := s.perIter * iters
	if n == 0 {
		// Pure zero-idiom/eliminated blocks retire at the rename width.
		fused := 0
		for i := range insts {
			fused += insts[i].fused
		}
		return int64((fused*iters + s.width - 1) / s.width), true
	}

	pending := s.pending[:n]
	readyAt := grow(s.readyAt, n)
	doneAt := grow(s.doneAt, n)
	ready := grow(s.ready, (n+63)>>6)
	portBusy := grow(s.portBusy, s.nports)
	s.readyAt, s.doneAt, s.ready, s.portBusy = readyAt, doneAt, ready, portBusy
	for c := range pending {
		pending[c] = s.depLo[c+1] - s.depLo[c]
		readyAt[c] = 0
		doneAt[c] = -1
	}
	clear(ready)
	allPorts := uarch.PortSet(1<<s.nports - 1)
	var busy uarch.PortSet // ports whose portBusy may still be ahead

	var (
		cycle     int64
		lastDone  int64
		nextInst  int // next unrolled instruction to allocate
		nextBlock int // nextInst modulo the block length
		allocated int // µops allocated so far: ids [0, allocated)
		oldest    int // lowest unissued µop id
		completed int
		inFlight  int
	)
	for completed < n {
		// Allocate.
		didAlloc := false
		budget := s.width
		for nextInst < total && budget > 0 {
			f := insts[nextBlock].fused
			hi := int(s.instLo[nextInst+1])
			if f > budget || inFlight+hi-allocated > simWindow {
				break
			}
			budget -= f
			for id := allocated; id < hi; id++ {
				if pending[id] == 0 {
					ready[id>>6] |= 1 << (id & 63)
				}
			}
			inFlight += hi - allocated
			allocated = hi
			nextInst++
			if nextBlock++; nextBlock == len(insts) {
				nextBlock = 0
			}
			didAlloc = true
		}

		// Issue, oldest first, from the ready set.
		for b := busy; b != 0; b &= b - 1 {
			if p := bits.TrailingZeros16(uint16(b)); portBusy[p] <= cycle {
				busy &^= 1 << p
			}
		}
		avail := allPorts &^ busy
		didIssue := false
		next := int64(math.MaxInt64) // earliest readyAt still in the future
		for w := oldest >> 6; avail != 0 && w<<6 < allocated; w++ {
			for word := ready[w]; word != 0 && avail != 0; {
				b := bits.TrailingZeros64(word)
				id := w<<6 | b
				word &= word - 1
				if readyAt[id] > cycle {
					next = min(next, readyAt[id])
					continue
				}
				sp := &s.specs[s.spec[id]]
				free := sp.ports & avail
				if free == 0 {
					continue
				}
				port := bits.TrailingZeros16(uint16(free))
				avail &^= 1 << port
				if sp.occ > 0 {
					portBusy[port] = cycle + int64(sp.occ)
					busy |= 1 << port
				}
				done := cycle + int64(sp.lat)
				doneAt[id] = done
				lastDone = max(lastDone, done)
				ready[w] &^= 1 << b
				for _, c := range s.uses[s.useLo[id]:s.useLo[id+1]] {
					if int(c) >= n {
						break // beyond this run's prefix
					}
					readyAt[c] = max(readyAt[c], done)
					if pending[c]--; pending[c] == 0 && int(c) < allocated {
						ready[c>>6] |= 1 << (c & 63)
					}
				}
				if trace != nil {
					*trace = append(*trace, ScheduleEntry{
						Iteration: id / s.perIter,
						Inst:      texts[s.specInst(s.spec[id])],
						Uop:       sp.name(),
						Dispatch:  cycle,
						Complete:  done,
					})
				}
				completed++
				inFlight--
				didIssue = true
				// A zero-latency issue can ready a younger µop in this
				// same word: re-read it above the issued bit.
				word = ready[w] &^ (1<<(b+1) - 1)
			}
		}
		for oldest < allocated && doneAt[oldest] >= 0 {
			oldest++
		}

		if didAlloc || didIssue {
			cycle++
		} else {
			// Nothing changes until a waiting µop's inputs arrive or a
			// busy unit frees; with neither, the schedule is stuck.
			for b := busy; b != 0; b &= b - 1 {
				next = min(next, portBusy[bits.TrailingZeros16(uint16(b))])
			}
			cycle = min(next, simMaxCycles+1)
		}
		if cycle > simMaxCycles {
			return max(cycle, lastDone+1), false
		}
	}
	// Drain: account for the last completions.
	return max(cycle, lastDone+1), true
}

// specInst returns the block instruction a spec index belongs to.
func (s *simScratch) specInst(sp int32) int {
	i := 0
	for s.specLo[i+1] <= sp {
		i++
	}
	return i
}

// schedule runs the scheduler over iters iterations and returns the trace;
// texts renders each block instruction.
func schedule(insts []simInst, texts []string, width, nports, iters int) ([]ScheduleEntry, error) {
	s := simPool.Get().(*simScratch)
	defer func() {
		s.insts = nil // the pool must not keep the block alive
		simPool.Put(s)
	}()
	s.prepare(insts, width, nports, iters)
	var trace []ScheduleEntry
	if _, ok := s.run(iters, texts, &trace); !ok {
		return nil, errUnschedulable
	}
	return trace, nil
}

// derivedPrediction runs the scheduler at two iteration counts and returns
// the marginal cost per iteration — the same steady-state definition the
// measurement framework uses.
func derivedPrediction(insts []simInst, width, nports, blockLen int) (float64, error) {
	k := 12
	if blockLen > 0 && 100/blockLen > k {
		k = 100 / blockLen
	}
	if k > 60 {
		k = 60
	}
	s := simPool.Get().(*simScratch)
	defer func() {
		s.insts = nil // the pool must not keep the block alive
		simPool.Put(s)
	}()
	s.prepare(insts, width, nports, 2*k)
	c1, ok1 := s.run(k, nil, nil)
	c2, ok2 := s.run(2*k, nil, nil)
	if !ok1 || !ok2 {
		return 0, errUnschedulable
	}
	tp := float64(c2-c1) / float64(k)
	if tp < 0 {
		tp = float64(c2) / float64(2*k)
	}
	return tp, nil
}

var errEmptyBlock = fmt.Errorf("models: empty basic block")
