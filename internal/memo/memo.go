// Package memo is the process-wide memoization layer for per-instruction
// derivations that the profiler, the analytical models, the bound
// analysis and the classifier otherwise re-compute for every dynamic
// instruction: machine-code encoding, the microarchitecture-specific µop
// decomposition / port-table lookup, and the pipeline register-use sets.
//
// There is one table with one entry per distinct instruction value
// (opcode + operands). An entry holds the µarch-independent facts and one
// slot per microarchitecture name with both µop views, so every consumer
// resolves an instruction with a single lookup. Entries are immutable
// once published: callers must treat returned slices as read-only, which
// every consumer in this repository does (the pipeline copies µop specs
// before mutating latencies).
package memo

import (
	"sync"
	"sync/atomic"

	"bhive/internal/uarch"
	"bhive/internal/x86"
)

// maxArgs is the operand-count ceiling for memoizable instructions; x86
// instructions in this subset carry at most three operands, so the
// fallback (direct computation, no caching) is effectively never taken.
const maxArgs = 4

// instKey is the comparable identity of an instruction value: the opcode,
// the operand count and every x86.Operand and x86.Mem field, one array per
// field. It holds no strings, no interfaces and, by the choice of field
// order and widths, no implicit padding (TestKeyPaddingFree), so the
// runtime treats it as regular memory and hashes it with a single memhash
// call instead of walking it field by field. Unused operand slots stay
// zero.
type instKey struct {
	imm                                 [maxArgs]int64
	disp                                [maxArgs]int32
	op, n                               uint32
	kind, reg, base, index, scale, size [maxArgs]uint8
}

// keyOf builds the memo key; ok is false for instructions with too many
// operands to be representable (these fall back to direct computation).
func keyOf(in *x86.Inst) (k instKey, ok bool) {
	if len(in.Args) > maxArgs {
		return instKey{}, false
	}
	k.op, k.n = uint32(in.Op), uint32(len(in.Args))
	for i := range in.Args {
		a := &in.Args[i]
		k.imm[i], k.disp[i] = a.Imm, a.Mem.Disp
		k.kind[i], k.reg[i] = uint8(a.Kind), uint8(a.Reg)
		k.base[i], k.index[i] = uint8(a.Mem.Base), uint8(a.Mem.Index)
		k.scale[i], k.size[i] = a.Mem.Scale, a.Mem.Size
	}
	return k, true
}

// Facts are an instruction's µarch-independent derivations.
type Facts struct {
	// Raw is the machine-code encoding; EncErr is x86.Encode's error.
	Raw    []byte
	EncErr error
	// LCP marks encodings with a length-changing prefix (0x66 shrinking an
	// immediate), which stall the modeled predecoder.
	LCP bool
	// Addr, Data and Writes are the register-use sets on the pipeline
	// register ids (0–15 GPRs by 64-bit base, 16–31 vector registers by
	// YMM base, RegFlags the flags).
	Addr, Data, Writes []uint8
}

// PreparedInst is every derivation of one instruction on one µarch.
// Entries are immutable and shared: callers must not mutate any field.
type PreparedInst struct {
	*Facts
	// Desc and DescErr are cpu.Describe's result; DescRaw and DescRawErr
	// are cpu.DescribeRaw's (no rename-time elimination).
	Desc       uarch.Desc
	DescErr    error
	DescRaw    uarch.Desc
	DescRawErr error
	// Err is the first error of encoding then description; the successful
	// derivations are still populated.
	Err error

	cpu  string
	next *PreparedInst // the entry's previously published slot
}

// entry is one instruction's table entry: its facts and a list of µarch
// slots. A slot is immutable once published; mu serializes publication,
// which prepends a slot and swaps the head.
type entry struct {
	Facts
	mu    sync.Mutex
	slots atomic.Pointer[PreparedInst]
}

var table sync.Map // instKey -> *entry

// lookup returns the instruction's entry, creating it on a miss, or nil
// when the instruction is not memoizable.
func lookup(in *x86.Inst) *entry {
	k, ok := keyOf(in)
	if !ok {
		return nil
	}
	if v, hit := table.Load(k); hit {
		return v.(*entry)
	}
	v, _ := table.LoadOrStore(k, &entry{Facts: factsOf(in)})
	return v.(*entry)
}

// Prepared returns the memo entry for (instruction, µarch). µarch slots
// match on CPU name, so a perturbed copy under its own name gets its own
// descriptors. A missing slot is computed from in; the entry keeps no
// copy of the instruction.
func Prepared(cpu *uarch.CPU, in *x86.Inst) *PreparedInst {
	e := lookup(in)
	if e == nil {
		f := factsOf(in)
		return prepare(cpu, in, &f)
	}
	if p := e.slot(cpu.Name); p != nil {
		return p
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if p := e.slot(cpu.Name); p != nil {
		return p
	}
	p := prepare(cpu, in, &e.Facts)
	p.next = e.slots.Load()
	e.slots.Store(p)
	return p
}

func (e *entry) slot(cpu string) *PreparedInst {
	for p := e.slots.Load(); p != nil; p = p.next {
		if p.cpu == cpu {
			return p
		}
	}
	return nil
}

func prepare(cpu *uarch.CPU, in *x86.Inst, f *Facts) *PreparedInst {
	p := &PreparedInst{Facts: f, cpu: cpu.Name}
	p.Desc, p.DescErr = cpu.Describe(in)
	p.DescRaw, p.DescRawErr = cpu.DescribeRaw(in)
	p.Err = f.EncErr
	if p.Err == nil {
		p.Err = p.DescErr
	}
	return p
}

// Encode is x86.Encode memoized by instruction. The returned byte slice is
// shared: callers must not mutate it.
func Encode(in *x86.Inst) ([]byte, error) {
	if e := lookup(in); e != nil {
		return e.Raw, e.EncErr
	}
	return x86.Encode(*in)
}

func factsOf(in *x86.Inst) Facts {
	var f Facts
	f.Raw, f.EncErr = x86.Encode(*in)
	f.LCP = x86.LengthChangingPrefix(f.Raw)
	f.Addr, f.Data, f.Writes = regSets(in)
	return f
}

// RegFlags is the pipeline's status-flags register id (kept in sync with
// pipeline.RegFlags by TestRegFlagsMatchesPipeline).
const RegFlags = 32

// regSets maps an instruction's register usage onto the pipeline register
// ids.
func regSets(in *x86.Inst) (addr, data, writes []uint8) {
	id := func(r x86.Reg) (uint8, bool) {
		switch b := r.Base64(); b.Class() {
		case x86.ClassGP64:
			return uint8(b.Num()), true
		case x86.ClassYMM:
			return uint8(16 + b.Num()), true
		}
		return 0, false
	}
	for k, a := range in.Args {
		switch a.Kind {
		case x86.KindReg:
			r, w := in.ArgIO(k)
			// Sub-register writes merge, hence also read (RegReads models
			// this); replicate that rule here.
			merge := w && (a.Reg.Class() == x86.ClassGP8 || a.Reg.Class() == x86.ClassGP16)
			if r || merge {
				if n, ok := id(a.Reg); ok {
					data = append(data, n)
				}
			}
			if w {
				if n, ok := id(a.Reg); ok {
					writes = append(writes, n)
				}
			}
		case x86.KindMem:
			if n, ok := id(a.Mem.Base); ok {
				addr = append(addr, n)
			}
			if n, ok := id(a.Mem.Index); ok {
				addr = append(addr, n)
			}
		}
	}
	for _, r := range in.Op.ImplicitReads() {
		if n, ok := id(r); ok {
			data = append(data, n)
		}
	}
	for _, r := range in.Op.ImplicitWrites() {
		if n, ok := id(r); ok {
			writes = append(writes, n)
		}
	}
	if in.Op.ReadsFlags() {
		data = append(data, RegFlags)
	}
	if in.Op.WritesFlags() {
		writes = append(writes, RegFlags)
	}
	return addr, data, writes
}
