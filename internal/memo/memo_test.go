package memo

import (
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"bhive/internal/corpus"
	"bhive/internal/uarch"
	"bhive/internal/x86"
)

func parse(t *testing.T, text string) *x86.Block {
	t.Helper()
	b, err := x86.ParseBlock(text, x86.SyntaxAuto)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

// TestDescribeMatchesDirect checks, over every instruction of a generated
// corpus on every µarch plus a perturbed one, that the memoized entry is
// indistinguishable from direct computation — on the miss and the hit
// path — and that equal instructions decoded separately share one entry.
func TestDescribeMatchesDirect(t *testing.T) {
	recs := corpus.GenerateAll(0.002, 7)
	if testing.Short() {
		recs = recs[:len(recs)/8]
	}
	cpus := append(uarch.Extended(), uarch.Haswell().Perturbed())
	shared := 0
	for _, r := range recs {
		for i := range r.Block.Insts {
			in := &r.Block.Insts[i]
			raw, encErr := x86.Encode(*in)
			addr, data, writes := regSets(in)
			for _, cpu := range cpus {
				desc, descErr := cpu.Describe(in)
				descRaw, descRawErr := cpu.DescribeRaw(in)
				for round := 0; round < 2; round++ {
					p := Prepared(cpu, in)
					if !reflect.DeepEqual(p.Raw, raw) || !sameErr(p.EncErr, encErr) ||
						p.LCP != x86.LengthChangingPrefix(raw) ||
						!reflect.DeepEqual(p.Addr, addr) || !reflect.DeepEqual(p.Data, data) ||
						!reflect.DeepEqual(p.Writes, writes) {
						t.Fatalf("%s/%s: memoized facts diverged", cpu.Name, in)
					}
					if !reflect.DeepEqual(p.Desc, desc) || !sameErr(p.DescErr, descErr) {
						t.Fatalf("%s/%s: memoized desc diverged", cpu.Name, in)
					}
					if !reflect.DeepEqual(p.DescRaw, descRaw) || !sameErr(p.DescRawErr, descRawErr) {
						t.Fatalf("%s/%s: memoized raw desc diverged", cpu.Name, in)
					}
					want := encErr
					if want == nil {
						want = descErr
					}
					if !sameErr(p.Err, want) {
						t.Fatalf("%s/%s: combined error %v, want %v", cpu.Name, in, p.Err, want)
					}
					gotRaw, gotErr := Encode(in)
					if !reflect.DeepEqual(gotRaw, raw) || !sameErr(gotErr, encErr) {
						t.Fatalf("%s: memoized encoding diverged", in)
					}
				}
			}
		}

		// Re-decode the block from its bytes: every instruction that comes
		// back equal must resolve to the very same entry.
		h, err := r.Block.Hex()
		if err != nil {
			continue
		}
		code, _ := hex.DecodeString(h)
		again, err := x86.DecodeBlock(code)
		if err != nil || len(again) != len(r.Block.Insts) {
			continue
		}
		for i := range again {
			if !reflect.DeepEqual(again[i], r.Block.Insts[i]) {
				continue
			}
			for _, cpu := range cpus {
				if Prepared(cpu, &again[i]) != Prepared(cpu, &r.Block.Insts[i]) {
					t.Fatalf("%s/%s: equal instructions resolved to distinct entries", cpu.Name, &again[i])
				}
			}
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no re-decoded instruction compared equal to its original")
	}
}

// TestUnsupportedMemoized checks that UnsupportedError results are cached
// and still reported as such.
func TestUnsupportedMemoized(t *testing.T) {
	b := parse(t, "vfmadd231ps %ymm1, %ymm2, %ymm3")
	cpu := uarch.IvyBridge()
	for round := 0; round < 2; round++ {
		p := Prepared(cpu, &b.Insts[0])
		if _, ok := p.DescErr.(*uarch.UnsupportedError); !ok {
			t.Fatalf("round %d: want UnsupportedError, got %v", round, p.DescErr)
		}
		if p.Err != p.DescErr {
			t.Fatalf("round %d: combined error %v, want the description's", round, p.Err)
		}
	}
	// The same instruction must stay supported on Haswell: the µarch is
	// part of the key.
	if err := Prepared(uarch.Haswell(), &b.Insts[0]).DescErr; err != nil {
		t.Fatalf("haswell fma: %v", err)
	}
}

// TestEncodeMatchesDirect checks byte-exact memoized encodings.
func TestEncodeMatchesDirect(t *testing.T) {
	b := parse(t, "add rax, rbx\nmov rcx, qword ptr [rsp+8]\nnop")
	for round := 0; round < 2; round++ {
		for i := range b.Insts {
			want, wantErr := x86.Encode(b.Insts[i])
			got, gotErr := Encode(&b.Insts[i])
			if (wantErr == nil) != (gotErr == nil) || string(want) != string(got) {
				t.Fatalf("%s: memoized encoding diverged", &b.Insts[i])
			}
		}
	}
}

// TestRegSetsStable checks that memoized register sets repeat exactly and
// are one µarch-independent set shared by every µarch's slot.
func TestRegSetsStable(t *testing.T) {
	b := parse(t, "add rax, rbx\nmov rcx, qword ptr [rsp+8]\nadc r8b, r9b")
	for i := range b.Insts {
		in := &b.Insts[i]
		f := Prepared(uarch.Haswell(), in).Facts
		for _, cpu := range uarch.Extended() {
			p := Prepared(cpu, in)
			if p.Facts != f {
				t.Fatalf("%s/%s: register sets not shared across µarches", cpu.Name, in)
			}
		}
	}
}

// TestInstFieldsPacked fails when x86.Inst, x86.Operand or x86.Mem gains,
// loses or retypes a field: keyOf must then pack the change, or two
// different instructions would share a memo entry.
func TestInstFieldsPacked(t *testing.T) {
	want := map[reflect.Type][]string{
		reflect.TypeOf(x86.Inst{}):    {"Op uint16", "Args slice"},
		reflect.TypeOf(x86.Operand{}): {"Kind uint8", "Reg uint8", "Imm int64", "Mem struct"},
		reflect.TypeOf(x86.Mem{}):     {"Base uint8", "Index uint8", "Scale uint8", "Disp int32", "Size uint8"},
	}
	for typ, fields := range want {
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			got = append(got, f.Name+" "+f.Type.Kind().String())
		}
		if !reflect.DeepEqual(got, fields) {
			t.Errorf("%s fields are %q, keyOf packs %q; update instKey and keyOf", typ, got, fields)
		}
	}
}

// TestKeyPaddingFree checks that instKey has no implicit padding: only
// then is it regular memory, hashed by the runtime in one call.
func TestKeyPaddingFree(t *testing.T) {
	var packed func(reflect.Type) uintptr
	packed = func(t reflect.Type) uintptr {
		switch t.Kind() {
		case reflect.Struct:
			var n uintptr
			for i := 0; i < t.NumField(); i++ {
				n += packed(t.Field(i).Type)
			}
			return n
		case reflect.Array:
			return uintptr(t.Len()) * packed(t.Elem())
		}
		return t.Size()
	}
	if got, size := packed(reflect.TypeOf(instKey{})), unsafe.Sizeof(instKey{}); got != size {
		t.Fatalf("instKey fields sum to %d bytes, size is %d: the key has padding", got, size)
	}
}

// TestPreparedHitAllocs checks that warm lookups allocate nothing.
func TestPreparedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	b := parse(t, "add rax, qword ptr [rsp+8]\nvxorps ymm2, ymm2, ymm2")
	cpu := uarch.Haswell()
	for i := range b.Insts {
		Prepared(cpu, &b.Insts[i])
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := range b.Insts {
			Prepared(cpu, &b.Insts[i])
		}
	}); n != 0 {
		t.Errorf("Prepared hit: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := range b.Insts {
			Encode(&b.Insts[i])
		}
	}); n != 0 {
		t.Errorf("Encode hit: %v allocs, want 0", n)
	}
}

// TestConcurrentAccess hammers the table from many goroutines; run under
// -race this is the regression test for the shared entries and the
// copy-on-write slot publication. Every goroutine must have seen the one
// slot that stays published for each (instruction, µarch).
func TestConcurrentAccess(t *testing.T) {
	b := parse(t, `add rax, rbx
		mov rcx, qword ptr [rsp+8]
		mulss xmm0, xmm1
		vxorps ymm2, ymm2, ymm2`)
	cpus := []*uarch.CPU{uarch.IvyBridge(), uarch.Haswell(), uarch.Skylake(), uarch.IceLake(), uarch.Haswell().Perturbed()}
	type seen struct {
		cpu, inst int
		p         *PreparedInst
	}
	var wg sync.WaitGroup
	seenBy := make([][]seen, 8)
	for w := range seenBy {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 200; round++ {
				for i := range b.Insts {
					c := (w + round + i) % len(cpus)
					p := Prepared(cpus[c], &b.Insts[i])
					if p.Err != nil {
						t.Error(p.Err)
					}
					if round < len(cpus) {
						seenBy[w] = append(seenBy[w], seen{c, i, p})
					}
					if _, err := Encode(&b.Insts[i]); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, ss := range seenBy {
		for _, s := range ss {
			if Prepared(cpus[s.cpu], &b.Insts[s.inst]) != s.p {
				t.Fatalf("%s/%s: a goroutine saw a slot that was later replaced", cpus[s.cpu].Name, &b.Insts[s.inst])
			}
		}
	}
}

// FuzzMemoKey checks that two instructions share a key exactly when they
// are equal field by field.
func FuzzMemoKey(f *testing.F) {
	f.Add([]byte{0x01, 0x00, 2, 1, 0, 1, 1, 3})
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		pos := 0
		next := func() byte {
			if pos >= len(data) {
				return 0
			}
			pos++
			return data[pos-1]
		}
		inst := func() x86.Inst {
			in := x86.Inst{Op: x86.Op(uint16(next()) | uint16(next())<<8)}
			// A nil Args and an empty one are the same instruction.
			if n := int(next() % (maxArgs + 1)); n > 0 {
				in.Args = make([]x86.Operand, n)
			}
			for i := range in.Args {
				var imm, disp [8]byte
				for k := range imm {
					imm[k] = next()
				}
				for k := 0; k < 4; k++ {
					disp[k] = next()
				}
				in.Args[i] = x86.Operand{
					Kind: x86.OperandKind(next()), Reg: x86.Reg(next()),
					Imm: int64(binary.LittleEndian.Uint64(imm[:])),
					Mem: x86.Mem{Base: x86.Reg(next()), Index: x86.Reg(next()), Scale: next(),
						Disp: int32(binary.LittleEndian.Uint32(disp[:])), Size: next()},
				}
			}
			return in
		}
		a := inst()
		// Mostly compare against a near copy of a, so equality is common.
		b := inst()
		if mode := next(); mode%4 != 0 {
			b = x86.Inst{Op: a.Op, Args: append([]x86.Operand(nil), a.Args...)}
			if len(b.Args) > 0 && mode%4 == 2 {
				k := int(next()) % len(b.Args)
				switch next() % 9 {
				case 0:
					b.Args[k].Kind ^= x86.OperandKind(next() | 1)
				case 1:
					b.Args[k].Reg ^= x86.Reg(next() | 1)
				case 2:
					b.Args[k].Imm ^= 1 << (next() % 64)
				case 3:
					b.Args[k].Mem.Base ^= x86.Reg(next() | 1)
				case 4:
					b.Args[k].Mem.Index ^= x86.Reg(next() | 1)
				case 5:
					b.Args[k].Mem.Scale ^= next() | 1
				case 6:
					b.Args[k].Mem.Disp ^= 1 << (next() % 32)
				case 7:
					b.Args[k].Mem.Size ^= next() | 1
				case 8:
					b.Args = b.Args[:k]
				}
			} else if mode%4 == 3 {
				b.Op ^= x86.Op(uint16(next()) | 1)
			}
		}
		ka, okA := keyOf(&a)
		kb, okB := keyOf(&b)
		if !okA || !okB {
			t.Fatal("an instruction of at most maxArgs operands must have a key")
		}
		equal := a.Op == b.Op && len(a.Args) == len(b.Args)
		for i := 0; equal && i < len(a.Args); i++ {
			equal = a.Args[i] == b.Args[i]
		}
		if (ka == kb) != equal {
			t.Fatalf("keyOf(%#v) == keyOf(%#v) is %v, want %v", a, b, ka == kb, equal)
		}
	})
}
