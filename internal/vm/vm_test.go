package vm

import "testing"

func TestMapTranslate(t *testing.T) {
	as := New()
	p := as.NewPhysPage()
	as.Map(0x12345678, p)
	if !as.Mapped(0x12345000) || !as.Mapped(0x12345FFF) {
		t.Fatal("whole page must be mapped")
	}
	if as.Mapped(0x12346000) {
		t.Fatal("next page must not be mapped")
	}
	_, phys, ok := as.Translate(0x12345678)
	if !ok || phys != p.ID*PageSize+0x678 {
		t.Fatalf("translate: %#x", phys)
	}
}

func TestSinglePhysPageAliasing(t *testing.T) {
	as := New()
	p := as.NewPhysPage()
	as.Map(0x10000, p)
	as.Map(0x99000, p)
	if as.NumMappings() != 2 || as.DistinctFrames() != 1 {
		t.Fatalf("mappings=%d frames=%d", as.NumMappings(), as.DistinctFrames())
	}
	// A write through one virtual page is visible through the other: the
	// aliasing the single-physical-page trick relies on.
	if err := as.Write(0x10008, []byte{0xAB}); err != nil {
		t.Fatal(err)
	}
	var buf [1]byte
	if err := as.Read(0x99008, buf[:]); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatal("aliased frame must share contents")
	}
}

func TestFaultReporting(t *testing.T) {
	as := New()
	err := as.Read(0x5000, make([]byte, 8))
	f, ok := err.(*Fault)
	if !ok || f.Addr != 0x5000 || f.Write {
		t.Fatalf("got %v", err)
	}
	err = as.Write(0x5000, make([]byte, 8))
	f, ok = err.(*Fault)
	if !ok || !f.Write {
		t.Fatalf("got %v", err)
	}
}

func TestCrossPageAccess(t *testing.T) {
	as := New()
	p1, p2 := as.NewPhysPage(), as.NewPhysPage()
	as.Map(0x10000, p1)
	as.Map(0x11000, p2)
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := as.Write(0x10FFC, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := as.Read(0x10FFC, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: %d", i, got[i])
		}
	}
	if p1.Data[PageSize-4] != 1 || p2.Data[3] != 8 {
		t.Fatal("bytes must straddle the frames")
	}
	// Fault midway: second page unmapped.
	as.Unmap(0x11000)
	if err := as.Write(0x10FFC, data); err == nil {
		t.Fatal("expected fault on second page")
	}
}

func TestFill(t *testing.T) {
	as := New()
	p := as.NewPhysPage()
	p.Fill(0x12345600)
	if p.Data[0] != 0x00 || p.Data[1] != 0x56 || p.Data[2] != 0x34 || p.Data[3] != 0x12 {
		t.Fatal("little-endian fill")
	}
	if p.Data[PageSize-1] != 0x12 {
		t.Fatal("fill must cover the page")
	}
}

func TestValidUserAddress(t *testing.T) {
	cases := map[uint64]bool{
		0:                     false,
		100:                   false, // null page
		PageSize:              true,
		0x12345600:            true,
		0x7FFF_FFFF_F000:      true,
		0x0000_8000_0000_0000: false, // non-canonical start
		0xFFFF_8000_0000_0000: false, // kernel half
	}
	for addr, want := range cases {
		if got := ValidUserAddress(addr); got != want {
			t.Errorf("ValidUserAddress(%#x) = %v", addr, got)
		}
	}
}
