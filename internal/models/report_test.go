package models

import (
	"os"
	"strings"
	"testing"

	"bhive/internal/uarch"
)

func TestReportRendersAnalysis(t *testing.T) {
	hsw := uarch.Haswell()
	text, err := Report(hsw, parse(t, crcBlock))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Block throughput:",
		"p0", "p7",
		"move eliminated",
		"front-end bound:",
		"bound:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}
	// The CRC block is latency-bound.
	if !strings.Contains(text, "dependency chains") {
		t.Errorf("CRC block should report a latency bound:\n%s", text)
	}
}

func TestReportZeroIdiom(t *testing.T) {
	hsw := uarch.Haswell()
	text, err := Report(hsw, parse(t, "vxorps %xmm1, %xmm1, %xmm1"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "zero idiom") {
		t.Errorf("report must flag the idiom:\n%s", text)
	}
}

func TestReportPortBound(t *testing.T) {
	hsw := uarch.Haswell()
	// Ten independent FMAs on two ports: clearly backend-port bound.
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		sb.WriteString("vfmadd231ps %ymm10, %ymm11, %ymm")
		sb.WriteByte(byte('0' + i))
		sb.WriteString("\n")
	}
	text, err := Report(hsw, parse(t, sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "backend port") {
		t.Errorf("FMA stream should be port bound:\n%s", text)
	}
	if _, err := Report(hsw, parse(t, "nop")); err != nil {
		t.Fatalf("nop block: %v", err)
	}
}

// TestReportGolden pins Report for the three case-study blocks on every
// microarchitecture.
func TestReportGolden(t *testing.T) {
	const path = "testdata/report.golden"
	var sb strings.Builder
	for _, cpu := range uarch.All() {
		for _, text := range []string{divBlock, "vxorps %xmm2, %xmm2, %xmm2", crcBlock} {
			out, err := Report(cpu, parse(t, text))
			if err != nil {
				sb.WriteString("error: " + err.Error() + "\n\n")
				continue
			}
			sb.WriteString(out + "\n")
		}
	}
	got := sb.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Report diverged from the recorded output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
