package portmap

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"bhive/internal/uarch"
)

// TestExegesisGolden pins the default instruction table (what
// bhive-exegesis prints) on every microarchitecture.
func TestExegesisGolden(t *testing.T) {
	const path = "testdata/exegesis.golden"
	var sb strings.Builder
	for _, name := range []string{"ivybridge", "haswell", "skylake", "icelake"} {
		cpu, err := uarch.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		entries, err := BuildTable(cpu, DefaultTemplates())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&sb, "# %s\n", name)
		for _, e := range entries {
			fmt.Fprintf(&sb, "%-28s %9.2f %12.2f %8s %6.2f\n",
				e.Inst, e.Latency, e.RThroughput, e.Ports, e.UopsPer)
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
		t.Fatalf("instruction table diverged from the recorded output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
