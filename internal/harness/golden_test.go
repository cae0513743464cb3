package harness

import (
	"os"
	"testing"
)

// TestTable5Golden asserts that the full Table V pipeline — corpus
// generation, parallel profiling through the pooled hot path, and every
// analytical model — is byte-identical to the output recorded before the
// hot-path overhaul (seed 7, scale 0.02). This is the determinism contract:
// scratch reuse, memoization, fault batching and parallel workers must not
// change a single measured or predicted number.
func TestTable5Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Table V at scale 0.02 (several seconds)")
	}
	want, err := os.ReadFile("testdata/table5_seed7_scale002.golden")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig() // scale 0.02, seed 7
	cfg.Workers = 4        // exercise the concurrent profiling path
	got, err := New(cfg).Run("table5", "")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Table V diverged from the recorded output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestTable12Golden pins the Table I and Table II ablations (seed 7, scale
// 0.02). Both run through Profiler.MeasureRaw, so the golden holds the
// raw-measurement path to the profiler's own functional pass and page
// budget.
func TestTable12Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates Tables I and II at scale 0.02 (several seconds)")
	}
	const path = "testdata/table12_seed7_scale002.golden"
	s := New(DefaultConfig())
	var got string
	for _, id := range []string{"table1", "table2"} {
		out, err := s.Run(id, "")
		if err != nil {
			t.Fatal(err)
		}
		got += out
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("Tables I/II diverged from the recorded output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestModelsGolden pins the model-only outputs (seed 7, scale 0.02): the
// case-study predictions, the predicted schedules of the scheduling figure
// and Table VI. Table V pins the models' Predict over a corpus; this golden
// also pins their Schedule traces.
func TestModelsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the model experiments at scale 0.02 (several seconds)")
	}
	const path = "testdata/models_seed7_scale002.golden"
	s := New(DefaultConfig())
	var got string
	for _, id := range []string{"case-study", "fig-scheduling", "table6"} {
		out, err := s.Run(id, "")
		if err != nil {
			t.Fatal(err)
		}
		got += out
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("model experiments diverged from the recorded output.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
