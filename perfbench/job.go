package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"bhive/internal/corpus"
	"bhive/internal/harness"
)

// jobReport is what one batch job process reports about itself: the
// experiment's output, and its own resource use split at the end of
// set-up (the moment before the first block is measured).
type jobReport struct {
	SetupDone int64            `json:"setup_done_host_ns"` // hostNow at the end of set-up
	ReadS     float64          `json:"read_s"`
	Run       procDelta        `json:"run"`
	Results   int              `json:"results"`
	Text      string           `json:"text"`
	Tables    []*harness.Table `json:"tables"`
}

// runJob is the batch job process: the bhive-eval -corpus path (CSV read
// and decode, suite construction, one experiment), run once in a fresh
// process so the process-wide memo tables start empty.
func runJob(exp, corpusPath string, stdout io.Writer) error {
	start := sampleProc()
	f, err := os.Open(corpusPath)
	if err != nil {
		return err
	}
	recs, err := corpus.ReadCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	read := time.Since(start.wall)

	cfg := harness.DefaultConfig()
	cfg.Records = recs
	s := harness.New(cfg)
	defer s.Close()
	setup := sampleProc()

	rr, err := s.RunStructured(exp, "")
	if err != nil {
		return fmt.Errorf("%s: %w", exp, err)
	}
	end := sampleProc()
	return json.NewEncoder(stdout).Encode(jobReport{
		SetupDone: setup.host,
		ReadS:     read.Seconds(),
		Run:       end.since(setup),
		Results:   len(recs) * len(workloadCPUs(exp)),
		Text:      rr.Text,
		Tables:    rr.Tables,
	})
}
