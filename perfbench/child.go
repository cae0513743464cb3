package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"time"
)

// childTimeout bounds one child process, so a hung program fails the run
// instead of outliving the run's time limit.
const childTimeout = 150 * time.Second

// runChild runs this binary in one of its child modes (job, serve) and
// decodes the JSON report the child prints into v. It waits for the child
// to exit, and kills it after childTimeout.
func runChild(exe string, v any, args ...string) error {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	raw, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s process: %v: %s", args[0], err, bytes.TrimSpace(stderr.Bytes()))
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s report: %w", args[0], err)
	}
	return nil
}
