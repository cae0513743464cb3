package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"strings"
)

// signature identifies the machine a result was measured on. Host times
// are comparable only between results with equal signatures.
type signature struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func signatureJSON() string {
	raw, _ := json.Marshal(signature{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}) // a struct of strings and ints always marshals
	return string(raw)
}

// cpuModel is the processor's model name as the kernel reports it, or
// "unknown" where /proc/cpuinfo has none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
