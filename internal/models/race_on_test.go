//go:build race

package models

// The race detector instruments allocations and makes sync.Pool drop
// items at random, so allocation-count guards are meaningless under it.
const raceEnabled = true
