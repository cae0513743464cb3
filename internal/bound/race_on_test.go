//go:build race

package bound

// The race detector instruments allocations, so allocation-count guards
// are meaningless under it.
const raceEnabled = true
