//go:build !race

package bound

const raceEnabled = false
