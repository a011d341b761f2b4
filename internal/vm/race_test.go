//go:build race

package vm

// raceEnabled reports a -race build: the race detector makes sync.Pool
// drop items at random, so allocation counts are not meaningful.
const raceEnabled = true
