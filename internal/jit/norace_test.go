//go:build !race

package jit

const raceEnabled = false
