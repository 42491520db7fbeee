//go:build !race

package httpmin

const raceEnabled = false
