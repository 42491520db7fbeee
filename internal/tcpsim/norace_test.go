//go:build !race

package tcpsim

const raceEnabled = false
