//go:build !race

package traceroute

const raceEnabled = false
