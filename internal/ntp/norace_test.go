//go:build !race

package ntp

const raceEnabled = false
