package main

import "testing"

// deployment marks a flag that says where and as whom a process runs:
// every deployment sets its own value.
const deployment = "deployment setting"

// flagRoles is every flag reprod's subcommands take, with why it is a
// flag: a deployment setting, or a knob whose second value, named
// here, is in use. A flag that no caller sets to anything but its
// default is a constant instead.
var flagRoles = map[string]map[string]string{
	"serve": {
		"addr":       deployment,
		"data":       deployment,
		"log-format": deployment,
		"drain":      deployment,
		"lease-ttl":  "the end-to-end rows run 2–5 s leases against the 30 s default",
		"pprof":      "TestPprofGating runs the coordinator with it on and off",
	},
	"worker": {
		"coordinator":    deployment,
		"id":             deployment,
		"log-format":     deployment,
		"poll":           "the benchmark's workers poll every 5 ms against the 500 ms default",
		"exit-when-idle": "the benchmark runs workers both ways",
	},
	"run": {
		"coordinator": deployment,
		"spec":        deployment,
		"out":         deployment,
	},
}

// TestEveryFlagHasARole: each subcommand's -h lists exactly the flags
// flagRoles gives a role. A new flag needs its second value named
// there; a deleted one takes its entry with it.
func TestEveryFlagHasARole(t *testing.T) {
	for sub, roles := range flagRoles {
		listed := usageFlags(t, sub)
		for name := range listed {
			if roles[name] == "" {
				t.Errorf("reprod %s -%s has no role in flagRoles: name the second value in use, or make it a constant", sub, name)
			}
		}
		for name := range roles {
			if !listed[name] {
				t.Errorf("flagRoles lists reprod %s -%s, which -h does not", sub, name)
			}
		}
	}
}
