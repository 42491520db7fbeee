// Package vantage declares the study's 13 measurement locations once, in
// the paper's Table 2 order (homes, campus, then EC2 alphabetically by
// the paper's labels). A location's position in that order is its
// index: topology builds World.Vantages in it, and a traceroute sweep
// row records its vantage as that one byte
// (traceroute.PathObservation.Vantage), which traceroute and analysis
// turn back into the name here.
package vantage

// Count is the number of vantage points.
const Count = 13

var names = [Count]string{
	"Perkins home",
	"McQuistin home",
	"U. Glasgow wired",
	"U. Glasgow wireless",
	"EC2 California",
	"EC2 Frankfurt",
	"EC2 Ireland",
	"EC2 Oregon",
	"EC2 Sao Paulo",
	"EC2 Singapore",
	"EC2 Sydney",
	"EC2 Tokyo",
	"EC2 Virginia",
}

// Name is the name of the vantage at Table 2 index i.
func Name(i uint8) string { return names[i] }
