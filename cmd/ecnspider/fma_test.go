package main

// The data path against the CPUs it may run on: a campaign's bytes must
// not depend on the machine that simulated it. Go may fuse x*y + z into
// one fused multiply-add on arm64, riscv64, ppc64le and s390x (never on
// amd64, whatever GOAMD64 says), and a fused result rounds once
// where the unfused one rounds twice — so a product left unconverted in
// a RED average or a background credit can move a CE mark, and with it
// a dataset hash, between an x86 and an ARM worker. An explicit
// float64(x*y) rounds the product and forbids the fusion.

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// dataPath lists the packages whose arithmetic reaches a dataset byte.
var dataPath = []string{
	"aqm", "netsim", "topology", "campaign", "core", "packet",
	"tcpsim", "ntp", "traceroute", "dnspool", "middlebox", "httpmin",
}

// fusedRE finds a double-precision fused multiply-add or -subtract in
// the compiler's arm64 assembly listing; group 1 is its file:line.
var fusedRE = regexp.MustCompile(`\(([^()\s]+\.go:\d+)\)\s+(FMADDD|FMSUBD|FNMADDD|FNMSUBD)\b`)

// TestDataPathHasNoFusedFloat compiles the data-path packages for arm64
// and fails on every fused floating-point instruction, naming the
// source line whose product wants an explicit float64 conversion. It
// only compiles: nothing here runs on an arm64 CPU. Compiler output is
// cached with the build, so a warm run costs a fraction of a second. A
// planted fusion shows through an overlay, which go passes to the
// inner build via GOFLAGS:
//
//	GOFLAGS=-overlay=$PWD/overlay.json go test -run TestDataPathHasNoFusedFloat ./cmd/ecnspider
func TestDataPathHasNoFusedFloat(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("go tool not found: %v", err)
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	args := []string{"build", "-gcflags=-S"}
	for _, p := range dataPath {
		args = append(args, "./internal/"+p)
	}
	cmd := exec.Command(goTool, args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOARCH=arm64", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=arm64 go build: %v\n%.2000s", err, out)
	}
	seen := make(map[string]bool)
	for _, m := range fusedRE.FindAllStringSubmatch(string(out), -1) {
		at := strings.TrimPrefix(filepath.ToSlash(m[1]), filepath.ToSlash(root)+"/")
		if !seen[at+m[2]] {
			seen[at+m[2]] = true
			t.Errorf("%s: arm64 fuses a product into %s; write the product as float64(x*y)", at, m[2])
		}
	}
}
