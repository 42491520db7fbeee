package main

// The data path against the CPUs it may run on: a campaign's bytes must
// not depend on the machine that simulated it. Go may fuse x*y + z into
// one fused multiply-add on arm64, riscv64, ppc64le and s390x (never on
// amd64, whatever GOAMD64 says), and a fused result rounds once
// where the unfused one rounds twice — so a product left unconverted in
// a RED average or a background credit can move a CE mark, and with it
// a dataset hash, between an x86 and an ARM worker. An explicit
// float64(x*y) rounds the product and forbids the fusion. The same holds
// for a math function whose result is not correctly rounded: Go computes
// Exp, Log, Pow and their kin in assembly on some CPUs and in Go on
// others, and the two may differ in the last bit.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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

// exactMath are the math functions whose result is exact or correctly
// rounded — one right answer, the same bits on every CPU. Sqrt is IEEE
// 754's own correctly rounded operation.
var exactMath = map[string]bool{
	"Abs": true, "Ceil": true, "Copysign": true, "Dim": true, "FMA": true,
	"Float32bits": true, "Float32frombits": true, "Float64bits": true,
	"Float64frombits": true, "Floor": true, "Frexp": true, "Inf": true,
	"IsInf": true, "IsNaN": true, "Ldexp": true, "Max": true, "Min": true,
	"Mod": true, "Modf": true, "NaN": true, "Nextafter": true,
	"Remainder": true, "Round": true, "RoundToEven": true, "Signbit": true,
	"Sqrt": true, "Trunc": true,
}

// mathExceptions are the data path's calls outside exactMath, as
// "file math.Func", each with the reason it stays.
var mathExceptions = map[string]string{
	"internal/aqm/red.go math.Pow": "ROADMAP item 18: RED.age decays the average over an idle period " +
		"with Pow, which is not correctly rounded; replacing it moves RED's marks, and so dataset hashes",
}

// TestDataPathMathIsExact fails on any call from a data-path package
// into package math that is neither exact nor correctly rounded, other
// than the named exceptions — and on an exception that no longer
// occurs, so the list cannot outlive its reason.
func TestDataPathMathIsExact(t *testing.T) {
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	for _, p := range dataPath {
		dir := filepath.Join("../../internal", p)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			local := ""
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "math" {
					local = "math"
					if imp.Name != nil {
						local = imp.Name.Name
					}
				}
			}
			if local == "" {
				continue
			}
			file := "internal/" + p + "/" + name
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != local || exactMath[sel.Sel.Name] {
					return true
				}
				key := file + " math." + sel.Sel.Name
				seen[key] = true
				if _, ok := mathExceptions[key]; !ok {
					t.Errorf("%s: math.%s is not correctly rounded, so its last bit may depend on the CPU",
						fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
	}
	var stale []string
	for key := range mathExceptions {
		if !seen[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("mathExceptions names %s, which no data-path file calls any more; drop it", key)
	}
}
