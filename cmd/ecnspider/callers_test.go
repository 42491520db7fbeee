package main

// Every exported name the module's libraries declare against the code
// that uses it: a name no program, library or the benchmark names is
// surface a reader learns for nothing, so it fails here until it is
// deleted or given a role below.

import (
	"fmt"
	"go/ast"
	"path"
	"sort"
	"testing"
)

// callerExempt are the test-support packages: imported only from
// _test.go files, by design.
var callerExempt = map[string]bool{
	"internal/worker/workertest": true,
	"internal/worker/chaos":      true,
}

// uncalledRoles is every exported name that no non-test file names and
// that stays, with the role it keeps instead of a caller.
var uncalledRoles = map[string]string{
	"packet.Addr.MarshalText":      "encoding/* reaches it through encoding.TextMarshaler",
	"packet.Addr.UnmarshalText":    "encoding/* reaches it through encoding.TextUnmarshaler",
	"dataset.Trace.UnmarshalJSON":  "encoding/json reaches it through json.Unmarshaler",
	"capture.ReadPcap":             "test oracle: reads back what WritePcap writes",
	"ntp.TimeFromTimestamp":        "test oracle: inverts TimestampFromTime",
	"netsim.Network.PathRouters":   "test oracle: the routing-table path topology's tests check reachability, path lengths and blueprint routes against",
	"packet.FlagMF":                "RFC 791 constant",
	"packet.ICMPCodeAdminProhib":   "RFC 1812 constant",
	"packet.ICMPEchoReply":         "RFC 792 constant",
	"packet.ICMPEchoRequest":       "RFC 792 constant",
	"dnspool.RCodeNoError":         "RFC 1035 constant",
	"failpoint.SetHook":            "test hook shared across packages",
	"packet.MustParseAddr":         "test fixture shared across packages",
	"iptable.MustParsePrefix":      "test fixture shared across packages",
	"netsim.Host.Online":           "test reader shared across packages: topology's tests count churned servers",
	"netsim.Link.Loss":             "test reader shared across packages: topology's tests read a vantage's drawn access loss",
	"tcpsim.Stack.Conns":           "test reader shared across packages: tcpsim's and httpmin's pool tests count open connections",
	"core.RunECNUsability":         "extension experiment; its test is its gate",
	"core.ECNUsabilityResult.Rate": "extension experiment; its test is its gate",
	"core.RunArrivalCensus":        "extension experiment; its test is its gate",
	"core.RunECT1Sweep":            "extension experiment; its test is its gate",
}

// TestExportedNamesHaveCallers: every exported top-level name or method
// declared in a non-test file of a non-main package is named, by
// identifier, somewhere in a non-test file other than at its own
// declaration (cmd/ and bench/ count), or has a role in uncalledRoles.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset, files := parseModule(t, "../..")
	type decl struct {
		key  string // pkg.Name or pkg.Recv.Method
		id   *ast.Ident
		path string
	}
	var exported []decl
	named := make(map[string]bool)
	for _, sf := range files {
		if sf.test {
			continue
		}
		pkg := sf.f.Name.Name
		check := pkg != "main" && !callerExempt[path.Dir(sf.path)]
		declIDs := map[*ast.Ident]bool{sf.f.Name: true}
		declare := func(key string, id *ast.Ident) {
			declIDs[id] = true
			if check && id.IsExported() {
				exported = append(exported, decl{key, id, sf.path})
			}
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declare(pkg+"."+d.Name.Name, d.Name)
				} else {
					declare(pkg+"."+recvName(d)+"."+d.Name.Name, d.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(pkg+"."+spec.Name.Name, spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(pkg+"."+id.Name, id)
						}
					}
				}
			}
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIDs[id] {
				named[id.Name] = true
			}
			return true
		})
	}
	if len(exported) < 100 {
		t.Fatalf("the walk found %d exported names; it misses the module's packages", len(exported))
	}
	var dead []string
	declared := make(map[string]bool)
	for _, d := range exported {
		declared[d.key] = true
		if named[d.id.Name] {
			if _, ok := uncalledRoles[d.key]; ok {
				t.Errorf("%s is named by a non-test file; drop it from uncalledRoles", d.key)
			}
			continue
		}
		if _, ok := uncalledRoles[d.key]; !ok {
			dead = append(dead, fmt.Sprintf("%s:%d: %s", d.path, fset.Position(d.id.Pos()).Line, d.key))
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no non-test file names it; delete it or give it a role in uncalledRoles", d)
	}
	for key := range uncalledRoles {
		if !declared[key] {
			t.Errorf("uncalledRoles names %s, which no non-test file declares", key)
		}
	}
}
