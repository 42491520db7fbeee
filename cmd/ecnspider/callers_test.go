package main

// Every exported name the module's libraries declare against the code
// that uses it: a name no program, library or the benchmark names is
// surface a reader learns for nothing, so it fails here until it is
// deleted or given a role below. And the reference implementations
// against it: a name that selects one is for tests alone.

import (
	"fmt"
	"go/ast"
	"path"
	"sort"
	"strings"
	"testing"
)

// callerExempt are the test-support packages: imported only from
// _test.go files, by design.
var callerExempt = map[string]bool{
	"internal/campaign/goldentest": true,
	"internal/worker/workertest":   true,
	"internal/worker/chaos":        true,
}

// uncalledRoles is every exported name that no non-test file names and
// that stays, with the role it keeps instead of a caller.
var uncalledRoles = map[string]string{
	"packet.Addr.MarshalText":     "encoding/* reaches it through encoding.TextMarshaler",
	"packet.Addr.UnmarshalText":   "encoding/* reaches it through encoding.TextUnmarshaler",
	"dataset.Trace.UnmarshalJSON": "encoding/json reaches it through json.Unmarshaler",
	"capture.ReadPcap":            "test oracle: reads back what WritePcap writes",
	"ntp.TimeFromTimestamp":       "test oracle: inverts TimestampFromTime",
	"netsim.Network.PathRouters":  "test oracle: the routing-table path topology's tests check reachability, path lengths and blueprint routes against",
	"packet.FlagMF":               "RFC 791 constant",
	"packet.ICMPCodeAdminProhib":  "RFC 1812 constant",
	"packet.ICMPEchoReply":        "RFC 792 constant",
	"packet.ICMPEchoRequest":      "RFC 792 constant",
	"dnspool.RCodeNoError":        "RFC 1035 constant",
	"failpoint.SetHook":           "test hook shared across packages",
	"packet.MustParseAddr":        "test fixture shared across packages",
	"iptable.MustParsePrefix":     "test fixture shared across packages",
	"netsim.Host.Online":          "test reader shared across packages: topology's tests count churned servers",
	"netsim.Link.Loss":            "test reader shared across packages: topology's tests read a vantage's drawn access loss",
	"tcpsim.Stack.Conns":          "test reader shared across packages: tcpsim's and httpmin's pool tests count open connections",
	"traceroute.HashRows":         "test oracle: the sweep-row digest TestDeterminismGrid pins",
	"netsim.XTrafficLazy":         "reference-implementation selector; tests only",
	"netsim.Sim.SetXTrafficMode":  "reference-implementation selector; tests only",
	"topology.Blueprint.WithSims": "reference-implementation selector; tests only",
}

// referenceOnly names the selectors of the reference implementations
// production is tested against — the binary-heap scheduler, the
// event-per-phantom-boundary cross-traffic drive, and a blueprint whose
// worlds run on them. No non-test file outside the declaring package
// may name one, so no production path — no Config field, signature,
// flag or metric label — can choose a reference.
var referenceOnly = []string{
	"netsim.NewSimSched",
	"netsim.SchedHeap",
	"netsim.Sim.SetXTrafficMode",
	"netsim.XTrafficEvents",
	"topology.Blueprint.WithSims",
}

// TestExportedNamesHaveCallers: every exported top-level name or method
// declared in a non-test file of a non-main package is named, by
// identifier, somewhere in a non-test file other than at its own
// declaration (cmd/ and bench/ count), or has a role in uncalledRoles —
// and no referenceOnly name is named by a non-test file outside its own
// package.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset, files := parseModule(t, "../..")
	type decl struct {
		key  string // pkg.Name or pkg.Recv.Method
		id   *ast.Ident
		path string
	}
	var exported []decl
	named := make(map[string]bool)
	type user struct {
		path  string
		names map[string]bool
	}
	var users []user
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
		names := make(map[string]bool)
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIDs[id] {
				named[id.Name] = true
				names[id.Name] = true
			}
			return true
		})
		users = append(users, user{sf.path, names})
	}
	if len(exported) < 100 {
		t.Fatalf("the walk found %d exported names; it misses the module's packages", len(exported))
	}
	var dead []string
	declared := make(map[string]string) // key → declaring package directory
	for _, d := range exported {
		declared[d.key] = path.Dir(d.path)
		if named[d.id.Name] {
			if _, ok := uncalledRoles[d.key]; ok {
				t.Errorf("%s is named by a non-test file, so its role is stale; drop it from uncalledRoles", d.key)
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
		if declared[key] == "" {
			t.Errorf("uncalledRoles names %s, which no non-test file declares", key)
		}
	}
	for _, key := range referenceOnly {
		dir := declared[key]
		if dir == "" {
			t.Errorf("referenceOnly names %s, which no non-test file declares", key)
			continue
		}
		name := key[strings.LastIndexByte(key, '.')+1:]
		for _, u := range users {
			if u.names[name] && path.Dir(u.path) != dir {
				t.Errorf("%s names %s: a reference implementation's selector is for tests and its own package only", u.path, key)
			}
		}
	}
}
