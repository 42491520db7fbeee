package main

// Every exported name the module's libraries declare against the code
// that uses it: a name no program, library or the benchmark names is
// surface a reader learns for nothing, so it fails here until it is
// deleted or given a role below. And the reference implementations
// against it: a name that selects one is for tests alone.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
	"testing"
	"time"
)

// callerExempt are the test-support packages: imported only from
// _test.go files, by design.
var callerExempt = map[string]bool{
	"internal/alloctest":           true,
	"internal/campaign/goldentest": true,
	"internal/worker/workertest":   true,
	"internal/worker/chaos":        true,
}

// uncalledRoles is every exported name that no non-test file names and
// that stays, with the role it keeps instead of a caller.
var uncalledRoles = map[string]string{
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
	"packet.Decode":               "test fixture shared across packages: tcpsim's, campaign's and capture's tests decode the datagrams a tap saw",
	"netsim.Host.Online":          "test reader shared across packages: topology's tests count churned servers",
	"netsim.Router.Addr":          "test reader shared across packages: traceroute's tests forge a router's ICMP error",
	"dnspool.Directory.Zones":     "test reader shared across packages: topology's tests compare a replayed world's DNS zones",
	"freelist.List.Len":           "test reader shared across packages: apiclient's and server's tests count recycled buffers",
	"netsim.Scheduler.Name":       "test label shared across packages: netsim's, campaign's and topology's tests name reference-engine runs by it",
	"netsim.XTrafficMode.Name":    "test label shared across packages: netsim's, campaign's and topology's tests name reference-engine runs by it",
	"tcpsim.Listener.Close":       "test fixture: tcpsim's tests close a listener to check its port refuses, and can be bound again",
	"netsim.Link.Loss":            "test reader shared across packages: topology's tests read a vantage's drawn access loss",
	"netsim.Link.Stats":           "test reader: link conservation (sent = delivered + dropped)",
	"tcpsim.Stack.Conns":          "test reader shared across packages: tcpsim's and httpmin's pool tests count open connections",
	"traceroute.HashRows":         "test oracle: the sweep-row digest TestDeterminismGrid pins",
	"netsim.XTrafficLazy":         "reference-implementation selector; tests only",
	"netsim.Sim.SetXTrafficMode":  "reference-implementation selector; tests only",
	"topology.Blueprint.WithSims": "reference-implementation selector; tests only",
}

// stdlibCalls are the standard-library interfaces whose methods only
// the standard library calls on the module's values — fmt on a
// Stringer, encoding/json on an Unmarshaler — so a method that
// implements one has a caller the module's own code never spells.
// (Interfaces the module calls itself, io.Reader or
// http.ResponseWriter, need no entry.)
var stdlibCalls = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"encoding", "TextMarshaler"},
	{"encoding", "TextUnmarshaler"},
	{"encoding/json", "Unmarshaler"},
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

// modulePath is this module's import path (go.mod).
const modulePath = "repro"

// typedModule is the module's non-test code, type-checked: what every
// identifier in it resolves to.
type typedModule struct {
	fset *token.FileSet
	// std is the standard-library importer every package was checked
	// with; interfaces looked up later must come from it too.
	std  types.Importer
	pkgs map[string]*types.Package // by directory
	uses map[*ast.Ident]types.Object
}

// typeCheckModule type-checks every package's non-test files — bench/
// and cmd/ included — resolving the standard library from source.
func typeCheckModule(t *testing.T) *typedModule {
	t.Helper()
	fset, files := parseModule(t, "../..")
	byDir := make(map[string][]*ast.File)
	for _, sf := range files {
		if !sf.test {
			byDir[path.Dir(sf.path)] = append(byDir[path.Dir(sf.path)], sf.f)
		}
	}
	m := &typedModule{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
		uses: make(map[*ast.Ident]types.Object),
	}
	info := &types.Info{Uses: m.uses}
	var check func(dir string) (*types.Package, error)
	imp := importerFunc(func(p string) (*types.Package, error) {
		if dir, ok := strings.CutPrefix(p, modulePath+"/"); ok {
			return check(dir)
		}
		return m.std.Import(p)
	})
	check = func(dir string) (*types.Package, error) {
		if pkg, ok := m.pkgs[dir]; ok {
			return pkg, nil
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(modulePath+"/"+dir, fset, byDir[dir], info)
		if err != nil {
			return nil, err
		}
		m.pkgs[dir] = pkg
		return pkg, nil
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := check(dir); err != nil {
			t.Fatalf("type-check %s: %v", dir, err)
		}
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// objKey names an exported object the way uncalledRoles does: pkg.Name,
// or pkg.Recv.Method for a method.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				return obj.Pkg().Name() + "." + named.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// TestExportedNamesHaveCallers: every exported top-level name or method
// declared in a non-test file of a non-main package is used somewhere in
// a non-test file (cmd/ and bench/ count), or has a role in
// uncalledRoles — and no referenceOnly name is used by a non-test file
// outside its own package. Uses are resolved by type: a method counts
// when a selection resolves to it, or when it implements an interface
// method that is called — by the module's code, or by the standard
// library (stdlibCalls, and error's Error).
func TestExportedNamesHaveCallers(t *testing.T) {
	start := time.Now()
	m := typeCheckModule(t)
	t.Logf("type-checked %d packages in %v", len(m.pkgs), time.Since(start).Round(time.Millisecond))

	used := make(map[types.Object]bool)
	// called lists, per interface, the methods of it something calls.
	called := make(map[*types.Interface][]*types.Func)
	for _, obj := range m.uses {
		if fn, ok := obj.(*types.Func); ok {
			// A method of an instantiated generic type is its origin's.
			obj = fn.Origin()
			if recv := fn.Signature().Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					called[iface] = append(called[iface], fn)
				}
			}
		}
		used[obj] = true
	}
	stdIface := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			called[iface] = append(called[iface], iface.Method(i))
		}
	}
	stdIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, c := range stdlibCalls {
		pkg, err := m.std.Import(c.pkg)
		if err != nil {
			t.Fatal(err)
		}
		stdIface(pkg.Scope().Lookup(c.name).Type().Underlying().(*types.Interface))
	}
	// A method that implements a called interface method is called, its
	// own or promoted through an embedded field. (Implements is undefined
	// on an uninstantiated generic type, so a generic type's methods
	// count by use alone.)
	for _, pkg := range m.pkgs {
		for _, name := range pkg.Scope().Names() {
			named, ok := pkg.Scope().Lookup(name).Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			for _, typ := range []types.Type{named, types.NewPointer(named)} {
				mset := types.NewMethodSet(typ)
				for iface, meths := range called {
					if !types.Implements(typ, iface) {
						continue
					}
					for _, im := range meths {
						if sel := mset.Lookup(im.Pkg(), im.Name()); sel != nil {
							used[sel.Obj()] = true
						}
					}
				}
			}
		}
	}

	var dead []string
	declared := make(map[string]types.Object)
	n := 0
	for dir, pkg := range m.pkgs {
		if pkg.Name() == "main" || callerExempt[dir] {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			var objs []types.Object
			if obj.Exported() {
				objs = append(objs, obj)
			}
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						if meth := named.Method(i); meth.Exported() {
							objs = append(objs, meth)
						}
					}
				}
			}
			for _, o := range objs {
				n++
				key := objKey(o)
				declared[key] = o
				_, hasRole := uncalledRoles[key]
				switch {
				case used[o] && hasRole:
					t.Errorf("%s is used by a non-test file, so its role is stale; drop it from uncalledRoles", key)
				case !used[o] && !hasRole:
					pos := m.fset.Position(o.Pos())
					dead = append(dead, fmt.Sprintf("%s:%d: %s", path.Join(dir, path.Base(pos.Filename)), pos.Line, key))
				}
			}
		}
	}
	if n < 100 {
		t.Fatalf("the walk found %d exported names; it misses the module's packages", n)
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s: no non-test file uses it; delete it or give it a role in uncalledRoles", d)
	}
	for key := range uncalledRoles {
		if declared[key] == nil {
			t.Errorf("uncalledRoles names %s, which no non-test file declares", key)
		}
	}
	for _, key := range referenceOnly {
		obj := declared[key]
		if obj == nil {
			t.Errorf("referenceOnly names %s, which no non-test file declares", key)
			continue
		}
		home := path.Dir(m.fset.Position(obj.Pos()).Filename)
		for id, o := range m.uses {
			if pos := m.fset.Position(id.Pos()); o == obj && path.Dir(pos.Filename) != home {
				t.Errorf("%s uses %s: a reference implementation's selector is for tests and its own package only", pos, key)
			}
		}
	}
}
