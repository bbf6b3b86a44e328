package past_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

const module = "past"

// deadExportAllow lists the exported objects under internal/ that no
// program calls but that must stay, each with its reason. An entry whose
// object is gone, or that has gained a non-test caller, fails the check,
// so the list can only shrink.
var deadExportAllow = map[string]string{
	"cert.NewIssuer":           "bench/ times certificate issue and verify with it",
	"cert.Issuer.IssueCard":    "bench/ times certificate issue and verify with it",
	"cert.Issuer.PublicKey":    "bench/ times certificate issue and verify with it",
	"logstore.Store.Dir":       "bench/ measures each fleet store's bytes on disk through it",
	"obs.CtrCacheAdmitRejects": "bench/ reports the counter as cachengine.admit_rejects_per_op",
	"pastry.Node.FirstHop":     "bench/ times it as pastry.first_hop_ns",
	"rs.Encoder.Reconstruct":   "bench/ times it as rs.reconstruct_mb_s",
	"cert.Smartcard.PublicKey": "the key tests register in Config.NodeKeys to verify a node's receipts; no other API returns it",
	"cert.Quota.Used":          "past's reclaim test and Example read the ledger a verified reclaim credits; no other API shows it",
	"netsim.Network.Remove":    "the emulator's departure: past's and pastry's leave tests drop the leaver with it, netsim's own pin that it stays gone",
	"stats.LogHist.Count":      "loadgen's test checks the latency histogram holds exactly the served requests; no other API counts it",
	"wire.Registered":          "the only way past's codec tests enumerate the tag registry for the golden tag table and the fuzz corpus",
}

// TestNoDeadExports fails on any exported func, method, type, var or
// const declared in a non-test file under internal/ that no non-test
// file of the module uses (bench/ is a module of its own, and tests do
// not count), unless deadExportAllow names it with a reason.
//
// An object is used when some identifier refers to it; a type also when
// an expression has it (or a pointer to it) as its type. A method is
// also used when its receiver, or a pointer to it, implements an
// interface that occurs in the type of some expression or object of the
// module, and that interface has a method of its name; or when its name
// is one the standard library calls dynamically on an `any`: String,
// GoString, Format, Error, Unwrap, Is, As and the JSON, text and binary
// Marshal/Unmarshal pairs. Module packages are type-checked from
// source, the standard library from its export data.
//
// Run with -v to print the hits (make dead-exports).
func TestNoDeadExports(t *testing.T) {
	dead, err := deadExports()
	if err != nil {
		t.Fatal(err)
	}
	unseen := maps.Clone(deadExportAllow)
	hits := 0
	for _, d := range dead {
		if _, ok := unseen[d.name]; ok {
			delete(unseen, d.name)
			t.Logf("allowed: %s (%s)", d.name, d.pos)
			continue
		}
		hits++
		t.Errorf("%s: exported %s has no caller outside tests and bench/", d.pos, d.name)
	}
	for name, reason := range unseen {
		t.Errorf("stale allowlist entry %s (%s): it is gone or has a non-test caller", name, reason)
	}
	t.Logf("%d dead exports, %d allowlisted", hits, len(dead)-hits)
}

type deadExport struct{ name, pos string }

// deadExports type-checks every non-test package of the module rooted at
// the working directory, where go test runs this package's tests, and
// returns its unused exports under internal/, sorted by name.
func deadExports() ([]deadExport, error) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path → non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || d.Name() == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		files[module+"/"+dir] = append(files[module+"/"+dir], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
		Defs:  map[*ast.Ident]types.Object{},
	}
	std, err := stdImporter(fset)
	if err != nil {
		return nil, err
	}
	l := &loader{fset: fset, files: files, info: info, pkgs: map[string]*types.Package{}, std: std}
	for path := range files {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		used[origin(obj)] = true
	}
	ifaces := map[*types.Interface]bool{}
	seen := map[types.Type]bool{}
	for _, tv := range info.Types {
		markTyped(tv.Type, used)
		collectIfaces(tv.Type, ifaces, seen)
	}
	for _, obj := range info.Defs {
		if obj != nil {
			collectIfaces(obj.Type(), ifaces, seen)
		}
	}

	var dead []deadExport
	report := func(name string, obj types.Object) {
		dead = append(dead, deadExport{name, fset.Position(obj.Pos()).String()})
	}
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, module+"/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() && !used[obj] {
				report(pkg.Name()+"."+n, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !dynamic[m.Name()] && !implementsNamer(named, m.Name(), ifaces) {
					report(pkg.Name()+"."+n+"."+m.Name(), m)
				}
			}
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead, nil
}

// dynamic holds the method names the standard library calls on values
// it holds only as `any`, such as fmt's Stringer and errors' Unwrap.
var dynamic = map[string]bool{
	"String": true, "GoString": true, "Format": true,
	"Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
}

// implementsNamer reports whether T or *T implements an interface of
// ifaces that has a method called name.
func implementsNamer(named *types.Named, name string, ifaces map[*types.Interface]bool) bool {
	ptr := types.NewPointer(named)
	for it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == name && (types.Implements(named, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// markTyped marks the named type of an expression (through one pointer)
// as used: a type is in use while values of it are, named or not.
func markTyped(t types.Type, used map[types.Object]bool) {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		used[n.Origin().Obj()] = true
	}
}

// collectIfaces adds every interface occurring in t, through named
// types' underlying interfaces, signatures, and element and field types.
func collectIfaces(t types.Type, out map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			collectIfaces(it, out, seen)
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			out[t.Complete()] = true
		}
	case *types.Pointer:
		collectIfaces(t.Elem(), out, seen)
	case *types.Slice:
		collectIfaces(t.Elem(), out, seen)
	case *types.Array:
		collectIfaces(t.Elem(), out, seen)
	case *types.Map:
		collectIfaces(t.Key(), out, seen)
		collectIfaces(t.Elem(), out, seen)
	case *types.Chan:
		collectIfaces(t.Elem(), out, seen)
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				collectIfaces(tup.At(i).Type(), out, seen)
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			collectIfaces(t.Field(i).Type(), out, seen)
		}
	}
}

// stdImporter reads the standard library from the export data that one
// `go list -export -deps` run reports for everything the module
// imports: importer.Default would start a go command per package.
func stdImporter(fset *token.FileSet) (types.Importer, error) {
	cmd := exec.Command(filepath.Join(build.Default.GOROOT, "bin", "go"), "list", "-export", "-deps",
		"-f", "{{if .Standard}}{{.ImportPath}} {{.Export}}{{end}}", "./...")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %w", err)
	}
	export := map[string]string{}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			export[path] = file
		}
	}
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}), nil
}

// origin maps an instantiated generic function, method or field to the
// object it was declared as.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// loader is a types.Importer that checks module packages from the parsed
// files, recording into one shared Info, and takes every other package
// from the standard library's export data.
type loader struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	info  *types.Info
	pkgs  map[string]*types.Package
	std   types.Importer
}

func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	fs, ok := l.files[path]
	if !ok {
		return l.std.Import(path)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, fs, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}
