package deferstm_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keepKind is the one reason an exported name of internal/ may stay
// without a non-test caller.
type keepKind string

const (
	paperAPI  keepKind = "the paper's API"
	wireAPI   keepKind = "the wire client's surface"
	testHook  keepKind = "a test hook another package's tests need"
	reference keepKind = "a reference checker"
)

type keep struct {
	kind keepKind
	note string
}

// keptWithoutCaller lists the exported names of internal/ that no non-test
// code calls and that stay anyway, each with its reason. A name is written
// pkg.Name, or pkg.Type.Method for a method.
var keptWithoutCaller = map[string]keep{
	"stm.Tx.Nested":              {paperAPI, "flat nesting, which the paper's multi-lock deferral relies on; README and Atomic's doc point users to it"},
	"server.Client.Batch":        {wireAPI, "the client's entry point for BATCH"},
	"server.Client.Del":          {wireAPI, "the client's entry point for DEL"},
	"server.Client.Watch":        {wireAPI, "the client's entry point for WATCH"},
	"check.RecoveredPrefixLanes": {reference, "the recovery axioms (completeness, prefix, cross-lane atomicity) over a recorded history"},
	"ds.HashMap.BucketCount":     {testHook, "kv's map tests pin the table size"},
	"ds.HashMap.Migrating":       {testHook, "kv's map tests wait for a migration to settle"},
	"simio.FS.SetFaults":         {testHook, "dedup's tests inject write faults"},
	"stm.AbortCauseSnapshot":     {testHook, "check's snapshot tests build a snapshot abort event"},
	"stm.Runtime.RetryParked":    {testHook, "ds, txlock and history tests wait for a parked transaction and check none leaks"},
	"stm.Var.Version":            {testHook, "ds's resize tests check a migration bumps no version"},
	"stm.Var.Watchers":           {testHook, "wal's tests and txlock's export_test check watcher registration"},
}

// TestExportsHaveCallers type-checks every package of the module, and the
// benchmark's main package, from source, and fails on each exported name
// of internal/ that no non-test code uses and keptWithoutCaller does not
// list. A method counts as used when it is called directly, when it is
// String or Error, or when its type implements an interface whose method
// of that name the non-test code calls. The standard library is imported
// from the build cache's export data, so this needs `go list` and no
// network.
func TestExportsHaveCallers(t *testing.T) {
	pkgs, err := loadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	unused := sweep(pkgs)

	var missing []string
	for _, name := range unused {
		if _, ok := keptWithoutCaller[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported names of internal/ have no non-test caller; delete each, or list it in keptWithoutCaller with its reason:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
	isUnused := make(map[string]bool, len(unused))
	for _, name := range unused {
		isUnused[name] = true
	}
	for name, k := range keptWithoutCaller {
		if !isUnused[name] {
			t.Errorf("keptWithoutCaller lists %s, which is gone or now has a caller; drop it from the list", name)
		}
		if k.kind == "" || k.note == "" {
			t.Errorf("keptWithoutCaller lists %s without a reason", name)
		}
	}
}

// modPkg is one type-checked package of the module.
type modPkg struct {
	path  string // import path
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadModule parses the non-test files of every package under root (the
// benchmark's own module included, which imports this one by path) and
// type-checks them in dependency order.
func loadModule(root string) ([]*modPkg, error) {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	byPath := map[string]*modPkg{}
	std := map[string]bool{}
	err = filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		p := &modPkg{path: modPath}
		if rel != "." {
			p.path = modPath + "/" + filepath.ToSlash(rel)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		for _, imp := range bp.Imports {
			if imp != modPath && !strings.HasPrefix(imp, modPath+"/") {
				std[imp] = true
			}
		}
		byPath[p.path] = p
		return nil
	})
	if err != nil {
		return nil, err
	}

	exports, err := stdExports(std)
	if err != nil {
		return nil, err
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	imp := &moduleImporter{fset: fset, pkgs: byPath, std: gc}
	var out []*modPkg
	for _, p := range byPath {
		if err := imp.check(p); err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].path < out[j].path })
	return out, nil
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// stdExports maps each standard-library package the module imports, and
// their dependencies, to its export data file, with one `go list` run.
func stdExports(std map[string]bool) (map[string]string, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}} {{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export: %v\n%s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, nil
}

// moduleImporter type-checks the module's packages from source on first
// import and takes everything else from export data.
type moduleImporter struct {
	fset *token.FileSet
	pkgs map[string]*modPkg
	std  types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if err := m.check(p); err != nil {
		return nil, err
	}
	return p.types, nil
}

func (m *moduleImporter) check(p *modPkg) error {
	if p.types != nil {
		return nil
	}
	p.info = &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: m}
	tp, err := conf.Check(p.path, m.fset, p.files, p.info)
	if err != nil {
		return fmt.Errorf("type-check %s: %v", p.path, err)
	}
	p.types = tp
	return nil
}

// sweep returns, sorted, each exported name of the module's internal/
// packages that no non-test code uses.
func sweep(pkgs []*modPkg) []string {
	used := map[types.Object]bool{}
	var called []*types.Func // interface methods called through
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range p.info.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok && types.IsInterface(sel.Recv()) {
				called = append(called, fn)
			}
		}
	}

	var unused []string
	for _, p := range pkgs {
		if !strings.Contains(p.path+"/", "/internal/") {
			continue
		}
		short := p.path[strings.LastIndex(p.path, "/")+1:]
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !used[obj] {
				unused = append(unused, short+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !used[m] && !satisfies(named, m, called) {
					unused = append(unused, short+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)
	return unused
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// satisfies reports whether m counts as called without a direct call: it is
// String or Error, or its type implements an interface whose method of the
// same name the module calls.
func satisfies(named *types.Named, m *types.Func, called []*types.Func) bool {
	if m.Name() == "String" || m.Name() == "Error" {
		return true
	}
	for _, fn := range called {
		if fn.Name() != m.Name() {
			continue
		}
		iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}
