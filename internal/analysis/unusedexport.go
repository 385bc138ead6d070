package analysis

import (
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Unusedexport flags every exported function, method, type, struct
// field, constant and variable declared in a package under internal/
// that no non-test file in the module references: an export only tests
// use is API nobody ships. References are gathered from the whole
// module whatever the run was asked to lint, so a subset run flags
// exactly what a whole-module run flags in those packages. Another
// package's references resolve to the loader's dependency copy of a
// declaration, a different object from the linted one, so declarations
// are matched by source position. A method is never flagged while its
// receiver satisfies a named interface that has the method: a call
// through the interface references the interface's method, not the
// concrete one. Code outside internal/ (bench, cmd, examples, pkg)
// counts as a user and is never flagged.
func Unusedexport() *Analyzer {
	var loader *Loader
	var linted []*Package
	a := &Analyzer{
		Name: "unusedexport",
		Doc:  "flags exports under internal/ that no non-test file in the module references",
		Run: func(pass *Pass) {
			loader = pass.Loader
			linted = append(linted, pass.Pkg)
		},
	}
	a.Finish = func(rep *Reporter) {
		var cands []types.Object
		have := map[string]bool{}
		for _, pkg := range linted {
			have[pkg.Dir] = true
			if isInternalPath(pkg.Path) {
				cands = append(cands, exportedDecls(pkg)...)
			}
		}
		dirs, err := loader.Expand(loader.ModRoot, nil)
		if len(cands) == 0 || err != nil {
			return
		}
		pkgs := linted
		for _, dir := range dirs {
			if !have[dir] {
				pkg, err := loader.LoadDir(dir, "")
				if err != nil {
					// A module package that does not parse fails the
					// build first; partial references would only add
					// false findings.
					return
				}
				pkgs = append(pkgs, pkg)
			}
		}
		used := map[token.Position]bool{}
		for _, pkg := range pkgs {
			for _, obj := range pkg.Info.Uses {
				if obj.Exported() && obj.Pkg() != nil && isInternalPath(obj.Pkg().Path()) {
					used[loader.fset.Position(obj.Pos())] = true
				}
			}
		}
		ifaces := namedInterfaces(loader, pkgs)
		for _, obj := range cands {
			if !used[loader.fset.Position(obj.Pos())] && !satisfiesInterfaceWith(obj, ifaces) {
				kind := strings.Fields(types.ObjectString(obj, nil))[0]
				rep.Reportf(obj.Pos(), "exported %s %s has no user outside tests; delete it, or unexport it if its package still needs it", kind, obj.Name())
			}
		}
	}
	return a
}

// isInternalPath reports whether an import path has an internal element.
func isInternalPath(path string) bool {
	return strings.HasPrefix(path, "internal/") || strings.Contains(path, "/internal/")
}

// exportedDecls lists the package's exported package-level
// declarations, methods and named struct fields. Interface methods and
// embedded fields are left out: a call through an interface and a
// promoted selector reference them only indirectly.
func exportedDecls(pkg *Package) []types.Object {
	var objs []types.Object
	top := pkg.Types.Scope()
	for id, obj := range pkg.Info.Defs {
		if obj == nil || !id.IsExported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Var:
			if o.Embedded() || !o.IsField() && o.Parent() != top {
				continue
			}
		case *types.Func:
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				continue
			}
		default:
			if obj.Parent() != top {
				continue
			}
		}
		objs = append(objs, obj)
	}
	return objs
}

// namedInterfaces lists every named interface the run can see: the
// module's packages, every dependency the loader checked, and the
// universe's error.
func namedInterfaces(l *Loader, pkgs []*Package) []*types.Interface {
	scopes := []*types.Scope{types.Universe}
	for _, pkg := range pkgs {
		scopes = append(scopes, pkg.Types.Scope())
	}
	for _, dep := range l.byDir {
		scopes = append(scopes, dep.Scope())
	}
	var out []*types.Interface
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
	}
	return out
}

// satisfiesInterfaceWith reports whether obj is a method whose receiver
// type satisfies one of ifaces that has a method of obj's name. The
// receiver and the interface may come from different copies of one
// package, so signatures are compared as path-qualified strings.
func satisfiesInterfaceWith(obj types.Object, ifaces []*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	mset := types.NewMethodSet(types.NewPointer(recv))
	have := map[string]string{}
	for i := 0; i < mset.Len(); i++ {
		have[mset.At(i).Obj().Name()] = sigString(mset.At(i).Obj().Type())
	}
	for _, it := range ifaces {
		named, satisfied := false, true
		for i := 0; i < it.NumMethods() && satisfied; i++ {
			m := it.Method(i)
			sig, ok := have[m.Name()]
			named = named || m.Name() == fn.Name()
			satisfied = ok && sig == sigString(m.Type())
		}
		if named && satisfied {
			return true
		}
	}
	return false
}

// sigString renders a signature's parameter and result types, without
// their names, qualified by package path.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	s := strconv.FormatBool(sig.Variadic())
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		s += ";"
		for i := 0; i < tuple.Len(); i++ {
			s += types.TypeString(tuple.At(i).Type(), (*types.Package).Path) + ","
		}
	}
	return s
}
