package archtest

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// allowlist names what the reachability rules may find, each with the
// reason it stays. An entry is a package directory ("internal/sim") or a
// qualified name within one ("internal/wire.Backoff",
// "internal/wire.SetupRequest.FinalDelivery"); a type's entry covers its
// fields and methods. An entry that matches no finding is itself a failure.
var allowlist = map[string]string{
	"internal/netsim.FaultScript":        "fault fixture: which sessions the chaos tests kill, by dial ordinal",
	"internal/netsim.NewFaultScript":     "fault fixture: builds a FaultScript",
	"internal/netsim.FaultConfig":        "fault fixture: the drop, stall, corrupt and refuse faults a session carries",
	"internal/exec.InProcessLink.Faults": "fault fixture: where the chaos tests attach a FaultScript",
	"internal/wire.Backoff":              "injected jitter source (Rand) and shape, so tests replay a schedule",
	"internal/wire.Breaker":              "injected clock (Now), so tests step the cooldown",
	"internal/wire.Redialer":             "injected sleep, so tests run the redial ladder without waiting",
	"internal/sim":                       "the discrete-event model behind the paper's figures; only its tests run it (ROADMAP item 19)",
	"internal/wire.MsgInvalid":           "zero-value sentinel that holds the message-type codes in place",
	"internal/expr.OpInvalid":            "zero-value sentinel that holds the marshalled operator codes in place",
	"internal/storage/colstore.Open":     "reopens a stored table; FuzzOpenTable fuzzes it, though no binary restarts onto stored tables yet",
	"internal/plan.Cache.Values":         "how tests outside plan see what a cache holds",
	"internal/wire.EncodeCancel":         "the requester's cancel frame, which the server decodes; kept beside DecodeCancel so the tests share one encoder",
}

// maxAllowlist caps the allowlist: what the rules find is deleted, not excused.
const maxAllowlist = 15

// TestReachability holds every declaration in non-test internal/ code to a
// use in non-test code of internal/, cmd/ or bench/:
//   - an exported package-level name, method or struct field must be named;
//   - an exported struct field must be assigned (by assignment, composite
//     literal key or address), or it is a knob stuck at its zero value;
//   - an unexported package-level name or method must be named.
//
// A method counts as named when a method of the same name and signature is
// called through an interface, belongs to an interface of a standard library
// package the module imports, or is one package errors finds by assertion
// (the library calls it).
func TestReachability(t *testing.T) {
	m := load(t)
	r := newReach(m)
	findings := r.findings()

	if len(allowlist) > maxAllowlist {
		t.Errorf("allowlist has %d entries, at most %d allowed", len(allowlist), maxAllowlist)
	}
	matched := map[string]bool{}
	for _, f := range findings {
		if entry, ok := allowed(f.name); ok {
			matched[entry] = true
			continue
		}
		t.Errorf("%s: %s %s", f.pos, f.name, f.why)
	}
	for entry := range allowlist {
		if !matched[entry] {
			t.Errorf("allowlist entry %q matches nothing: delete it", entry)
		}
	}
}

func allowed(name string) (string, bool) {
	for entry := range allowlist {
		if name == entry || strings.HasPrefix(name, entry+".") {
			return entry, true
		}
	}
	return "", false
}

type finding struct {
	pos, name, why string
}

type reach struct {
	m *module
	// used holds every object some non-test code names, outside the
	// object's own declaration.
	used map[types.Object]bool
	// assigned holds every struct field some non-test code writes.
	assigned map[types.Object]bool
	// ifaceMethods are the interface methods the program may call: those
	// called through an interface in module code, and every method of an
	// exported interface of an imported standard library package.
	ifaceMethods []*types.Func
	// decls maps each declared object to the extent of its declaration, so
	// a recursive call or a self-referencing type does not count as a use.
	decls map[types.Object]ast.Node
}

func newReach(m *module) *reach {
	r := &reach{m: m, used: map[types.Object]bool{}, assigned: map[types.Object]bool{}, decls: map[types.Object]ast.Node{}}
	for _, p := range m.pkgs {
		r.recordDecls(p)
	}
	stdIfaces := map[types.Object]bool{}
	for _, p := range m.pkgs {
		for _, imp := range p.types.Imports() {
			if !strings.HasPrefix(imp.Path(), modulePath+"/") {
				r.addStdInterfaces(imp, stdIfaces)
			}
		}
		r.recordUses(p)
		r.recordWrites(p)
	}
	r.addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	r.addIface(errorsAsserts())
	return r
}

// errorsAsserts is the interface of the methods package errors calls through
// unnamed interfaces: Unwrap, Is and As.
func errorsAsserts() *types.Interface {
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	method := func(name string, params, results []types.Type) *types.Func {
		vars := func(ts []types.Type) *types.Tuple {
			vs := make([]*types.Var, len(ts))
			for i, t := range ts {
				vs[i] = types.NewParam(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vs...)
		}
		return types.NewFunc(token.NoPos, nil, name, types.NewSignatureType(nil, nil, nil, vars(params), vars(results), false))
	}
	boolType := types.Typ[types.Bool]
	return types.NewInterfaceType([]*types.Func{
		method("Unwrap", nil, []types.Type{errType}),
		method("Unwrap", nil, []types.Type{types.NewSlice(errType)}),
		method("Is", []types.Type{errType}, []types.Type{boolType}),
		method("As", []types.Type{anyType}, []types.Type{boolType}),
	}, nil)
}

func (r *reach) addStdInterfaces(imp *types.Package, seen map[types.Object]bool) {
	scope := imp.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() || seen[obj] {
			continue
		}
		seen[obj] = true
		if tn, ok := obj.(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				r.addIface(it)
			}
		}
	}
}

func (r *reach) addIface(it *types.Interface) {
	for i := 0; i < it.NumMethods(); i++ {
		r.ifaceMethods = append(r.ifaceMethods, it.Method(i))
	}
}

// recordDecls notes each package-level declaration's extent.
func (r *reach) recordDecls(p *pkg) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				r.decls[p.info.Defs[d.Name]] = d
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						r.decls[p.info.Defs[s.Name]] = s
					case *ast.ValueSpec:
						for _, n := range s.Names {
							r.decls[p.info.Defs[n]] = s
						}
					}
				}
			}
		}
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recordUses marks what p's code names. A method's receiver type does not
// name its type, and a use inside an object's own declaration does not
// count for that object.
func (r *reach) recordUses(p *pkg) {
	recv := map[*ast.Ident]bool{}
	for _, f := range p.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
				ast.Inspect(fd.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						recv[id] = true
					}
					return true
				})
			}
		}
	}
	for id, obj := range p.info.Uses {
		if recv[id] {
			continue
		}
		obj = origin(obj)
		if fn, ok := obj.(*types.Func); ok {
			if sig := fn.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
				r.ifaceMethods = append(r.ifaceMethods, fn)
			}
		}
		if d := r.decls[obj]; d != nil && d.Pos() <= id.Pos() && id.Pos() < d.End() {
			continue
		}
		r.used[obj] = true
	}
	// A field promoted through an embedded field names the embedded field.
	for _, sel := range p.info.Selections {
		embedded(sel, func(f *types.Var) { r.used[f] = true })
	}
}

// embedded calls fn on every embedded field a selection passes through.
func embedded(sel *types.Selection, fn func(*types.Var)) {
	t := sel.Recv()
	path := sel.Index()
	for _, i := range path[:len(path)-1] {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return
		}
		f := st.Field(i)
		fn(f.Origin())
		t = f.Type()
	}
}

// recordWrites marks every struct field p's code assigns.
func (r *reach) recordWrites(p *pkg) {
	for _, f := range p.files {
		fieldWrites(p, f, func(field *types.Var, _ token.Pos) { r.assigned[field.Origin()] = true })
	}
}

// fieldWrites calls fn with every struct field f writes and where: by
// assignment, increment, range assignment, address (&x.F, or a pointer
// method called on x.F or promoted through an embedded field) or composite
// literal (a key, or every field of a positional literal). Every field
// along the selector chain of a written expression counts as written.
func fieldWrites(p *pkg, f *ast.File, fn func(field *types.Var, at token.Pos)) {
	var chain func(e ast.Expr)
	chain = func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				sel := p.info.Selections[x]
				if sel == nil || sel.Kind() != types.FieldVal {
					return
				}
				fn(sel.Obj().(*types.Var), x.Pos())
				embedded(sel, func(v *types.Var) { fn(v, x.Pos()) })
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE {
				for _, l := range n.Lhs {
					chain(l)
				}
			}
		case *ast.IncDecStmt:
			chain(n.X)
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				chain(n.Key)
				if n.Value != nil {
					chain(n.Value)
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				chain(n.X)
			}
		case *ast.CallExpr:
			fun, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			sel := p.info.Selections[fun]
			if sel == nil || sel.Kind() != types.MethodVal {
				return true
			}
			if _, ptr := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
				embedded(sel, func(v *types.Var) { fn(v, fun.Pos()) })
				if _, isPtr := p.info.TypeOf(fun.X).Underlying().(*types.Pointer); !isPtr {
					chain(fun.X)
				}
			}
		case *ast.CompositeLit:
			t := p.info.TypeOf(n)
			if ptr, ok := t.Underlying().(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for _, e := range n.Elts {
				kv, ok := e.(*ast.KeyValueExpr)
				if !ok { // positional: every field is set
					for i := 0; i < st.NumFields(); i++ {
						fn(st.Field(i), e.Pos())
					}
					break
				}
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := p.info.Uses[id].(*types.Var); ok {
						fn(v, kv.Pos())
					}
				}
			}
		}
		return true
	})
}

// implementsUsed reports whether fn has the name and signature of a method
// the program may call through an interface.
func (r *reach) implementsUsed(fn *types.Func) bool {
	for _, im := range r.ifaceMethods {
		if im.Name() == fn.Name() && types.Identical(im.Type(), fn.Type()) {
			return true
		}
	}
	return false
}

func (r *reach) findings() []finding {
	var out []finding
	add := func(p *pkg, obj types.Object, name, why string) {
		out = append(out, finding{pos: r.m.pos(obj.Pos()), name: p.dir + "." + name, why: why})
	}
	for _, p := range r.m.pkgs {
		if !p.under("internal") {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || name == "init" {
				continue
			}
			if !r.used[obj] {
				if obj.Exported() {
					add(p, obj, name, "is exported but no non-test code names it")
				} else {
					add(p, obj, name, "is unexported and no non-test code names it")
				}
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
				fn := named.Method(i)
				if !r.used[fn] && !r.implementsUsed(fn) {
					add(p, fn, name+"."+fn.Name(), "is a method no non-test code calls")
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				r.fields(p, st, name, add)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// fields checks the exported fields of st, and of any struct type literal
// nested in them, declared under prefix.
func (r *reach) fields(p *pkg, st *types.Struct, prefix string, add func(*pkg, types.Object, string, string)) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Pkg() != p.types || !f.Exported() {
			continue
		}
		name := prefix + "." + f.Name()
		switch {
		case !r.used[f]:
			add(p, f, name, "is an exported field no non-test code names")
		case !r.assigned[f]:
			add(p, f, name, "is an exported field no non-test code sets")
		}
		if inner, ok := f.Type().(*types.Struct); ok {
			r.fields(p, inner, name, add)
		}
	}
}
