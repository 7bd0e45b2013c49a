package archtest

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDesignRules states the repository's "one way to do it" decisions. Each
// rule names what it keeps single and fails with the position of whatever
// breaks it. Rules that forbid a name forbid it in tests too.
func TestDesignRules(t *testing.T) {
	m := load(t)
	rules := []struct {
		name string
		// why is the decision the rule holds.
		why   string
		check func(*module) []string
	}{
		{"OneFailoverBudget", "session recovery lives once, in the shipping pool", oneFailoverBudget},
		{"OneSetupValidator", "a session's SetupAck is checked in one place, udfSession.acknowledge", oneSetupValidator},
		{"OneWayToPlan", "Planner.PlanTree is the planner's only exported method", oneWayToPlan},
		{"OneIteratorContract", "NextBatch is the only way to pull rows: no tuple-at-a-time Next, no adapter", oneIteratorContract},
		{"NaiveIsTheSemiJoin", "the naive strategy is exec.SemiJoin at concurrency factor 1: no second operator, no unreached Sort or table store", naiveIsTheSemiJoin},
		{"OneLRU", "every cross-query cache is a plan.Cache, the only importer of container/list", oneLRU},
		{"OneColumnDemandPass", "which columns a scan reads is decided by pruneColumns alone", oneColumnDemandPass},
		{"OneControlMessageReader", "control messages decode through the one bounded reader in internal/wire/reader.go", oneControlMessageReader},
		{"OneUnsafeFile", "types.Value's unsafe.Pointer payload stays in the file that defines it", oneUnsafeFile},
		{"OneColumnCodec", "columns at rest are types vectors or dictionaries of types values: storage has no wire batch codec", oneColumnCodec},
		{"OneQueryPipeline", "every service entry runs one pipeline: admission, planning, lowering and the result cache are each reached from one function, and a query's state changes in one method", oneQueryPipeline},
		{"OneQueryFrontEnd", "query text is the one way into a logical tree: outside lang and logical, no program code builds one with a logical.New* constructor", oneQueryFrontEnd},
	}
	for _, r := range rules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(m) {
				t.Errorf("%s (%s)", v, r.why)
			}
		})
	}
}

// pkgAt returns the module package in dir, or nil.
func (m *module) pkgAt(dir string) *pkg {
	for _, p := range m.pkgs {
		if p.dir == dir {
			return p
		}
	}
	return nil
}

// allFiles calls fn on every file, test files included, of the packages
// under the given module directories, this package's own rules aside.
func (m *module) allFiles(dirs []string, fn func(p *pkg, f *ast.File)) {
	for _, p := range m.pkgs {
		if p.dir == "internal/archtest" {
			continue
		}
		for _, d := range dirs {
			if p.under(d) {
				for _, f := range append(append([]*ast.File{}, p.files...), p.tests...) {
					fn(p, f)
				}
				break
			}
		}
	}
}

// forbidNames reports every identifier in the given directories that is one
// of names.
func (m *module) forbidNames(dirs []string, names ...string) []string {
	bad := map[string]bool{}
	for _, n := range names {
		bad[n] = true
	}
	var out []string
	m.allFiles(dirs, func(p *pkg, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && bad[id.Name] {
				out = append(out, m.pos(id.Pos())+": "+id.Name+" is back")
			}
			return true
		})
	})
	return out
}

func oneFailoverBudget(m *module) []string {
	var decls []string
	m.allFiles([]string{"internal/exec"}, func(p *pkg, f *ast.File) {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "failoverBudget" {
				decls = append(decls, m.pos(fd.Pos()))
			}
		}
	})
	if len(decls) != 1 {
		return []string{"failoverBudget is declared " + strconv.Itoa(len(decls)) + " times in internal/exec, want once: " + strings.Join(decls, ", ")}
	}
	return nil
}

func oneSetupValidator(m *module) []string {
	exec, wire := m.pkgAt("internal/exec"), m.pkgAt("internal/wire")
	decode := wire.types.Scope().Lookup("DecodeSetupAck")
	var out []string
	calls := 0
	for _, f := range exec.files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || exec.info.Uses[id] != decode {
				return true
			}
			if fd := enclosingFunc(f, id.Pos()); fd != nil && fd.Recv != nil && recvName(fd) == "udfSession" && fd.Name.Name == "acknowledge" {
				calls++
			} else {
				out = append(out, m.pos(id.Pos())+": DecodeSetupAck named outside udfSession.acknowledge")
			}
			return true
		})
	}
	if calls != 1 {
		out = append(out, "udfSession.acknowledge calls DecodeSetupAck "+strconv.Itoa(calls)+" times, want once")
	}
	return out
}

func oneWayToPlan(m *module) []string {
	plan := m.pkgAt("internal/plan")
	planner := plan.types.Scope().Lookup("Planner").Type()
	var out []string
	ms := types.NewMethodSet(types.NewPointer(planner))
	for i := 0; i < ms.Len(); i++ {
		if fn := ms.At(i).Obj(); fn.Exported() && fn.Name() != "PlanTree" {
			out = append(out, m.pos(fn.Pos())+": Planner."+fn.Name()+" is a second exported planner method")
		}
	}
	if ms.Lookup(plan.types, "PlanTree") == nil {
		out = append(out, "Planner.PlanTree is gone")
	}
	for _, f := range plan.tests {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Name.IsExported() && recvName(fd) == "Planner" {
				out = append(out, m.pos(fd.Pos())+": test file adds exported method Planner."+fd.Name.Name)
			}
		}
	}
	return out
}

// recvName is the name of a method declaration's receiver type.
func recvName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.IndexExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name
		}
	case *ast.IndexListExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name
		}
	}
	return ""
}

func oneIteratorContract(m *module) []string {
	dirs := []string{"internal", "cmd", "bench"}
	out := m.forbidNames(dirs, "Scalarize", "ScalarNextBatch")
	// isTupleNext matches func() (types.Tuple, bool).
	isTupleNext := func(ft *ast.FuncType) bool {
		if ft.Params.NumFields() != 0 || ft.Results.NumFields() != 2 {
			return false
		}
		first, ok := ft.Results.List[0].Type.(*ast.SelectorExpr)
		if !ok || first.Sel.Name != "Tuple" {
			return false
		}
		last := ft.Results.List[len(ft.Results.List)-1].Type
		id, ok := last.(*ast.Ident)
		return ok && id.Name == "bool"
	}
	m.allFiles(dirs, func(p *pkg, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.FuncDecl:
				if x.Name.Name == "Next" && isTupleNext(x.Type) {
					out = append(out, m.pos(x.Pos())+": a tuple-at-a-time Next is back")
				}
			case *ast.InterfaceType:
				for _, fl := range x.Methods.List {
					if ft, ok := fl.Type.(*ast.FuncType); ok && len(fl.Names) == 1 && fl.Names[0].Name == "Next" && isTupleNext(ft) {
						out = append(out, m.pos(fl.Pos())+": a tuple-at-a-time Next is back in an interface")
					}
				}
			}
			return true
		})
	})
	return out
}

func naiveIsTheSemiJoin(m *module) []string {
	return m.forbidNames([]string{"internal", "cmd"},
		"NaiveUDF", "NewNaiveUDF", "hasRoom", "EnableCache", "RoundTrips", "NewSort", "NewStore")
}

func oneLRU(m *module) []string {
	var out []string
	for _, p := range m.pkgs {
		if !p.under("internal") && !p.under("cmd") {
			continue
		}
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "container/list" && m.fileName(f) != "internal/plan/cache.go" {
					out = append(out, m.pos(imp.Pos())+": a second LRU imports container/list")
				}
			}
		}
	}
	out = append(out, m.forbidNames([]string{"internal", "cmd"}, "scansOf")...)
	// The service's result cache is a field holding a plan.Cache; a type
	// of either name is a second cache.
	m.allFiles([]string{"internal", "cmd"}, func(p *pkg, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && (ts.Name.Name == "PlanCache" || ts.Name.Name == "resultCache") {
				out = append(out, m.pos(ts.Pos())+": type "+ts.Name.Name+" is a second cache")
			}
			return true
		})
	})
	return out
}

func oneColumnDemandPass(m *module) []string {
	dirs := []string{"internal", "cmd"}
	out := m.forbidNames(dirs, "annotateScanRequired", "pruneUDFApplyInput")
	m.allFiles(dirs, func(p *pkg, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, _ := strconv.Unquote(lit.Value); s == "annotate-scan-required" || s == "prune-udf-apply-input" {
					out = append(out, m.pos(lit.Pos())+": rule "+s+" is back")
				}
			}
			return true
		})
	})
	logical := m.pkgAt("internal/logical")
	scan := logical.types.Scope().Lookup("Scan").Type().Underlying().(*types.Struct)
	var required types.Object
	for i := 0; i < scan.NumFields(); i++ {
		if scan.Field(i).Name() == "Required" {
			required = scan.Field(i)
		}
	}
	for _, p := range m.pkgs {
		if !p.under("internal") && !p.under("cmd") {
			continue
		}
		for _, f := range p.files {
			fieldWrites(p, f, func(field *types.Var, at token.Pos) {
				if field.Origin() != required {
					return
				}
				if fd := enclosingFunc(f, at); fd == nil || fd.Name.Name != "pruneColumns" || m.fileName(f) != "internal/logical/rewrite.go" {
					out = append(out, m.pos(at)+": Scan.Required set outside pruneColumns")
				}
			})
		}
	}
	return out
}

// enclosingFunc returns the top-level function declaration of f holding pos.
func enclosingFunc(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd
		}
	}
	return nil
}

func oneControlMessageReader(m *module) []string {
	out := m.forbidNames([]string{"internal/wire"}, "readString", "readInts")
	wire := m.pkgAt("internal/wire")
	for _, f := range wire.files {
		if m.fileName(f) != "internal/wire/query.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := wire.info.Uses[sel.Sel]
			if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "encoding/binary" {
				return true
			}
			if name := obj.Name(); name == "Uvarint" || strings.HasPrefix(name, "Uint") && isLittleEndian(wire, sel) {
				out = append(out, m.pos(sel.Pos())+": query.go walks raw words with binary."+name)
			}
			return true
		})
	}
	return out
}

// isLittleEndian reports whether sel is binary.LittleEndian.<method>.
func isLittleEndian(p *pkg, sel *ast.SelectorExpr) bool {
	x, ok := sel.X.(*ast.SelectorExpr)
	return ok && x.Sel.Name == "LittleEndian" && p.info.Uses[x.Sel] != nil && p.info.Uses[x.Sel].Pkg().Path() == "encoding/binary"
}

func oneUnsafeFile(m *module) []string {
	var out []string
	seen := false
	for _, p := range m.pkgs {
		for _, f := range p.files {
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path != "unsafe" {
					continue
				}
				if m.fileName(f) == "internal/types/value.go" {
					seen = true
				} else {
					out = append(out, m.pos(imp.Pos())+": imports unsafe")
				}
			}
		}
	}
	if !seen {
		out = append(out, "internal/types/value.go no longer imports unsafe: move this rule with the payload")
	}
	return out
}

func oneColumnCodec(m *module) []string {
	var out []string
	m.allFiles([]string{"internal/storage"}, func(p *pkg, f *ast.File) {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "csq/internal/wire" {
				out = append(out, m.pos(imp.Pos())+": storage imports internal/wire")
			}
		}
	})
	return append(out, m.forbidNames([]string{"internal", "cmd", "bench"}, "AppendTupleBatchAuto", "DecodeColumnInto", "dictEncoder")...)
}

func oneQueryPipeline(m *module) []string {
	svc := m.pkgAt("internal/service")
	stats := svc.types.Scope().Lookup("QueryStats").Type().Underlying().(*types.Struct)
	var state types.Object
	for i := 0; i < stats.NumFields(); i++ {
		if stats.Field(i).Name() == "State" {
			state = stats.Field(i)
		}
	}
	// callee names a pipeline step the selection calls, or "".
	callee := func(sel *types.Selection) string {
		t := sel.Recv()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return ""
		}
		recv, method := named.Obj().Name(), sel.Obj().Name()
		switch path := named.Obj().Pkg().Path(); {
		case path == svc.path && recv == "admission" && method == "acquire",
			path == modulePath+"/internal/plan" && (recv == "Planner" && method == "PlanTree" || recv == "TreePlan" && method == "NewOperator"):
			return recv + "." + method
		case path == modulePath+"/internal/plan" && recv == "Cache" && (method == "Lookup" || method == "Store"):
			if arg, ok := named.TypeArgs().At(0).(*types.Pointer); ok && types.TypeString(arg.Elem(), nil) == svc.path+".cachedResult" {
				return "the result cache's " + method
			}
		}
		return ""
	}
	callers := map[string]map[string]bool{}
	for _, step := range []string{"admission.acquire", "Planner.PlanTree", "TreePlan.NewOperator", "the result cache's Lookup", "the result cache's Store"} {
		callers[step] = map[string]bool{}
	}
	writers := map[string]bool{}
	funcName := func(f *ast.File, at token.Pos) string {
		fd := enclosingFunc(f, at)
		switch {
		case fd == nil:
			return m.pos(at)
		case fd.Recv != nil:
			return recvName(fd) + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
	for _, f := range svc.files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if s := svc.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					if step := callee(s); step != "" {
						callers[step][funcName(f, sel.Pos())] = true
					}
				}
			}
			return true
		})
		fieldWrites(svc, f, func(field *types.Var, at token.Pos) {
			if field.Origin() == state {
				writers[funcName(f, at)] = true
			}
		})
	}
	var out []string
	for step, fns := range callers {
		if len(fns) != 1 {
			out = append(out, step+" is called from "+strconv.Itoa(len(fns))+" functions of internal/service, want one: "+strings.Join(sortedKeys(fns), ", "))
		}
	}
	if len(writers) != 1 || !strings.HasPrefix(sortedKeys(writers)[0], "Query.") {
		out = append(out, "QueryStats.State is assigned in "+strings.Join(sortedKeys(writers), ", ")+", want one method of Query")
	}
	sort.Strings(out)
	return out
}

func oneQueryFrontEnd(m *module) []string {
	logical := modulePath + "/internal/logical"
	var out []string
	for _, p := range m.pkgs {
		if p.under("internal/lang") || p.under("internal/logical") {
			continue
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := p.info.Uses[id].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == logical && strings.HasPrefix(fn.Name(), "New") && fn.Type().(*types.Signature).Recv() == nil {
					out = append(out, m.pos(id.Pos())+": calls logical."+fn.Name())
				}
				return true
			})
		}
	}
	return out
}

func sortedKeys(set map[string]bool) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
