package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// snapshotPackages are the packages whose outputs (decoded symbols,
// snapshots, traces, cycle ledgers, and the chunk framing that golden
// traces and flight dumps must reproduce exactly) must be byte-identical
// at any worker count. The determinism analyzer applies only inside them; the last
// import-path element decides membership so the rule survives module
// renames and applies to testdata fixtures.
var snapshotPackages = map[string]bool{
	"core":     true,
	"sim":      true,
	"stream":   true,
	"pipeline": true,
	"gateway":  true,
	"fxp":      true,
	"trace":    true,
	"chunk":    true,
}

// Determinism flags the four ways wall-clock and scheduler state leak
// into snapshot-affecting packages:
//
//  1. time.Now / time.Since outside the metrics nil-gate idiom. The
//     recognized gate is an enclosing `if` whose condition either reads a
//     boolean field named `on` (the pipeline's pmetrics gate) or
//     nil-checks an observability handle (an operand whose name mentions
//     met/metrics/obs, like `g.met != nil`). Clock reads feeding a
//     documented nondeterministic output (Stats.Elapsed) carry a
//     //lint:allow determinism directive instead.
//  2. Global math/rand or math/rand/v2 draws (rand.Intn, rand.Float64,
//     …). Explicitly seeded *rand.Rand values passed through call chains
//     are fine; the package-level RNG is process-global state.
//  3. Bare map ranges whose iteration order can escape the loop. Two
//     idioms are recognized as order-safe: collect-keys-then-sort
//     (append-only body whose slice is later passed to sort.* /
//     slices.Sort*), and order-insensitive accumulation (a body of only
//     integer ++/--/+=/-=/|=/&=/^= updates and delete calls — integer
//     addition commutes; float accumulation does not and is flagged).
//  4. select statements racing two or more receive cases: when several
//     result channels are ready the runtime picks pseudorandomly, so a
//     fold fed by such a select is scheduler-dependent. A single
//     cancellation case (a channel obtained from a Done() call) is
//     tolerated alongside one data case.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flags wall-clock, global-rand, map-order, and select nondeterminism in snapshot-affecting packages",
	Run:  runDeterminism,
}

// inSnapshotPackage reports whether the pass's package is on the
// determinism list.
func inSnapshotPackage(p *Pass) bool {
	path := p.Pkg.Path()
	return snapshotPackages[path[strings.LastIndexByte(path, '/')+1:]]
}

func runDeterminism(p *Pass) error {
	if !inSnapshotPackage(p) {
		return nil
	}
	for _, f := range p.Files {
		if p.isTestFile(f.FileStart) {
			continue
		}
		walkWithStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				p.checkClockCall(n, stack)
				p.checkGlobalRand(n)
			case *ast.SelectorExpr:
				// Global-rand values reached without a call (e.g. taking
				// rand.Int64 as a func value) still count.
				p.checkRandSelector(n)
			case *ast.RangeStmt:
				p.checkMapRange(n, stack)
			case *ast.SelectStmt:
				p.checkSelect(n)
			}
			return true
		})
	}
	return nil
}

// checkClockCall flags time.Now / time.Since calls outside the metrics
// nil-gate idiom.
func (p *Pass) checkClockCall(call *ast.CallExpr, stack []ast.Node) {
	var fn string
	switch {
	case p.isPkgFunc(call, "time", "Now"):
		fn = "time.Now"
	case p.isPkgFunc(call, "time", "Since"):
		fn = "time.Since"
	default:
		return
	}
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if ok && isMetricsGate(ifs.Cond) {
			return
		}
	}
	p.Reportf(call.Pos(),
		"%s outside the metrics nil-gate: wall-clock reads in a snapshot-affecting package must be gated on observability being enabled (or carry //lint:allow determinism <reason>)", fn)
}

// isMetricsGate reports whether cond reads like an observability gate: a
// selector on a field named "on", or a `x != nil` check whose operand
// names a metrics/obs handle.
func isMetricsGate(cond ast.Expr) bool {
	gate := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if n.Sel.Name == "on" {
				gate = true
			}
		case *ast.Ident:
			if n.Name == "on" {
				gate = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.NEQ && (isNil(n.X) || isNil(n.Y)) {
				operand := n.X
				if isNil(n.X) {
					operand = n.Y
				}
				if mentionsMetrics(operand) {
					gate = true
				}
			}
		}
		return !gate
	})
	return gate
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// mentionsMetrics reports whether the expression's identifiers name an
// observability handle (met, metrics, obs — the repo's three spellings).
func mentionsMetrics(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			low := strings.ToLower(id.Name)
			if strings.Contains(low, "met") || strings.Contains(low, "obs") {
				found = true
			}
		}
		return !found
	})
	return found
}

// randConstructors are the math/rand functions that build explicitly
// seeded generators; everything else on the package is (or feeds) the
// process-global RNG.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true,
	"NewChaCha8": true,
	"NewZipf":    true,
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func (p *Pass) checkGlobalRand(call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	pn := p.pkgName(identOf(sel.X))
	if pn == nil || !isRandPkg(pn.Imported().Path()) {
		return
	}
	if randConstructors[sel.Sel.Name] {
		return
	}
	if _, isFunc := p.Info.Uses[sel.Sel].(*types.Func); !isFunc {
		return // type name in a signature, e.g. rand.Rand
	}
	p.Reportf(call.Pos(),
		"global math/rand draw rand.%s: snapshot-affecting packages must use explicitly seeded generators (dsp.NewRand / rand.New)", sel.Sel.Name)
}

// checkRandSelector catches global-rand functions referenced without an
// immediate call (stored, passed as a value).
func (p *Pass) checkRandSelector(sel *ast.SelectorExpr) {
	pn := p.pkgName(identOf(sel.X))
	if pn == nil || !isRandPkg(pn.Imported().Path()) {
		return
	}
	obj, ok := p.Info.Uses[sel.Sel].(*types.Var)
	if !ok {
		return
	}
	_ = obj // package-level vars on math/rand (none today, future-proof)
	p.Reportf(sel.Pos(), "global math/rand state rand.%s referenced in a snapshot-affecting package", sel.Sel.Name)
}

// checkMapRange flags ranges over maps unless an order-safe idiom is
// recognized.
func (p *Pass) checkMapRange(rng *ast.RangeStmt, stack []ast.Node) {
	t := p.typeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	if p.collectThenSort(rng, stack) || p.orderInsensitiveBody(rng) {
		return
	}
	p.Reportf(rng.Pos(),
		"map iteration order can escape this loop: use the sorted-keys idiom (collect, sort.*, then range the slice) or an order-insensitive integer accumulation")
}

// collectThenSort recognizes the sorted-keys idiom: every body statement
// appends loop variables (or derived expressions) to slices, and at least
// one of those slices is later passed to a sort.*/slices.* call in the
// same function.
func (p *Pass) collectThenSort(rng *ast.RangeStmt, stack []ast.Node) bool {
	var targets []*ast.Ident
	for _, stmt := range rng.Body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		lhs := identOf(as.Lhs[0])
		call, isCall := as.Rhs[0].(*ast.CallExpr)
		if lhs == nil || !isCall || identOf(call.Fun) == nil || identOf(call.Fun).Name != "append" {
			return false
		}
		targets = append(targets, lhs)
	}
	if len(targets) == 0 {
		return false
	}
	fn := enclosingFunc(stack)
	if fn == nil {
		return false
	}
	sorted := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pn := p.pkgName(identOf(sel.X))
		if pn == nil {
			return true
		}
		path := pn.Imported().Path()
		if path != "sort" && path != "slices" {
			return true
		}
		for _, arg := range call.Args {
			id := identOf(arg)
			if id == nil {
				continue
			}
			for _, tgt := range targets {
				if p.Info.ObjectOf(id) != nil && p.Info.ObjectOf(id) == p.Info.ObjectOf(tgt) {
					sorted = true
				}
			}
		}
		return !sorted
	})
	return sorted
}

// orderInsensitiveBody recognizes commutative accumulation: only integer
// ++/--, integer compound assignment, and delete calls. Integer addition
// commutes across iteration orders; float accumulation does not.
func (p *Pass) orderInsensitiveBody(rng *ast.RangeStmt) bool {
	if len(rng.Body.List) == 0 {
		return false
	}
	for _, stmt := range rng.Body.List {
		switch s := stmt.(type) {
		case *ast.IncDecStmt:
			if !p.isIntegerExpr(s.X) {
				return false
			}
		case *ast.AssignStmt:
			switch s.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN,
				token.AND_ASSIGN, token.XOR_ASSIGN, token.AND_NOT_ASSIGN:
			default:
				return false
			}
			for _, lhs := range s.Lhs {
				if !p.isIntegerExpr(lhs) {
					return false
				}
			}
		case *ast.ExprStmt:
			call, ok := s.X.(*ast.CallExpr)
			if !ok || identOf(call.Fun) == nil || identOf(call.Fun).Name != "delete" {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (p *Pass) isIntegerExpr(e ast.Expr) bool {
	t := p.typeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// checkSelect flags selects racing two or more data receives.
func (p *Pass) checkSelect(sel *ast.SelectStmt) {
	dataRecvs := 0
	for _, clause := range sel.Body.List {
		comm, ok := clause.(*ast.CommClause)
		if !ok || comm.Comm == nil {
			continue // default clause
		}
		recv := receiveChannel(comm.Comm)
		if recv == nil {
			continue // send case: ordering is the sender's problem
		}
		if isDoneChannel(recv) {
			continue
		}
		dataRecvs++
	}
	if dataRecvs >= 2 {
		p.Reportf(sel.Pos(),
			"select races %d result channels: when several are ready the winner is scheduler-dependent, so a fold fed from here is not worker-count invariant", dataRecvs)
	}
}

// receiveChannel extracts the channel expression of a receive comm
// clause, or nil for sends.
func receiveChannel(stmt ast.Stmt) ast.Expr {
	var e ast.Expr
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		e = s.X
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			e = s.Rhs[0]
		}
	}
	u, ok := e.(*ast.UnaryExpr)
	if !ok || u.Op != token.ARROW {
		return nil
	}
	return u.X
}

// isDoneChannel recognizes cancellation receives: the channel comes from
// a Done() call (context.Context.Done and look-alikes).
func isDoneChannel(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done"
}
