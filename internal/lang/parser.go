package lang

import (
	"csq/internal/expr"
	"csq/internal/types"
)

// aggFuncs are the head-position aggregate spellings. They are contextual:
// outside the head they are ordinary names.
var aggFuncs = map[string]bool{
	"count": true,
	"sum":   true,
	"min":   true,
	"max":   true,
	"avg":   true,
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	src  string
	toks []token
	i    int
	// depth is the expression nesting level of the token being parsed.
	depth int
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) advance() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

// nest enters one more level of expression nesting at pos. It fails past
// expr.MaxDepth, so deeply nested text is an error instead of a recursion
// that exhausts the stack. Callers restore the level on return with
// defer p.restoreDepth(p.depth).
func (p *parser) nest(pos Pos) error {
	p.depth++
	if p.depth > expr.MaxDepth {
		return errf(p.src, pos, "expression nested deeper than %d levels", expr.MaxDepth)
	}
	return nil
}

func (p *parser) restoreDepth(depth int) { p.depth = depth }

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if p.cur().kind != k {
		return token{}, errf(p.src, p.cur().pos, "expected %s, got %s", what, p.cur().describe())
	}
	return p.advance(), nil
}

// parseQuery parses one rule: head ":-" clause {"," clause} ".".
func (p *parser) parseQuery() (*Query, error) {
	head, err := p.parseHead()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tTurnstile, "':-'"); err != nil {
		return nil, err
	}
	q := &Query{Head: head, Source: p.src}
	for {
		cl, err := p.parseClause()
		if err != nil {
			return nil, err
		}
		q.Clauses = append(q.Clauses, cl)
		switch p.cur().kind {
		case tComma:
			// The compiled tree takes a level per clause (joins and
			// conjunctions are left-deep), so the clause count is bounded too.
			if len(q.Clauses) >= expr.MaxDepth {
				return nil, errf(p.src, p.cur().pos, "a query takes at most %d body clauses", expr.MaxDepth)
			}
			p.advance()
		case tDot:
			p.advance()
			if p.cur().kind != tEOF {
				return nil, errf(p.src, p.cur().pos, "unexpected %s after the final '.'", p.cur().describe())
			}
			return q, nil
		default:
			return nil, errf(p.src, p.cur().pos, "expected ',' or '.', got %s", p.cur().describe())
		}
	}
}

// parseHead parses name "(" headterm {"," headterm} ")".
func (p *parser) parseHead() (Head, error) {
	if p.cur().kind == tVar {
		return Head{}, errf(p.src, p.cur().pos, "the head relation name must start with a lower-case letter, got %s", p.cur().describe())
	}
	name, err := p.expect(tName, "the head relation name")
	if err != nil {
		return Head{}, err
	}
	if _, err := p.expect(tLParen, "'('"); err != nil {
		return Head{}, err
	}
	h := Head{Name: name.text, Pos: name.pos}
	for {
		t, err := p.parseHeadTerm()
		if err != nil {
			return Head{}, err
		}
		h.Terms = append(h.Terms, t)
		if p.cur().kind == tComma {
			p.advance()
			continue
		}
		if _, err := p.expect(tRParen, "',' or ')'"); err != nil {
			return Head{}, err
		}
		return h, nil
	}
}

// parseHeadTerm parses a variable or an aggregate
// ("count"|"sum"|"min"|"max"|"avg") "(" (var|"*") ")" ["as" name].
func (p *parser) parseHeadTerm() (HeadTerm, error) {
	t := p.cur()
	switch t.kind {
	case tVar:
		p.advance()
		return HeadTerm{Pos: t.pos, Var: t.text}, nil
	case tName:
		if !aggFuncs[t.text] {
			return HeadTerm{}, errf(p.src, t.pos, "head terms are variables or aggregates (count/sum/min/max/avg), got %s", t.describe())
		}
		p.advance()
		if _, err := p.expect(tLParen, "'('"); err != nil {
			return HeadTerm{}, err
		}
		ht := HeadTerm{Pos: t.pos, Agg: t.text}
		switch p.cur().kind {
		case tStar:
			if t.text != "count" {
				return HeadTerm{}, errf(p.src, p.cur().pos, "only count(*) may aggregate '*'")
			}
			ht.Star = true
			p.advance()
		case tVar:
			ht.Var = p.advance().text
		default:
			return HeadTerm{}, errf(p.src, p.cur().pos, "expected a variable or '*', got %s", p.cur().describe())
		}
		if _, err := p.expect(tRParen, "')'"); err != nil {
			return HeadTerm{}, err
		}
		if p.cur().kind == tAs {
			p.advance()
			alias := p.cur()
			if alias.kind != tName && alias.kind != tVar {
				return HeadTerm{}, errf(p.src, alias.pos, "expected a column name after 'as', got %s", alias.describe())
			}
			p.advance()
			ht.Alias = alias.text
		}
		return ht, nil
	default:
		return HeadTerm{}, errf(p.src, t.pos, "head terms are variables or aggregates (count/sum/min/max/avg), got %s", t.describe())
	}
}

// parseClause parses one body clause: a udf application, or an expression
// that classifies as either a data pattern or a predicate.
func (p *parser) parseClause() (Clause, error) {
	if p.cur().kind == tUDF {
		return p.parseUDFClause()
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if pat, ok := p.classifyClause(e); ok {
		return pat, nil
	}
	return &Predicate{Expr: e}, nil
}

// classifyClause decides whether a parsed clause expression is a data
// pattern: a bare call whose arguments are all variables, wildcards or
// (possibly negated) literals. Anything else is a predicate.
func (p *parser) classifyClause(e ExprNode) (*Pattern, bool) {
	call, ok := e.(*CallNode)
	if !ok {
		return nil, false
	}
	pat := &Pattern{Name: call.Name, Pos: call.Pos}
	for _, a := range call.Args {
		switch n := a.(type) {
		case *VarNode:
			pat.Terms = append(pat.Terms, PatternTerm{Pos: n.Pos, Kind: termVar, Var: n.Name})
		case *WildNode:
			pat.Terms = append(pat.Terms, PatternTerm{Pos: n.Pos, Kind: termWildcard})
		case *LitNode:
			pat.Terms = append(pat.Terms, PatternTerm{Pos: n.Pos, Kind: termLiteral, Lit: n.Val})
		case *UnNode:
			lit, okLit := negatedLiteral(n)
			if !okLit {
				return nil, false
			}
			pat.Terms = append(pat.Terms, PatternTerm{Pos: n.Pos, Kind: termLiteral, Lit: lit})
		default:
			return nil, false
		}
	}
	return pat, true
}

// negatedLiteral folds a unary minus over a numeric literal so patterns can
// match negative numbers.
func negatedLiteral(n *UnNode) (types.Value, bool) {
	lit, ok := n.Input.(*LitNode)
	if !ok || n.Op != expr.OpNeg {
		return types.Value{}, false
	}
	switch lit.Val.Kind() {
	case types.KindInt:
		v, _ := lit.Val.Int()
		return types.NewInt(-v), true
	case types.KindFloat:
		v, _ := lit.Val.Float()
		return types.NewFloat(-v), true
	}
	return types.Value{}, false
}

// parseUDFClause parses "udf" name "(" var {"," var} ")" "as" var.
func (p *parser) parseUDFClause() (*UDFClause, error) {
	kw := p.advance()
	name, err := p.expect(tName, "a UDF name")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tLParen, "'('"); err != nil {
		return nil, err
	}
	u := &UDFClause{Pos: kw.pos, Name: name.text, NamePos: name.pos}
	for {
		arg := p.cur()
		if arg.kind != tVar {
			return nil, errf(p.src, arg.pos, "udf arguments must be variables bound by data patterns, got %s", arg.describe())
		}
		p.advance()
		u.Args = append(u.Args, VarTerm{Pos: arg.pos, Name: arg.text})
		if p.cur().kind == tComma {
			p.advance()
			continue
		}
		break
	}
	if _, err := p.expect(tRParen, "',' or ')'"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tAs, "'as'"); err != nil {
		return nil, err
	}
	res, err := p.expect(tVar, "a result variable")
	if err != nil {
		return nil, err
	}
	u.Result = VarTerm{Pos: res.pos, Name: res.text}
	return u, nil
}

// Expression grammar, lowest to highest precedence:
//
//	or → and → not → comparison → additive → multiplicative → unary → primary

// parseExpr parses one expression a level deeper than its context: a clause,
// a call argument or a parenthesised expression.
func (p *parser) parseExpr() (ExprNode, error) {
	defer p.restoreDepth(p.depth)
	if err := p.nest(p.cur().pos); err != nil {
		return nil, err
	}
	return p.parseOr()
}

// The binary-operator loops build left-deep trees, so each operator of a
// chain also takes a level.

func (p *parser) parseOr() (ExprNode, error) {
	defer p.restoreDepth(p.depth)
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tOr {
		op := p.advance()
		if err := p.nest(op.pos); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinNode{Pos: op.pos, Op: expr.OpOr, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (ExprNode, error) {
	defer p.restoreDepth(p.depth)
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.cur().kind == tAnd {
		op := p.advance()
		if err := p.nest(op.pos); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinNode{Pos: op.pos, Op: expr.OpAnd, Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (ExprNode, error) {
	if p.cur().kind == tNot {
		defer p.restoreDepth(p.depth)
		op := p.advance()
		if err := p.nest(op.pos); err != nil {
			return nil, err
		}
		in, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnNode{Pos: op.pos, Op: expr.OpNot, Input: in}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[tokenKind]expr.Op{
	tEq: expr.OpEq,
	tNe: expr.OpNe,
	tLt: expr.OpLt,
	tLe: expr.OpLe,
	tGt: expr.OpGt,
	tGe: expr.OpGe,
}

func (p *parser) parseComparison() (ExprNode, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	op, ok := cmpOps[p.cur().kind]
	if !ok {
		return left, nil
	}
	opTok := p.advance()
	right, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BinNode{Pos: opTok.pos, Op: op, Left: left, Right: right}, nil
}

func (p *parser) parseAdditive() (ExprNode, error) {
	defer p.restoreDepth(p.depth)
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.Op
		switch p.cur().kind {
		case tPlus:
			op = expr.OpAdd
		case tMinus:
			op = expr.OpSub
		default:
			return left, nil
		}
		opTok := p.advance()
		if err := p.nest(opTok.pos); err != nil {
			return nil, err
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinNode{Pos: opTok.pos, Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (ExprNode, error) {
	defer p.restoreDepth(p.depth)
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op expr.Op
		switch p.cur().kind {
		case tStar:
			op = expr.OpMul
		case tSlash:
			op = expr.OpDiv
		default:
			return left, nil
		}
		opTok := p.advance()
		if err := p.nest(opTok.pos); err != nil {
			return nil, err
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinNode{Pos: opTok.pos, Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (ExprNode, error) {
	if p.cur().kind == tMinus {
		defer p.restoreDepth(p.depth)
		op := p.advance()
		if err := p.nest(op.pos); err != nil {
			return nil, err
		}
		in, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnNode{Pos: op.pos, Op: expr.OpNeg, Input: in}, nil
	}
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (ExprNode, error) {
	t := p.cur()
	switch t.kind {
	case tInt, tFloat, tString, tBytes, tTrue, tFalse:
		p.advance()
		return &LitNode{Pos: t.pos, Val: t.val}, nil
	case tVar:
		p.advance()
		return &VarNode{Pos: t.pos, Name: t.text}, nil
	case tWildcard:
		p.advance()
		return &WildNode{Pos: t.pos}, nil
	case tName:
		p.advance()
		if _, err := p.expect(tLParen, "'(' (lower-case names are tables and functions; variables start upper-case)"); err != nil {
			return nil, err
		}
		call := &CallNode{Pos: t.pos, Name: t.text}
		if p.cur().kind == tRParen {
			p.advance()
			return call, nil
		}
		for {
			arg, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if p.cur().kind == tComma {
				p.advance()
				continue
			}
			if _, err := p.expect(tRParen, "',' or ')'"); err != nil {
				return nil, err
			}
			return call, nil
		}
	case tLParen:
		p.advance()
		in, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tRParen, "')'"); err != nil {
			return nil, err
		}
		return in, nil
	default:
		return nil, errf(p.src, t.pos, "expected an expression, got %s", t.describe())
	}
}
