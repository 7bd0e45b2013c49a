package lang

import (
	"errors"
	"strings"
	"testing"

	"csq/internal/expr"
)

// nestedParens is a query whose last clause sits inside k parentheses: its
// innermost expression is k+1 levels deep.
func nestedParens(k int) string {
	return "q(X) :- p(X), " + strings.Repeat("(", k) + "X > 1" + strings.Repeat(")", k) + "."
}

// requirePositioned fails unless err is a *Error with a line:column position.
func requirePositioned(t *testing.T, err error) {
	t.Helper()
	var le *Error
	if !errors.As(err, &le) {
		t.Fatalf("error is %T, want *Error: %v", err, err)
	}
	if le.Pos.Line < 1 || le.Pos.Column < 1 {
		t.Fatalf("error at %s has no position: %v", le.Pos, err)
	}
}

// TestParseDepthBound: nesting up to expr.MaxDepth parses, one level deeper
// is a positioned error, whether the levels are parentheses, prefix
// operators or a left-deep operator chain, and so is a 2 MiB nest of
// parentheses that would otherwise recurse the parser off the end of its
// stack.
func TestParseDepthBound(t *testing.T) {
	if _, err := Parse(nestedParens(expr.MaxDepth - 1)); err != nil {
		t.Fatalf("an expression %d levels deep: %v", expr.MaxDepth, err)
	}
	for _, src := range []string{
		nestedParens(expr.MaxDepth),
		"q(X) :- p(X), X = " + strings.Repeat("- ", expr.MaxDepth) + "1.",
		"q(X) :- p(X), " + strings.Repeat("not ", expr.MaxDepth) + "X > 1.",
		"q(X) :- p(X), X = 1" + strings.Repeat(" + 1", expr.MaxDepth) + ".",
		"q(X) :- p(X), " + strings.Repeat("( ", 1<<20),
	} {
		_, err := Parse(src)
		if err == nil {
			t.Fatalf("a nest past the bound parsed: %.40q…", src)
		}
		requirePositioned(t, err)
	}
}

// TestParseClauseBound: the compiled tree takes a level per body clause, so a
// query with more than expr.MaxDepth clauses is a positioned error.
func TestParseClauseBound(t *testing.T) {
	clauses := func(n int) string {
		return "q(X) :- p(X)" + strings.Repeat(", X > 1", n-1) + "."
	}
	if _, err := Parse(clauses(expr.MaxDepth)); err != nil {
		t.Fatalf("%d clauses: %v", expr.MaxDepth, err)
	}
	_, err := Parse(clauses(expr.MaxDepth + 1))
	if err == nil {
		t.Fatalf("%d clauses parsed", expr.MaxDepth+1)
	}
	requirePositioned(t, err)
}

// FuzzParse feeds arbitrary text to Parse, as a requester's query text would
// arrive. It must never panic, and every error must carry a line:column
// position. Seeds live in testdata/fuzz/FuzzParse.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := Parse(src); err != nil {
			requirePositioned(t, err)
		}
	})
}
