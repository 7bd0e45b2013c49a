package expr

import (
	"math/rand"
	"testing"

	"csq/internal/types"
)

// randomOperand draws a value for a tuple cell or a constant: INT and FLOAT
// most often, so comparisons mostly succeed, with NULLs and the occasional
// STRING or BOOL that makes a comparison or a truth test fail.
func randomOperand(rng *rand.Rand) types.Value {
	switch rng.Intn(9) {
	case 0, 1, 2:
		return types.NewInt(int64(rng.Intn(7) - 3))
	case 3, 4:
		return types.NewFloat(float64(rng.Intn(13)-6) / 2)
	case 5:
		return types.Null(types.KindInt)
	case 6:
		return types.Value{}
	case 7:
		return types.NewString([]string{"a", "b", ""}[rng.Intn(3)])
	default:
		return types.NewBool(rng.Intn(2) == 0)
	}
}

var comparisonOps = []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}

// randomLeaf draws a column reference, bound to an ordinal that may lie past
// the tuple, or a constant.
func randomLeaf(rng *rand.Rand) Expr {
	if rng.Intn(2) == 0 {
		return NewBoundColumnRef(rng.Intn(5), types.KindInt)
	}
	return NewConst(randomOperand(rng))
}

// randomPredicate draws a bound predicate tree over AND, OR, NOT and
// comparisons of columns and constants in either order; a bare leaf is
// evaluated for its truth.
func randomPredicate(rng *rand.Rand, depth int) Expr {
	if depth == 0 {
		if rng.Intn(4) == 0 {
			return randomLeaf(rng)
		}
		l, r := randomLeaf(rng), randomLeaf(rng)
		if rng.Intn(2) == 0 {
			l, r = r, l
		}
		return NewBinary(comparisonOps[rng.Intn(len(comparisonOps))], l, r)
	}
	switch rng.Intn(4) {
	case 0:
		return NewBinary(OpAnd, randomPredicate(rng, depth-1), randomPredicate(rng, depth-1))
	case 1:
		return NewBinary(OpOr, randomPredicate(rng, depth-1), randomPredicate(rng, depth-1))
	case 2:
		return NewUnary(OpNot, randomPredicate(rng, depth-1))
	default:
		return randomPredicate(rng, 0)
	}
}

// TestCompilePredicateMatchesEvaluator is the compiled predicate's
// quick-check against the reference: over random trees and random tuples of
// zero to four cells it returns the bool EvalBool returns and fails exactly
// when EvalBool fails.
func TestCompilePredicateMatchesEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ev := &Evaluator{}
	fails, trues := 0, 0
	for round := 0; round < 3000; round++ {
		e := randomPredicate(rng, rng.Intn(4))
		p := CompilePredicate(ev, e)
		for i := 0; i < 20; i++ {
			tup := make(types.Tuple, rng.Intn(5))
			for j := range tup {
				tup[j] = randomOperand(rng)
			}
			want, werr := ev.EvalBool(e, tup)
			got, err := p(tup)
			if got != want || (err == nil) != (werr == nil) {
				t.Fatalf("%s on %v: compiled (%v, %v), evaluator (%v, %v)", e, tup, got, err, want, werr)
			}
			if werr != nil {
				fails++
			} else if want {
				trues++
			}
		}
	}
	// The grammar must reach all three outcomes often, or the check proves
	// little.
	if fails < 1000 || trues < 1000 {
		t.Fatalf("only %d failing and %d true evaluations of 60000", fails, trues)
	}
}

// TestCompilePredicateNil pins that a nil predicate accepts every tuple.
func TestCompilePredicateNil(t *testing.T) {
	ok, err := CompilePredicate(&Evaluator{}, nil)(types.NewTuple(types.NewInt(1)))
	if !ok || err != nil {
		t.Fatalf("nil predicate: (%v, %v)", ok, err)
	}
}
