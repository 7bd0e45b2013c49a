package expr

import (
	"fmt"
	"math"
	"strings"

	"csq/internal/types"
)

// BuiltinFunc describes a built-in scalar function. Built-ins always execute
// at whichever site evaluates the enclosing expression; they never force
// network traffic on their own.
type BuiltinFunc struct {
	// Name is the function's SQL name.
	Name string
	// MinArgs and MaxArgs bound the accepted argument count.
	MinArgs, MaxArgs int
	// ResultKind returns the result kind given the bound argument kinds.
	ResultKind func(args []types.Kind) (types.Kind, error)
	// Eval evaluates the function.
	Eval func(args []types.Value) (types.Value, error)
}

// builtins is the registry of built-in scalar functions, keyed by lower-case
// name.
var builtins = map[string]*BuiltinFunc{}

func registerBuiltin(b *BuiltinFunc) {
	builtins[strings.ToLower(b.Name)] = b
}

// LookupBuiltin finds a built-in function by (case-insensitive) name.
func LookupBuiltin(name string) (*BuiltinFunc, bool) {
	b, ok := builtins[strings.ToLower(name)]
	return b, ok
}

func fixedKind(k types.Kind) func([]types.Kind) (types.Kind, error) {
	return func([]types.Kind) (types.Kind, error) { return k, nil }
}

func wantSeries(args []types.Value) (types.TimeSeries, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("missing argument")
	}
	if args[0].IsNull() {
		return nil, nil
	}
	return args[0].Series()
}

func init() {
	registerBuiltin(&BuiltinFunc{
		Name: "abs", MinArgs: 1, MaxArgs: 1,
		ResultKind: func(args []types.Kind) (types.Kind, error) {
			if len(args) == 1 && args[0] == types.KindInt {
				return types.KindInt, nil
			}
			return types.KindFloat, nil
		},
		Eval: func(args []types.Value) (types.Value, error) {
			if args[0].IsNull() {
				return types.Null(args[0].Kind()), nil
			}
			if args[0].Kind() == types.KindInt {
				i, err := args[0].Int()
				if err != nil {
					return types.Value{}, err
				}
				if i < 0 {
					i = -i
				}
				return types.NewInt(i), nil
			}
			f, err := args[0].Float()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewFloat(math.Abs(f)), nil
		},
	})
	registerBuiltin(&BuiltinFunc{
		Name: "length", MinArgs: 1, MaxArgs: 1,
		ResultKind: fixedKind(types.KindInt),
		Eval: func(args []types.Value) (types.Value, error) {
			v := args[0]
			if v.IsNull() {
				return types.Null(types.KindInt), nil
			}
			switch v.Kind() {
			case types.KindString:
				s, _ := v.Str()
				return types.NewInt(int64(len(s))), nil
			case types.KindBytes:
				b, _ := v.Bytes()
				return types.NewInt(int64(len(b))), nil
			case types.KindTimeSeries:
				ts, _ := v.Series()
				return types.NewInt(int64(ts.Len())), nil
			default:
				return types.Value{}, fmt.Errorf("length: unsupported kind %s", v.Kind())
			}
		},
	})
	registerBuiltin(&BuiltinFunc{
		Name: "upper", MinArgs: 1, MaxArgs: 1,
		ResultKind: fixedKind(types.KindString),
		Eval: func(args []types.Value) (types.Value, error) {
			if args[0].IsNull() {
				return types.Null(types.KindString), nil
			}
			s, err := args[0].Str()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewString(strings.ToUpper(s)), nil
		},
	})
	registerBuiltin(&BuiltinFunc{
		Name: "lower", MinArgs: 1, MaxArgs: 1,
		ResultKind: fixedKind(types.KindString),
		Eval: func(args []types.Value) (types.Value, error) {
			if args[0].IsNull() {
				return types.Null(types.KindString), nil
			}
			s, err := args[0].Str()
			if err != nil {
				return types.Value{}, err
			}
			return types.NewString(strings.ToLower(s)), nil
		},
	})
	registerBuiltin(&BuiltinFunc{
		Name: "sqrt", MinArgs: 1, MaxArgs: 1,
		ResultKind: fixedKind(types.KindFloat),
		Eval: func(args []types.Value) (types.Value, error) {
			if args[0].IsNull() {
				return types.Null(types.KindFloat), nil
			}
			f, err := args[0].Float()
			if err != nil {
				return types.Value{}, err
			}
			if f < 0 {
				return types.Value{}, fmt.Errorf("sqrt: negative argument %g", f)
			}
			return types.NewFloat(math.Sqrt(f)), nil
		},
	})

	// Time-series helpers: these evaluate wherever the series is, so they work
	// both server-side and inside client-pushable expressions.
	seriesStat := func(name string, f func(types.TimeSeries) float64) {
		registerBuiltin(&BuiltinFunc{
			Name: name, MinArgs: 1, MaxArgs: 1,
			ResultKind: fixedKind(types.KindFloat),
			Eval: func(args []types.Value) (types.Value, error) {
				ts, err := wantSeries(args)
				if err != nil {
					return types.Value{}, fmt.Errorf("%s: %w", name, err)
				}
				if ts == nil {
					return types.Null(types.KindFloat), nil
				}
				return types.NewFloat(f(ts)), nil
			},
		})
	}
	seriesStat("ts_first", types.TimeSeries.First)
	seriesStat("ts_last", types.TimeSeries.Last)
	seriesStat("ts_mean", types.TimeSeries.Mean)
	seriesStat("ts_min", types.TimeSeries.Min)
	seriesStat("ts_max", types.TimeSeries.Max)
	seriesStat("ts_stddev", types.TimeSeries.StdDev)
	seriesStat("ts_volatility", types.TimeSeries.Volatility)

	registerBuiltin(&BuiltinFunc{
		Name: "ts_change", MinArgs: 1, MaxArgs: 1,
		ResultKind: fixedKind(types.KindFloat),
		Eval: func(args []types.Value) (types.Value, error) {
			ts, err := wantSeries(args)
			if err != nil {
				return types.Value{}, fmt.Errorf("ts_change: %w", err)
			}
			if ts == nil {
				return types.Null(types.KindFloat), nil
			}
			if ts.Len() < 2 || ts.First() == 0 {
				return types.NewFloat(0), nil
			}
			return types.NewFloat((ts.Last() - ts.First()) / ts.First()), nil
		},
	})
}
