package exec

import (
	"context"
	"sort"

	"csq/internal/types"
)

// SortKey describes one sort column.
type SortKey struct {
	// Ordinal is the column position to sort on.
	Ordinal int
	// Desc reverses the order for this key.
	Desc bool
}

// Sort materialises its input and emits it ordered by the sort keys. The
// semi-join operator sorts (or groups) its input on the UDF argument columns
// before sending, as described in Section 2.3.1 of the paper, which turns the
// receiver's work into a merge join.
type Sort struct {
	baseState
	input Operator
	keys  []SortKey
	rows  []types.Tuple
	pos   int
}

// NewSort sorts input by keys.
func NewSort(input Operator, keys []SortKey) *Sort {
	return &Sort{input: input, keys: keys}
}

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.input.Schema() }

// Open implements Operator: it fully materialises and sorts the input.
func (s *Sort) Open(ctx context.Context) error {
	if err := s.input.Open(ctx); err != nil {
		return err
	}
	s.rows = s.rows[:0]
	batch := make([]types.Tuple, DefaultBatchSize)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := s.input.NextBatch(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		s.rows = append(s.rows, batch[:n]...)
	}
	var sortErr error
	sort.SliceStable(s.rows, func(i, j int) bool {
		for _, k := range s.keys {
			c, err := types.Compare(s.rows[i][k.Ordinal], s.rows[j][k.Ordinal])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	s.pos = 0
	s.markOpen(ctx)
	return nil
}

// NextBatch implements Operator with a bulk copy out of the sorted rows.
func (s *Sort) NextBatch(dst []types.Tuple) (int, error) {
	if err := s.checkOpen(); err != nil {
		return 0, err
	}
	n := copy(dst, s.rows[s.pos:])
	s.pos += n
	return n, nil
}

// Close implements Operator.
func (s *Sort) Close() error {
	s.closed = true
	s.rows = nil
	return s.input.Close()
}

// Unwrap implements Unwrapper for stats aggregation (NetStatsOf).
func (s *Sort) Unwrap() Operator { return s.input }
