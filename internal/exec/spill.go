package exec

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"csq/internal/storage"
	"csq/internal/types"
)

// Grace-style spill-to-disk partitioning for the memory-hungry blocking
// operators. When a query's MemTracker goes over its soft budget while
// HashJoin builds its table or HashAggregate collects its groups, the
// operator switches to partitioned execution: in-memory state is flushed to
// hash-partitioned spill runs (storage.RunWriter over unlinked temp files),
// the remaining input streams straight to the partitions, and each partition
// is then processed with roughly 1/P of the original memory footprint,
// through the operator's own keyTable, build, probe and fold. Rows go to the
// partition of their Batch.HashRows key hash, the hash the tables chain by;
// it differs between processes, which is safe because a spill run never
// outlives its process (storage.SweepSpillDirs reclaims a dead owner's).
//
// Both spill paths are order-preserving, so a spilled execution produces
// byte-identical results to the in-memory one:
//
//   - The join tags every probe-side row with its arrival sequence number,
//     writes each partition's join output as a run ordered by that sequence,
//     and merges the per-partition output runs by sequence — reconstructing
//     exactly the left-order/match-insertion-order stream of the in-memory
//     join.
//   - The aggregate flushes partial aggregation states (all supported
//     aggregates — COUNT, SUM, MIN, MAX, AVG — are decomposable), aggregates
//     each partition separately (replaying partials before raw rows, which
//     preserves the accumulation order of every group), and relies on the
//     operator's deterministic group-value sort for the output order.

// DefaultSpillPartitions is the Grace partition fan-out used when the planner
// does not size one from its memory estimate.
const DefaultSpillPartitions = 16

// AggStateMemSize is what one aggregation state is charged, and estimated
// at, beyond its group row: 120 bytes, and 64 per aggregate.
func AggStateMemSize(nAggs int) int64 {
	return 104 + 16 + int64(nAggs*(16+2*types.ValueMemSize))
}

// spillPartitions normalises a configured partition count.
func spillPartitions(n int) int {
	if n < 2 {
		return DefaultSpillPartitions
	}
	return n
}

// newRunSet creates one spill run per partition through the query's tracker
// (retained namespaced runs under a managed spill root, anonymous unlinked
// runs otherwise), discarding everything on failure.
func newRunSet(tracker *MemTracker, parts int) ([]*storage.RunWriter, error) {
	runs := make([]*storage.RunWriter, parts)
	for i := range runs {
		w, err := tracker.NewSpillRun()
		if err != nil {
			for _, open := range runs[:i] {
				_ = open.Discard()
			}
			return nil, err
		}
		runs[i] = w
	}
	return runs, nil
}

func discardRuns(runs []*storage.RunWriter) {
	for _, w := range runs {
		if w != nil {
			_ = w.Discard()
		}
	}
}

func closeReaders(rs []*storage.RunReader) {
	for _, r := range rs {
		if r != nil {
			_ = r.Close()
		}
	}
}

// appendTupleRec encodes t into the (reused) scratch buffer with an optional
// 8-byte big-endian sequence prefix and appends it to the run.
func appendTupleRec(w *storage.RunWriter, scratch *[]byte, seq uint64, withSeq bool, t types.Tuple) error {
	buf := (*scratch)[:0]
	if withSeq {
		var s [8]byte
		binary.BigEndian.PutUint64(s[:], seq)
		buf = append(buf, s[:]...)
	}
	var err error
	buf, err = types.EncodeTuple(buf, t)
	if err != nil {
		return err
	}
	*scratch = buf
	return w.Append(buf)
}

// router appends rows to per-partition spill runs, each to the run of its
// key hash (Batch.HashRows) modulo the partition count.
type router struct {
	scratch []byte
	hashes  []uint64
	row     types.Tuple
}

// route appends the live rows of b, keyed on keys, to their runs; when seq
// is not nil each record is prefixed with *seq, which advances a row.
func (rt *router) route(runs []*storage.RunWriter, b *types.Batch, keys []int, seq *uint64) error {
	live := b.Live()
	rt.hashes = b.HashRows(live, keys, rt.hashes)
	for i, r := range live {
		var s uint64
		if seq != nil {
			s = *seq
			*seq++
		}
		rt.row = b.Row(r, rt.row[:0])
		if err := appendTupleRec(runs[rt.hashes[i]%uint64(len(runs))], &rt.scratch, s, seq != nil, rt.row); err != nil {
			return err
		}
	}
	return nil
}

// joinSpill is the Grace-partitioned execution state of a spilled HashJoin.
type joinSpill struct {
	router
	j *HashJoin

	rightRuns []*storage.RunWriter
	leftRuns  []*storage.RunWriter
	outRuns   []*storage.RunWriter

	// merge state over the per-partition output runs
	readers []*storage.RunReader
	heads   []joinSpillHead

	seq uint64
}

// joinSpillHead is the next pending output row of one partition's run.
type joinSpillHead struct {
	seq   uint64
	tuple types.Tuple
	ok    bool
}

// beginJoinSpill switches a HashJoin whose build phase went over budget into
// Grace mode: the build is flushed to right-side partition runs, in
// insertion order, and released. The caller keeps routing the build input
// to rightRuns afterwards.
func beginJoinSpill(j *HashJoin) (*joinSpill, error) {
	tracker := j.mem.t
	sp := &joinSpill{j: j}
	var err error
	sp.rightRuns, err = newRunSet(tracker, spillPartitions(j.SpillPartitions))
	if err != nil {
		return nil, err
	}
	if err := sp.route(sp.rightRuns, &j.build.rows, j.rightKeys, nil); err != nil {
		discardRuns(sp.rightRuns)
		return nil, err
	}
	var flushed int64
	for _, w := range sp.rightRuns {
		flushed += w.Bytes()
	}
	j.build.release()
	j.mem.releaseAll()
	tracker.NoteSpill(flushed)
	return sp, nil
}

// run drains the probe side into sequence-tagged partition runs and joins the
// partitions one at a time, writing each partition's output as a
// sequence-ordered run; afterwards the merge cursors are primed.
func (sp *joinSpill) run(ctx context.Context) error {
	j := sp.j
	tracker := j.mem.t
	parts := len(sp.rightRuns)
	var err error
	sp.leftRuns, err = newRunSet(tracker, parts)
	if err != nil {
		return err
	}
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	prog := ProgressFrom(ctx)
	batch := &types.Batch{Max: DefaultBatchSize}
	for {
		prog.Tick()
		if err := ctx.Err(); err != nil {
			return err
		}
		n, err := j.left.NextBatch(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		if err := sp.route(sp.leftRuns, batch, j.leftKeys, &sp.seq); err != nil {
			return err
		}
	}

	var spilled int64
	for _, w := range sp.leftRuns {
		spilled += w.Bytes()
	}
	sp.outRuns, err = newRunSet(tracker, parts)
	if err != nil {
		return err
	}
	for p := 0; p < parts; p++ {
		if err := sp.joinPartition(ctx, p); err != nil {
			return err
		}
	}
	for _, w := range sp.outRuns {
		spilled += w.Bytes()
	}
	tracker.NoteSpillBytes(spilled)
	sp.leftRuns = nil // joinPartition finished (and closed) the readers

	// Prime the sequence merge over the output runs.
	sp.readers = make([]*storage.RunReader, parts)
	sp.heads = make([]joinSpillHead, parts)
	for p := 0; p < parts; p++ {
		r, err := sp.outRuns[p].Finish()
		if err != nil {
			return err
		}
		sp.readers[p] = r
		if err := sp.advance(p); err != nil {
			return err
		}
	}
	sp.outRuns = nil
	return nil
}

// readRun finishes the run *w, which it then owns, and feeds its records
// to fn, ticking progress and checking the context every 1024 records.
func readRun(ctx context.Context, w **storage.RunWriter, fn func(rec []byte) error) error {
	r, err := (*w).Finish()
	if err != nil {
		return err
	}
	*w = nil
	defer func() { _ = r.Close() }()
	prog := ProgressFrom(ctx)
	for i := 0; ; i++ {
		if i%1024 == 0 {
			prog.Tick()
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rec, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// joinPartition rebuilds the join's build from partition p's right run and
// probes it with the partition's left run, through the in-memory build and
// probe, writing the joined rows (tagged with their probe sequence) to the
// partition's output run. The build's charge is released when it returns.
func (sp *joinSpill) joinPartition(ctx context.Context, p int) error {
	j := sp.j
	defer func() {
		j.build.release()
		j.mem.releaseAll()
	}()
	j.build.reset(j.right.Schema().Len(), j.rightKeys)
	var in types.Batch
	in.Reset(j.right.Schema().Len())
	add := func() error {
		err := j.mem.grow(j.addBuild(&in))
		in.Reset(len(in.Cols))
		return err
	}
	err := readRun(ctx, &sp.rightRuns[p], func(rec []byte) error {
		t, _, err := types.DecodeTuple(rec)
		if err != nil {
			return fmt.Errorf("exec: join spill right row: %w", err)
		}
		if in.AppendRows(t); in.N == DefaultBatchSize {
			return add()
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := add(); err != nil {
		return err
	}

	// The left rows are probed a batch at a time, through the operator's
	// own probe.
	j.in.Reset(j.left.Schema().Len())
	var seqs []uint64
	probe := func() error {
		j.probe(j.in.Live())
		for !j.probed() {
			if err := j.pair(DefaultBatchSize); err != nil {
				return err
			}
			for k, l := range j.lrows {
				j.row = j.build.rows.Row(j.rrows[k], j.in.Row(l, j.row[:0]))
				if err := appendTupleRec(sp.outRuns[p], &sp.scratch, seqs[l], true, j.row); err != nil {
					return err
				}
			}
			j.lrows, j.rrows = j.lrows[:0], j.rrows[:0]
		}
		j.in.Reset(len(j.in.Cols))
		seqs = seqs[:0]
		return nil
	}
	err = readRun(ctx, &sp.leftRuns[p], func(rec []byte) error {
		if len(rec) < 8 {
			return fmt.Errorf("exec: join spill left row: truncated sequence")
		}
		t, _, err := types.DecodeTuple(rec[8:])
		if err != nil {
			return fmt.Errorf("exec: join spill left row: %w", err)
		}
		seqs = append(seqs, binary.BigEndian.Uint64(rec))
		if j.in.AppendRows(t); j.in.N == DefaultBatchSize {
			return probe()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return probe()
}

// advance loads the next head of partition p's output run.
func (sp *joinSpill) advance(p int) error {
	rec, err := sp.readers[p].Next()
	if err == io.EOF {
		sp.heads[p] = joinSpillHead{}
		return nil
	}
	if err != nil {
		return err
	}
	if len(rec) < 8 {
		return fmt.Errorf("exec: join spill output row: truncated sequence")
	}
	t, _, err := types.DecodeTuple(rec[8:])
	if err != nil {
		return fmt.Errorf("exec: join spill output row: %w", err)
	}
	sp.heads[p] = joinSpillHead{seq: binary.BigEndian.Uint64(rec), tuple: t, ok: true}
	return nil
}

// next returns the globally next joined row: the minimum pending sequence
// across the per-partition output runs. Sequences are unique per probe row
// and each partition's run is sequence-ordered, so this replays exactly the
// in-memory output order.
func (sp *joinSpill) next() (types.Tuple, bool, error) {
	best := -1
	for p := range sp.heads {
		if !sp.heads[p].ok {
			continue
		}
		if best < 0 || sp.heads[p].seq < sp.heads[best].seq {
			best = p
		}
	}
	if best < 0 {
		return nil, false, nil
	}
	t := sp.heads[best].tuple
	if err := sp.advance(best); err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// close releases every spill resource.
func (sp *joinSpill) close() {
	if sp == nil {
		return
	}
	discardRuns(sp.rightRuns)
	discardRuns(sp.leftRuns)
	discardRuns(sp.outRuns)
	closeReaders(sp.readers)
	sp.rightRuns, sp.leftRuns, sp.outRuns, sp.readers = nil, nil, nil, nil
}

// aggSpill is the Grace-partitioned execution state of a spilled
// HashAggregate.
type aggSpill struct {
	router
	stateRuns []*storage.RunWriter // flushed partial aggregation states
	rawRuns   []*storage.RunWriter // raw input rows arriving after the flush
	groups    int                  // group columns
	nAggs     int
}

// beginAggSpill flushes the aggregate's groups as partial-state records
// partitioned by group hash and prepares raw-row partitions for the rest of
// the input. The caller empties the groups and releases its memory account.
func beginAggSpill(h *HashAggregate) (*aggSpill, error) {
	tracker := h.mem.t
	parts := spillPartitions(h.SpillPartitions)
	sp := &aggSpill{groups: len(h.groupBy), nAggs: len(h.aggs)}
	var err error
	sp.stateRuns, err = newRunSet(tracker, parts)
	if err != nil {
		return nil, err
	}
	sp.rawRuns, err = newRunSet(tracker, parts)
	if err != nil {
		discardRuns(sp.stateRuns)
		return nil, err
	}
	rows := &h.groups.rows
	sp.hashes = rows.HashRows(rows.Live(), h.groups.keys, sp.hashes)
	var flushed int64
	for g, hash := range sp.hashes {
		sp.row = sp.encodeState(rows.Row(g, sp.row[:0]), &h.states[g])
		if err := appendTupleRec(sp.stateRuns[hash%uint64(parts)], &sp.scratch, 0, false, sp.row); err != nil {
			sp.close()
			return nil, err
		}
	}
	for _, w := range sp.stateRuns {
		flushed += w.Bytes()
	}
	tracker.NoteSpill(flushed)
	return sp, nil
}

// encodeState appends a group's partial aggregation state to its group
// values, flattening it into one tuple: group columns, total count, then per
// aggregate (float sum, INT sum, min, max, count).
func (sp *aggSpill) encodeState(rec types.Tuple, st *aggState) types.Tuple {
	rec = append(rec, types.NewInt(st.count))
	for _, acc := range st.accs {
		rec = append(rec, types.NewFloat(acc.sum), types.NewInt(acc.isum), acc.min, acc.max, types.NewInt(acc.count))
	}
	return rec
}

// decodeState rebuilds a partial aggregation state from its flattened tuple.
func (sp *aggSpill) decodeState(rec types.Tuple) (aggState, error) {
	want := sp.groups + 1 + 5*sp.nAggs
	if len(rec) != want {
		return aggState{}, fmt.Errorf("exec: aggregate spill state has %d columns, want %d", len(rec), want)
	}
	g := sp.groups
	st := aggState{accs: make([]aggAcc, sp.nAggs)}
	count, err := rec[g].Int()
	if err != nil {
		return aggState{}, fmt.Errorf("exec: aggregate spill state count: %w", err)
	}
	st.count = count
	for i := range st.accs {
		base, acc := g+1+5*i, &st.accs[i]
		if acc.sum, err = rec[base].Float(); err != nil {
			return aggState{}, fmt.Errorf("exec: aggregate spill state sum: %w", err)
		}
		if acc.isum, err = rec[base+1].Int(); err != nil {
			return aggState{}, fmt.Errorf("exec: aggregate spill state sum: %w", err)
		}
		acc.min, acc.max = rec[base+2], rec[base+3]
		if acc.count, err = rec[base+4].Int(); err != nil {
			return aggState{}, fmt.Errorf("exec: aggregate spill state count: %w", err)
		}
	}
	return st, nil
}

// finish aggregates every partition — replaying its flushed partial states
// first (so each group's accumulation order matches the in-memory run),
// then folding its raw rows — and returns the concatenated, unsorted result
// rows. The operator's deterministic group sort runs afterwards.
func (sp *aggSpill) finish(ctx context.Context, h *HashAggregate) ([]types.Tuple, error) {
	var raw int64
	for _, w := range sp.rawRuns {
		raw += w.Bytes()
	}
	h.mem.t.NoteSpillBytes(raw)
	var results []types.Tuple
	for p := range sp.stateRuns {
		rows, err := sp.finishPartition(ctx, h, p)
		if err != nil {
			return nil, err
		}
		results = append(results, rows...)
	}
	return results, nil
}

// finishPartition aggregates partition p through the operator's own group
// table and fold, and returns its result rows. What it charges the tracker
// is released when it returns.
func (sp *aggSpill) finishPartition(ctx context.Context, h *HashAggregate, p int) ([]types.Tuple, error) {
	h.resetGroups()
	defer h.mem.releaseAll()
	// The flushed states go back in under their group values, in flush
	// order, a batch at a time.
	var in types.Batch
	in.Reset(sp.groups)
	addStates := func() error {
		live := in.Live()
		sp.hashes = in.HashRows(live, h.groups.keys, sp.hashes)
		grown := h.groups.add(&in, live, nil, sp.hashes)
		err := h.mem.grow(grown + int64(in.N)*AggStateMemSize(sp.nAggs))
		in.Reset(len(in.Cols))
		return err
	}
	err := readRun(ctx, &sp.stateRuns[p], func(rec []byte) error {
		tup, _, err := types.DecodeTuple(rec)
		if err != nil {
			return fmt.Errorf("exec: aggregate spill state: %w", err)
		}
		st, err := sp.decodeState(tup)
		if err != nil {
			return err
		}
		h.states = append(h.states, st)
		if in.AppendRows(tup[:sp.groups]); in.N == DefaultBatchSize {
			return addStates()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := addStates(); err != nil {
		return nil, err
	}

	// Raw rows are folded a batch at a time, through the operator's own
	// fold, in their arrival order.
	in.Reset(h.input.Schema().Len())
	fold := func() error {
		n, err := h.fold(&in)
		if err == nil {
			err = h.mem.grow(n)
		}
		in.Reset(len(in.Cols))
		return err
	}
	err = readRun(ctx, &sp.rawRuns[p], func(rec []byte) error {
		tup, _, err := types.DecodeTuple(rec)
		if err != nil {
			return fmt.Errorf("exec: aggregate spill raw row: %w", err)
		}
		if in.AppendRows(tup); in.N == DefaultBatchSize {
			return fold()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := fold(); err != nil {
		return nil, err
	}
	return h.materialize(), nil
}

// close releases every spill resource.
func (sp *aggSpill) close() {
	if sp == nil {
		return
	}
	discardRuns(sp.stateRuns)
	discardRuns(sp.rawRuns)
	sp.stateRuns, sp.rawRuns = nil, nil
}
