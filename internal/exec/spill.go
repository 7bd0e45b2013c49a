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
// is then processed with roughly 1/P of the original memory footprint.
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

// joinSpill is the Grace-partitioned execution state of a spilled HashJoin.
type joinSpill struct {
	j     *HashJoin
	parts int

	rightRuns []*storage.RunWriter
	leftRuns  []*storage.RunWriter
	outRuns   []*storage.RunWriter

	// merge state over the per-partition output runs
	readers []*storage.RunReader
	heads   []joinSpillHead

	scratch []byte
	seq     uint64
}

// joinBucket is one collision-chain entry of a spilled partition's table:
// all right tuples sharing one key.
type joinBucket struct {
	key  types.Tuple // representative right tuple carrying the key columns
	rows []types.Tuple
}

// joinSpillHead is the next pending output row of one partition's run.
type joinSpillHead struct {
	seq   uint64
	tuple types.Tuple
	ok    bool
}

// beginJoinSpill switches a HashJoin whose build phase went over budget into
// Grace mode: the current hash table is flushed to right-side partition runs
// and released. The caller keeps draining the build input through
// (*joinSpill).addRight afterwards.
func beginJoinSpill(j *HashJoin) (*joinSpill, error) {
	tracker := j.mem.t
	sp := &joinSpill{j: j, parts: spillPartitions(j.SpillPartitions)}
	var err error
	sp.rightRuns, err = newRunSet(tracker, sp.parts)
	if err != nil {
		return nil, err
	}
	// Flush the build partition-wise. Map iteration order is arbitrary, but
	// only the per-key order matters for output equivalence, and each
	// chain's rows are written in insertion order.
	var flushed int64
	var row types.Tuple
	for _, ch := range j.chains {
		for r := ch.head; r >= 0; r = j.next[r] {
			row = j.build.Row(int(r), row[:0])
			w := sp.rightRuns[int(row.Hash(j.rightKeys)%uint64(sp.parts))]
			if err := appendTupleRec(w, &sp.scratch, 0, false, row); err != nil {
				discardRuns(sp.rightRuns)
				return nil, err
			}
		}
	}
	for _, w := range sp.rightRuns {
		flushed += w.Bytes()
	}
	j.chains, j.next = nil, nil
	j.build = types.Batch{}
	j.mem.releaseAll()
	tracker.NoteSpill(flushed)
	return sp, nil
}

// addRight routes one build-side row to its partition run.
func (sp *joinSpill) addRight(t types.Tuple) error {
	h := t.Hash(sp.j.rightKeys)
	return appendTupleRec(sp.rightRuns[int(h%uint64(sp.parts))], &sp.scratch, 0, false, t)
}

// run drains the probe side into sequence-tagged partition runs and joins the
// partitions one at a time, writing each partition's output as a
// sequence-ordered run; afterwards the merge cursors are primed.
func (sp *joinSpill) run(ctx context.Context) error {
	j := sp.j
	tracker := j.mem.t
	var err error
	sp.leftRuns, err = newRunSet(tracker, sp.parts)
	if err != nil {
		return err
	}
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	prog := ProgressFrom(ctx)
	batch := &types.Batch{Max: DefaultBatchSize}
	var t types.Tuple
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
		for _, r := range batch.Live() {
			t = batch.Row(r, t[:0])
			h := t.Hash(j.leftKeys)
			if err := appendTupleRec(sp.leftRuns[int(h%uint64(sp.parts))], &sp.scratch, sp.seq, true, t); err != nil {
				return err
			}
			sp.seq++
		}
	}

	var spilled int64
	for _, w := range sp.leftRuns {
		spilled += w.Bytes()
	}
	sp.outRuns, err = newRunSet(tracker, sp.parts)
	if err != nil {
		return err
	}
	for p := 0; p < sp.parts; p++ {
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
	sp.readers = make([]*storage.RunReader, sp.parts)
	sp.heads = make([]joinSpillHead, sp.parts)
	for p := 0; p < sp.parts; p++ {
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

// joinPartition builds partition p's hash table from its right run and probes
// it with the partition's left run, writing qualifying joined rows (tagged
// with their probe sequence) to the partition's output run.
func (sp *joinSpill) joinPartition(ctx context.Context, p int) error {
	j := sp.j
	rr, err := sp.rightRuns[p].Finish()
	if err != nil {
		return err
	}
	defer func() { _ = rr.Close() }()
	sp.rightRuns[p] = nil

	prog := ProgressFrom(ctx)
	table := make(map[uint64][]joinBucket)
	var charged int64
	defer func() { j.mem.t.Shrink(charged) }()
	insert := func(t types.Tuple) {
		h := t.Hash(j.rightKeys)
		chain := table[h]
		for i := range chain {
			if crossEqual(chain[i].key, j.rightKeys, t, j.rightKeys) {
				chain[i].rows = append(chain[i].rows, t)
				return
			}
		}
		table[h] = append(chain, joinBucket{key: t, rows: []types.Tuple{t}})
	}
	for i := 0; ; i++ {
		if i%1024 == 0 {
			prog.Tick()
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		t, _, err := types.DecodeTuple(rec)
		if err != nil {
			return fmt.Errorf("exec: join spill right row: %w", err)
		}
		insert(t)
		// Charge the partition table so the tracker's peak reflects reality;
		// partitions are sized to fit, so this stays within budget in the
		// expected case and is released when the partition completes.
		n := int64(t.MemSize())
		if err := j.mem.t.Grow(n); err != nil {
			return err
		}
		charged += n
	}

	lr, err := sp.leftRuns[p].Finish()
	if err != nil {
		return err
	}
	defer func() { _ = lr.Close() }()
	sp.leftRuns[p] = nil
	out := sp.outRuns[p]
	var outScratch []byte
	for i := 0; ; i++ {
		if i%1024 == 0 {
			prog.Tick()
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		rec, err := lr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if len(rec) < 8 {
			return fmt.Errorf("exec: join spill left row: truncated sequence")
		}
		seq := binary.BigEndian.Uint64(rec)
		t, _, err := types.DecodeTuple(rec[8:])
		if err != nil {
			return fmt.Errorf("exec: join spill left row: %w", err)
		}
		var matches []types.Tuple
		for _, b := range table[t.Hash(j.leftKeys)] {
			if crossEqual(t, j.leftKeys, b.key, j.rightKeys) {
				matches = b.rows
				break
			}
		}
		for _, m := range matches {
			joined := t.Concat(m)
			keep, err := j.match(joined)
			if err != nil {
				return err
			}
			if !keep {
				continue
			}
			if err := appendTupleRec(out, &outScratch, seq, true, joined); err != nil {
				return err
			}
		}
	}
	return nil
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
	parts     int
	stateRuns []*storage.RunWriter // flushed partial aggregation states
	rawRuns   []*storage.RunWriter // raw input rows arriving after the flush
	groupBy   []int
	nAggs     int
	scratch   []byte
}

// beginAggSpill flushes the aggregate's in-memory states as partial-state
// records partitioned by group hash and prepares raw-row partitions for the
// rest of the input. The caller releases its memory account.
func beginAggSpill(h *HashAggregate, states []*aggState) (*aggSpill, error) {
	tracker := h.mem.t
	sp := &aggSpill{parts: spillPartitions(h.SpillPartitions), groupBy: h.groupBy, nAggs: len(h.aggs)}
	var err error
	sp.stateRuns, err = newRunSet(tracker, sp.parts)
	if err != nil {
		return nil, err
	}
	sp.rawRuns, err = newRunSet(tracker, sp.parts)
	if err != nil {
		discardRuns(sp.stateRuns)
		return nil, err
	}
	groupOrds := allOrdinals(len(h.groupBy))
	var flushed int64
	for _, st := range states {
		rec := sp.encodeState(st)
		p := int(st.groupRow.Hash(groupOrds) % uint64(sp.parts))
		if err := appendTupleRec(sp.stateRuns[p], &sp.scratch, 0, false, rec); err != nil {
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

// encodeState flattens a partial aggregation state into one tuple: group
// columns, total count, then per aggregate (float sum, INT sum, min, max,
// count).
func (sp *aggSpill) encodeState(st *aggState) types.Tuple {
	rec := make(types.Tuple, 0, len(st.groupRow)+1+5*sp.nAggs)
	rec = append(rec, st.groupRow...)
	rec = append(rec, types.NewInt(st.count))
	for _, acc := range st.accs {
		rec = append(rec, types.NewFloat(acc.sum), types.NewInt(acc.isum), acc.min, acc.max, types.NewInt(acc.count))
	}
	return rec
}

// decodeState rebuilds a partial aggregation state from its flattened tuple.
func (sp *aggSpill) decodeState(rec types.Tuple) (*aggState, error) {
	want := len(sp.groupBy) + 1 + 5*sp.nAggs
	if len(rec) != want {
		return nil, fmt.Errorf("exec: aggregate spill state has %d columns, want %d", len(rec), want)
	}
	g := len(sp.groupBy)
	st := &aggState{groupRow: rec[:g:g], accs: make([]aggAcc, sp.nAggs)}
	count, err := rec[g].Int()
	if err != nil {
		return nil, fmt.Errorf("exec: aggregate spill state count: %w", err)
	}
	st.count = count
	for i := range st.accs {
		base, acc := g+1+5*i, &st.accs[i]
		if acc.sum, err = rec[base].Float(); err != nil {
			return nil, fmt.Errorf("exec: aggregate spill state sum: %w", err)
		}
		if acc.isum, err = rec[base+1].Int(); err != nil {
			return nil, fmt.Errorf("exec: aggregate spill state sum: %w", err)
		}
		acc.min, acc.max = rec[base+2], rec[base+3]
		if acc.count, err = rec[base+4].Int(); err != nil {
			return nil, fmt.Errorf("exec: aggregate spill state count: %w", err)
		}
	}
	return st, nil
}

// addRaw routes one post-flush input row to its partition run.
func (sp *aggSpill) addRaw(t types.Tuple) error {
	p := int(t.Hash(sp.groupBy) % uint64(sp.parts))
	return appendTupleRec(sp.rawRuns[p], &sp.scratch, 0, false, t)
}

// finish aggregates every partition — replaying its flushed partial states
// first (so each group's accumulation order matches the in-memory run),
// then folding its raw rows — and returns the concatenated, unsorted result
// rows. The operator's deterministic group sort runs afterwards.
func (sp *aggSpill) finish(ctx context.Context, h *HashAggregate) ([]types.Tuple, error) {
	groupOrds := allOrdinals(len(h.groupBy))
	var raw int64
	for _, w := range sp.rawRuns {
		raw += w.Bytes()
	}
	h.mem.t.NoteSpillBytes(raw)
	prog := ProgressFrom(ctx)
	var results []types.Tuple
	for p := 0; p < sp.parts; p++ {
		prog.Tick()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rows, err := sp.finishPartition(ctx, h, p, groupOrds)
		if err != nil {
			return nil, err
		}
		results = append(results, rows...)
	}
	return results, nil
}

// finishPartition aggregates partition p and returns its result rows. What
// it charges the tracker is released when it returns.
func (sp *aggSpill) finishPartition(ctx context.Context, h *HashAggregate, p int, groupOrds []int) ([]types.Tuple, error) {
	table := &aggTable{groups: make(map[uint64][]*aggState)}
	var keys types.Batch // the states' group rows
	keys.Reset(len(groupOrds))
	mem := memAccount{t: h.mem.t}
	defer mem.releaseAll()
	sr, err := sp.stateRuns[p].Finish()
	if err != nil {
		return nil, err
	}
	defer func() { _ = sr.Close() }()
	sp.stateRuns[p] = nil
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tup, _, err := types.DecodeTuple(rec)
		if err != nil {
			return nil, fmt.Errorf("exec: aggregate spill state: %w", err)
		}
		st, err := sp.decodeState(tup)
		if err != nil {
			return nil, err
		}
		keys.AppendRows(st.groupRow)
		table.states = append(table.states, st)
		if err := mem.grow(int64(st.groupRow.MemSize()) + AggStateMemSize(sp.nAggs)); err != nil {
			return nil, err
		}
	}
	// The states go in under the key hash the fold looks them up by.
	for i, hash := range keys.HashRows(keys.Live(), groupOrds, nil) {
		table.groups[hash] = append(table.groups[hash], table.states[i])
	}

	rr, err := sp.rawRuns[p].Finish()
	if err != nil {
		return nil, err
	}
	defer func() { _ = rr.Close() }()
	sp.rawRuns[p] = nil
	// Raw rows are folded a batch at a time, through the operator's own
	// fold, in their arrival order.
	var raw types.Batch
	raw.Reset(h.input.Schema().Len())
	flush := func() error {
		n, err := h.fold(table, &raw)
		if err == nil {
			err = mem.grow(n)
		}
		raw.Reset(len(raw.Cols))
		return err
	}
	prog := ProgressFrom(ctx)
	for i := 0; ; i++ {
		if i%1024 == 0 {
			prog.Tick()
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rec, err := rr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		tup, _, err := types.DecodeTuple(rec)
		if err != nil {
			return nil, fmt.Errorf("exec: aggregate spill raw row: %w", err)
		}
		raw.AppendRows(tup)
		if raw.N == DefaultBatchSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return h.materialize(table.states), nil
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
