package exec

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"csq/internal/netsim"
	"csq/internal/types"
	"csq/internal/wire"
)

// poolRig drives a shipPool directly, with no operator above it: frames are
// tagged with their deal sequence number and the reply callback records the
// order the tags come back in, checking that each reply really answers the
// frame it was handed with — which is what per-lane FIFO matching guarantees.
type poolRig struct {
	pool *shipPool[int]
	mu   sync.Mutex
	tags []int
}

// rigFrameTuples is how many argument tuples a rig frame carries. Every frame
// encodes to the same size, so fault thresholds can be placed mid-frame.
const rigFrameTuples = 4

// rigFrame builds the frame with the given tag.
func rigFrame(tag int) []types.Tuple {
	frame := make([]types.Tuple, rigFrameTuples)
	for i := range frame {
		samples := make([]float64, 32)
		samples[0], samples[31] = 100, 101+float64(tag*rigFrameTuples+i)
		frame[i] = types.NewTuple(types.NewTimeSeries(types.NewSeries(samples...)))
	}
	return frame
}

func openRig(t *testing.T, link ClientLink, lanes int) *poolRig {
	t.Helper()
	rig := &poolRig{}
	var err error
	rig.pool, err = openShipPool(context.Background(), link, shipPolicy[int]{
		setup: &wire.SetupRequest{
			Mode:        wire.ModeSemiJoin,
			InputSchema: types.NewSchema(types.Column{Name: "Quotes", Kind: types.KindTimeSeries}),
			UDFs:        []wire.UDFSpec{{Name: "ClientAnalysis", ArgOrdinals: []int{0}}},
		},
		sessions: lanes,
		retry:    RetryConfig{Backoff: time.Millisecond},
		onReply:  rig.onReply,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rig
}

func (r *poolRig) onReply(f shipFrame[int], reply []types.Tuple) error {
	if len(reply) != len(f.tuples) {
		return fmt.Errorf("frame %d: %d arguments, %d results", f.tag, len(f.tuples), len(reply))
	}
	for i, res := range reply {
		ts, _ := f.tuples[i][0].Series()
		if got, _ := res[0].Int(); got != expectedRating(ts) {
			return fmt.Errorf("frame %d answered with another frame's reply: result %d is %d, want %d", f.tag, i, got, expectedRating(ts))
		}
	}
	r.mu.Lock()
	r.tags = append(r.tags, f.tag)
	r.mu.Unlock()
	return nil
}

// deal deals the frames tagged from..to-1 back to back, so that over the
// unbuffered link the client is regularly blocked writing a reply while the
// dealer is mid-send on the same session.
func (r *poolRig) deal(from, to int) error {
	for tag := from; tag < to; tag++ {
		if err := r.pool.deal(rigFrame(tag), tag); err != nil {
			return err
		}
	}
	return nil
}

// answered waits until every dealt frame has been acknowledged.
func (r *poolRig) answered() error {
	return r.pool.await(func() bool { return r.pool.acked == r.pool.dealt })
}

// rigSizes measures, on a fault-free session, the downlink bytes of the setup
// handshake and of one frame.
func rigSizes(t *testing.T) (setup, frame int64) {
	t.Helper()
	rig := openRig(t, fastLink(t), 1)
	defer rig.pool.close()
	setup = rig.pool.netStats().BytesDown
	if err := errors.Join(rig.deal(0, 1), rig.answered()); err != nil {
		t.Fatal(err)
	}
	return setup, rig.pool.netStats().BytesDown - setup
}

// TestShipPoolSendPathInvariant walks the whole recovery ladder on the pool
// itself, over net.Pipe-backed sessions (nothing is buffered: a write
// completes only when the peer reads it). Lane 1's session is severed in the
// middle of its third frame; the redialled replacement answers the replayed
// tail and is severed in the middle of its fourth frame; the next one is
// severed in the middle of the first replayed frame; every later dial is
// refused, so the lane degrades and its unacknowledged frames migrate to
// lane 0. Every frame must be answered exactly once, each lane's callbacks in
// its send order.
func TestShipPoolSendPathInvariant(t *testing.T) {
	baseline := grCount()
	setup, frame := rigSizes(t)
	script := netsim.NewFaultScript(1).
		Set(0, netsim.FaultConfig{}).
		Set(1, netsim.FaultConfig{DropAfterBytes: setup + 2*frame + frame/2}).
		Set(2, netsim.FaultConfig{DropAfterBytes: setup + 3*frame + frame/2}).
		Set(3, netsim.FaultConfig{DropAfterBytes: setup + frame/2}).
		SetDefault(netsim.FaultConfig{RefuseDial: true})
	rig := openRig(t, faultyLink(t, script), 2)
	// While both lanes live the deal alternates: even tags ride lane 0, odd
	// tags lane 1. The second half is dealt once the ladder has run its
	// course, onto the one lane left.
	const half = 16
	if err := errors.Join(rig.deal(0, half), rig.answered()); err != nil {
		t.Fatalf("first half: %v", err)
	}
	if err := errors.Join(rig.deal(half, 2*half), rig.pool.end()); err != nil {
		t.Fatalf("second half: %v", err)
	}
	stats := rig.pool.faultStats()
	rig.pool.close()
	assertNoLeak(t, baseline)

	if stats.Failovers != 3 || stats.Redials != 2 || stats.SessionsLost != 1 || stats.FinalSessions != 1 {
		t.Errorf("fault stats = %+v, want 3 failovers, 2 redials, 1 session lost, 1 final session", stats)
	}
	// Each death leaves at least the severed frame unacknowledged.
	if stats.ReplayedFrames < 3 {
		t.Errorf("replayed %d frames, want at least one per failover", stats.ReplayedFrames)
	}
	if len(rig.tags) != 2*half {
		t.Fatalf("%d callbacks for %d frames: %v", len(rig.tags), 2*half, rig.tags)
	}
	// Per-lane FIFO: the even tags (lane 0 throughout), the odd tags of the
	// first half (lane 1, its replacements, then migrated as one block) and
	// the second half (lane 0) each come back in deal order, and the second
	// half after all of the first.
	last := map[string]int{}
	for pos, tag := range rig.tags {
		stream := "even"
		switch {
		case tag >= half:
			stream = "second half"
		case tag%2 == 1:
			stream = "odd"
		}
		if prev, seen := last[stream]; seen && tag <= prev {
			t.Errorf("callback %d: tag %d after %d on the %s stream: %v", pos, tag, prev, stream, rig.tags)
		}
		last[stream] = tag
		if (tag >= half) != (pos >= half) {
			t.Errorf("callback %d: tag %d crosses the halves: %v", pos, tag, rig.tags)
		}
	}
}

// TestShipPoolFailoverBudget flaps lane 1 forever: every redial succeeds and
// every replacement is severed in the middle of the first replayed frame.
// Recovery must stop at the budget instead of looping, and close must still
// join every reader and replay goroutine.
func TestShipPoolFailoverBudget(t *testing.T) {
	baseline := grCount()
	setup, frame := rigSizes(t)
	script := netsim.NewFaultScript(1).
		Set(0, netsim.FaultConfig{}).
		SetDefault(netsim.FaultConfig{DropAfterBytes: setup + frame/2})
	rig := openRig(t, faultyLink(t, script), 2)
	err := errors.Join(rig.deal(0, 4), rig.pool.end())
	stats := rig.pool.faultStats()
	rig.pool.close()
	assertNoLeak(t, baseline)

	if err == nil || errors.Is(err, ErrSessionsExhausted) {
		t.Errorf("err = %v, want the failover budget error", err)
	}
	if want := int64(4*2 + 16); stats.Failovers != want || stats.Redials != want {
		t.Errorf("fault stats = %+v, want %d failovers and redials", stats, want)
	}
	for _, tag := range rig.tags {
		if tag%2 == 1 {
			t.Errorf("frame %d was answered on a lane that never carried a whole frame", tag)
		}
	}
}

// TestShipPoolReplaysEnd severs the only session in the middle of its End
// marker, after every frame was answered: the replacement has nothing to
// replay but the marker, and the handshake must still complete.
func TestShipPoolReplaysEnd(t *testing.T) {
	baseline := grCount()
	setup, frame := rigSizes(t)
	script := netsim.NewFaultScript(1).Set(0, netsim.FaultConfig{DropAfterBytes: setup + 2*frame + 2})
	rig := openRig(t, faultyLink(t, script), 1)
	err := errors.Join(rig.deal(0, 2), rig.pool.end())
	stats := rig.pool.faultStats()
	rig.pool.close()
	assertNoLeak(t, baseline)

	if err != nil {
		t.Fatal(err)
	}
	if stats.Failovers != 1 || stats.Redials != 1 || stats.ReplayedFrames != 0 || stats.FinalSessions != 1 {
		t.Errorf("fault stats = %+v, want 1 failover, 1 redial, nothing replayed, 1 final session", stats)
	}
	if len(rig.tags) != 2 {
		t.Errorf("callbacks = %v, want each of 2 frames once", rig.tags)
	}
}
