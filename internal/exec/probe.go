package exec

import (
	"context"
	"fmt"
	"time"

	"csq/internal/wire"
)

// This file implements live link measurement for the planner: instead of
// trusting configured bandwidths, the planner opens a session on the query's
// own client link and measures both directions with padding probes. The
// asymmetry N = downlink/uplink bandwidth is the cost-model parameter the
// measurement exists for; the absolute bandwidths and the round-trip time
// additionally feed the pipeline concurrency factor (B·T of Section 3.1.2).

// DefaultProbeBytes is the large-probe payload size the planner probes with.
// Probes are differential (large minus small), so the value only
// needs to dominate the fixed per-frame overhead, not saturate the link.
const DefaultProbeBytes = 32 << 10

// probeRounds is how many times each probe shape is measured; the minimum
// over rounds is used, which discards scheduling noise.
const probeRounds = 3

// LinkObservation is the result of probing a client link.
type LinkObservation struct {
	// DownBytesPerSec and UpBytesPerSec are the measured bandwidths. Zero
	// means the direction was too fast to measure (effectively unlimited).
	DownBytesPerSec float64
	UpBytesPerSec   float64
	// Asymmetry is N = downlink/uplink bandwidth. Directions too fast to
	// measure contribute 1, so an unshaped in-process link reports N == 1.
	Asymmetry float64
	// RTT is the measured small-probe round-trip time, including both one-way
	// latencies and the client's turnaround.
	RTT time.Duration
}

// ProbeAsymmetry measures a client link by exchanging padding probes over a
// dedicated session. probeBytes is the large-probe payload size; values < 1
// select DefaultProbeBytes. The function sends, per round, a small reference
// exchange and one large exchange per direction, and derives each direction's
// bandwidth from the extra time the large transfer took over the reference.
// Cancelling the context tears the probe session down and aborts the
// measurement; a wedged peer therefore cannot hang the caller forever.
func ProbeAsymmetry(ctx context.Context, link ClientLink, probeBytes int) (LinkObservation, error) {
	if link == nil {
		return LinkObservation{}, fmt.Errorf("exec: probe needs a client link")
	}
	if probeBytes < 1 {
		probeBytes = DefaultProbeBytes
	}
	small := probeBytes / 64
	if small < 64 {
		small = 64
	}
	if small >= probeBytes {
		probeBytes = small * 2
	}
	// The per-link circuit breaker guards the probe: after repeated link
	// failures the planner falls back to configured link parameters instead
	// of paying a doomed probe's timeout on every query.
	breaker := BreakerOf(link)
	if breaker != nil {
		if err := breaker.Allow(); err != nil {
			return LinkObservation{}, fmt.Errorf("exec: probe suppressed: %w", err)
		}
	}
	conn, err := link.OpenSession(ctx)
	if err != nil {
		if breaker != nil {
			breaker.Failure()
		}
		return LinkObservation{}, err
	}
	if breaker != nil {
		breaker.Success()
	}
	defer func() { _ = conn.Close() }()
	// Cancellation watchdog: closing the connection unblocks Send/Receive.
	watchdogDone := make(chan struct{})
	defer close(watchdogDone)
	go func() {
		select {
		case <-ctx.Done():
			_ = conn.Close()
		case <-watchdogDone:
		}
	}()

	// Each exchange is timed three ways: wall clock for the round trip, plus
	// the connection's live send/receive time counters. Over a shaped link the
	// send counter isolates the downlink busy time (the pacing happens inside
	// the write path) and the receive counter the uplink wait, which gives a
	// cleaner bandwidth signal than the wall clock, whose differences also
	// carry the peer's turnaround jitter.
	type timing struct {
		wall, send, recv time.Duration
	}
	var seq uint32
	exchange := func(downBytes, upBytes int) (timing, error) {
		seq++
		p := wire.Probe{Seq: seq, EchoBytes: uint32(upBytes), Payload: make([]byte, downBytes)}
		sendBefore, recvBefore := conn.SendTime(), conn.ReceiveTime()
		start := time.Now()
		if err := conn.Send(wire.MsgProbe, wire.AppendProbe(nil, &p)); err != nil {
			if ctx.Err() != nil {
				return timing{}, ctx.Err()
			}
			return timing{}, err
		}
		for {
			msg, err := conn.Receive()
			if err != nil {
				if ctx.Err() != nil {
					return timing{}, ctx.Err()
				}
				return timing{}, err
			}
			switch msg.Type {
			case wire.MsgProbe:
				echo, err := wire.DecodeProbe(msg.Payload)
				if err != nil {
					return timing{}, err
				}
				if echo.Seq != seq {
					continue
				}
				return timing{
					wall: time.Since(start),
					send: conn.SendTime() - sendBefore,
					recv: conn.ReceiveTime() - recvBefore,
				}, nil
			case wire.MsgError:
				e, derr := wire.DecodeError(msg.Payload)
				if derr != nil {
					return timing{}, derr
				}
				return timing{}, fmt.Errorf("exec: probe rejected: %s", e.Message)
			default:
				return timing{}, fmt.Errorf("exec: unexpected message %s during probe", msg.Type)
			}
		}
	}

	// Warm-up exchange: pays the first-send latency in both directions so the
	// measured rounds see a busy link, and verifies the peer speaks probes.
	if _, err := exchange(small, small); err != nil {
		return LinkObservation{}, err
	}

	minOf := func(downBytes, upBytes int) (timing, error) {
		var best timing
		for i := 0; i < probeRounds; i++ {
			d, err := exchange(downBytes, upBytes)
			if err != nil {
				return timing{}, err
			}
			if i == 0 {
				best = d
				continue
			}
			if d.wall < best.wall {
				best.wall = d.wall
			}
			if d.send < best.send {
				best.send = d.send
			}
			if d.recv < best.recv {
				best.recv = d.recv
			}
		}
		return best, nil
	}
	tBase, err := minOf(small, small)
	if err != nil {
		return LinkObservation{}, err
	}
	tDown, err := minOf(probeBytes, small)
	if err != nil {
		return LinkObservation{}, err
	}
	tUp, err := minOf(small, probeBytes)
	if err != nil {
		return LinkObservation{}, err
	}

	obs := LinkObservation{RTT: tBase.wall, Asymmetry: 1}
	extra := float64(probeBytes - small)
	// Downlink: prefer the send-busy delta, falling back to wall clock when
	// the write path does not block (e.g. kernel-buffered TCP).
	if d := tDown.send - tBase.send; d > 0 {
		obs.DownBytesPerSec = extra / d.Seconds()
	} else if d := tDown.wall - tBase.wall; d > 0 {
		obs.DownBytesPerSec = extra / d.Seconds()
	}
	// Uplink: the receive-wait delta; the peer's constant turnaround time
	// cancels in the subtraction.
	if d := tUp.recv - tBase.recv; d > 0 {
		obs.UpBytesPerSec = extra / d.Seconds()
	} else if d := tUp.wall - tBase.wall; d > 0 {
		obs.UpBytesPerSec = extra / d.Seconds()
	}
	switch {
	case obs.DownBytesPerSec > 0 && obs.UpBytesPerSec > 0:
		obs.Asymmetry = obs.DownBytesPerSec / obs.UpBytesPerSec
	case obs.DownBytesPerSec == 0 && obs.UpBytesPerSec > 0:
		// Downlink unmeasurably fast: treat it as much faster than the uplink
		// but keep the value finite so the cost model stays well-defined.
		obs.Asymmetry = 1000
	case obs.DownBytesPerSec > 0 && obs.UpBytesPerSec == 0:
		obs.Asymmetry = 0.001
	}
	return obs, nil
}
