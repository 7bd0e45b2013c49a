package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// ErrPeerClosed is returned by Conn.Receive when the peer shuts the
// connection down cleanly on a frame boundary. It unwraps to io.EOF, so
// legacy callers matching io.EOF keep working, while new callers can
// distinguish an orderly shutdown from mid-frame truncation
// (io.ErrUnexpectedEOF).
var ErrPeerClosed error = &peerClosedError{}

type peerClosedError struct{}

func (*peerClosedError) Error() string { return "wire: peer closed the connection" }
func (*peerClosedError) Unwrap() error { return io.EOF }

// ErrCircuitOpen is returned by Breaker.Allow (and therefore by Redialer)
// while the circuit breaker is open after repeated link failures.
var ErrCircuitOpen = errors.New("wire: circuit breaker open")

// ErrClass buckets session errors by how the fault-tolerance layer should
// react to them.
type ErrClass uint8

const (
	// ClassFatal marks errors that redialing cannot fix: protocol
	// violations, application (UDF) failures, frame corruption. The query
	// fails.
	ClassFatal ErrClass = iota
	// ClassRetryable marks transport-level failures — connection drops,
	// resets, refused dials, truncation — worth a reconnection attempt.
	ClassRetryable
	// ClassCanceled marks errors caused by the query's own context
	// (cancellation or deadline); recovery must stop immediately.
	ClassCanceled
)

// String names the class for logs and error messages.
func (c ErrClass) String() string {
	switch c {
	case ClassRetryable:
		return "retryable"
	case ClassCanceled:
		return "canceled"
	default:
		return "fatal"
	}
}

// Classify buckets an error from a session operation. Transport-shaped
// failures (EOF, closed pipes, net errors, deadline slams) are retryable;
// context errors are canceled; everything else — including peer-reported
// application errors — is fatal.
func Classify(err error) ErrClass {
	if err == nil {
		return ClassFatal
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return ClassCanceled
	}
	if errors.Is(err, ErrCircuitOpen) {
		return ClassFatal
	}
	// Typed server refusals: the query never ran (shed under overload, or
	// shed by a draining server), so an idempotent resubmission is safe.
	if errors.Is(err, ErrOverloaded) || errors.Is(err, ErrServerDraining) {
		return ClassRetryable
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, os.ErrDeadlineExceeded) {
		return ClassRetryable
	}
	var nerr net.Error
	if errors.As(err, &nerr) {
		return ClassRetryable
	}
	var oerr *net.OpError
	if errors.As(err, &oerr) {
		return ClassRetryable
	}
	return ClassFatal
}

// Backoff computes a capped exponential backoff schedule with proportional
// jitter. The zero value uses the defaults noted on each field.
type Backoff struct {
	// Base is the delay before the first retry. Default 20ms.
	Base time.Duration
	// Max caps the delay. Default 2s.
	Max time.Duration
	// Factor multiplies the delay each attempt. Default 2.
	Factor float64
	// Jitter is the fraction of each delay that is randomized: the returned
	// delay is uniform in [d·(1−Jitter), d]. Default 0.2; negative disables.
	Jitter float64
	// Rand supplies the jitter draw in [0,1); nil uses math/rand. Tests
	// inject a deterministic source here.
	Rand func() float64
}

// Delay returns the backoff before retry attempt n (0-based: n=0 is the
// delay after the first failure).
func (b Backoff) Delay(n int) time.Duration {
	base := b.Base
	if base <= 0 {
		base = 20 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = 2 * time.Second
	}
	factor := b.Factor
	if factor < 1 {
		factor = 2
	}
	d := float64(base)
	for i := 0; i < n; i++ {
		d *= factor
		if d >= float64(max) {
			break
		}
	}
	if d > float64(max) {
		d = float64(max)
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	if jitter > 0 {
		if jitter > 1 {
			jitter = 1
		}
		draw := b.Rand
		if draw == nil {
			draw = rand.Float64
		}
		d -= d * jitter * draw()
	}
	return time.Duration(d)
}

// Breaker is a per-link circuit breaker: after Threshold consecutive
// failures it opens for Cooldown, during which Allow fails fast with
// ErrCircuitOpen. After the cooldown one trial is allowed through
// (half-open); success closes the circuit, failure re-opens it.
type Breaker struct {
	// Threshold is the number of consecutive failures that opens the
	// circuit. Default 5.
	Threshold int
	// Cooldown is how long the circuit stays open. Default 3s.
	Cooldown time.Duration
	// Now supplies the clock; nil uses time.Now. Tests inject a fake.
	Now func() time.Time

	mu        sync.Mutex
	fails     int
	openUntil time.Time
	trips     int64
}

func (b *Breaker) now() time.Time {
	if b.Now != nil {
		return b.Now()
	}
	return time.Now()
}

// Allow reports whether an attempt may proceed; it returns ErrCircuitOpen
// while the circuit is open.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.openUntil.IsZero() && b.now().Before(b.openUntil) {
		return fmt.Errorf("%w (until %s)", ErrCircuitOpen, b.openUntil.Format(time.RFC3339))
	}
	// Half-open: clear the window so one trial proceeds; Failure re-opens.
	b.openUntil = time.Time{}
	return nil
}

// Success records a successful attempt, closing the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.openUntil = time.Time{}
}

// Failure records a failed attempt, opening the circuit once the
// consecutive-failure threshold is reached.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	threshold := b.Threshold
	if threshold <= 0 {
		threshold = 5
	}
	if b.fails >= threshold {
		cooldown := b.Cooldown
		if cooldown <= 0 {
			cooldown = 3 * time.Second
		}
		b.openUntil = b.now().Add(cooldown)
		b.trips++
	}
}

// Trips returns how many times the circuit has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Redialer re-establishes a session with capped exponential backoff and
// jittered delays, giving up early on fatal or context errors and honouring
// an optional per-link circuit breaker.
type Redialer[T any] struct {
	// Dial performs one connection + handshake attempt.
	Dial func(ctx context.Context) (T, error)
	// MaxAttempts bounds the attempts per Redial call. Default 4.
	MaxAttempts int
	// Backoff schedules the delay between attempts.
	Backoff Backoff
	// Breaker, when non-nil, gates attempts and records their outcomes.
	Breaker *Breaker
	// Sleep waits between attempts; nil uses a context-aware real sleep.
	// Tests inject a fake clock here.
	Sleep func(ctx context.Context, d time.Duration) error
}

// SleepCtx sleeps for d or until ctx is done, returning ctx.Err() in the
// latter case. It is the default Sleep of a Redialer.
func SleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Redial attempts to establish a session until one attempt succeeds, the
// attempt budget is exhausted, the breaker opens, or a fatal or context
// error surfaces.
func (r *Redialer[T]) Redial(ctx context.Context) (T, error) {
	var zero T
	attempts := r.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	sleep := r.Sleep
	if sleep == nil {
		sleep = SleepCtx
	}
	var last error
	for i := 0; i < attempts; i++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		if i > 0 {
			if err := sleep(ctx, r.Backoff.Delay(i-1)); err != nil {
				return zero, err
			}
		}
		if r.Breaker != nil {
			if err := r.Breaker.Allow(); err != nil {
				if last != nil {
					return zero, fmt.Errorf("%w (last dial error: %v)", err, last)
				}
				return zero, err
			}
		}
		v, err := r.Dial(ctx)
		if err == nil {
			if r.Breaker != nil {
				r.Breaker.Success()
			}
			return v, nil
		}
		if r.Breaker != nil {
			r.Breaker.Failure()
		}
		switch Classify(err) {
		case ClassCanceled:
			return zero, err
		case ClassFatal:
			return zero, fmt.Errorf("wire: redial aborted on fatal error: %w", err)
		}
		last = err
	}
	return zero, fmt.Errorf("wire: redial gave up after %d attempts: %w", attempts, last)
}
