package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"
)

// noJitter is a jitter draw that takes nothing off a delay.
func noJitter() float64 { return 0 }

func TestBackoffSchedule(t *testing.T) {
	b := Backoff{Base: 500 * time.Millisecond, Rand: noJitter}
	want := []time.Duration{
		500 * time.Millisecond,
		time.Second,
		2 * time.Second,
		2 * time.Second, // capped
		2 * time.Second,
	}
	for n, w := range want {
		if got := b.Delay(n); got != w {
			t.Errorf("Delay(%d) = %v, want %v", n, got, w)
		}
	}
	if got := (Backoff{Rand: noJitter}).Delay(0); got != 20*time.Millisecond {
		t.Errorf("zero Base: Delay(0) = %v, want 20ms", got)
	}
}

func TestBackoffJitterRange(t *testing.T) {
	base := 100 * time.Millisecond
	full := Backoff{Base: base, Rand: func() float64 { return 1 }}
	if got := full.Delay(0); got != 80*time.Millisecond {
		t.Errorf("full jitter draw: Delay(0) = %v, want 80ms", got)
	}
	none := Backoff{Base: base, Rand: noJitter}
	if got := none.Delay(0); got != base {
		t.Errorf("zero jitter draw: Delay(0) = %v, want %v", got, base)
	}
}

// fakeSleeper records every requested delay without sleeping, so backoff
// schedules are asserted exactly and the test takes microseconds.
type fakeSleeper struct{ slept []time.Duration }

func (f *fakeSleeper) sleep(ctx context.Context, d time.Duration) error {
	f.slept = append(f.slept, d)
	return ctx.Err()
}

func TestRedialerBackoffScheduleWithFakeClock(t *testing.T) {
	clock := &fakeSleeper{}
	attempts := 0
	r := Redialer[int]{
		Dial: func(ctx context.Context) (int, error) {
			attempts++
			if attempts < 4 {
				return 0, fmt.Errorf("transport: %w", io.ErrClosedPipe)
			}
			return 7, nil
		},
		MaxAttempts: 6,
		Backoff:     Backoff{Base: 10 * time.Millisecond, Rand: noJitter},
		Sleep:       clock.sleep,
	}
	start := time.Now()
	v, err := r.Redial(context.Background())
	if err != nil || v != 7 {
		t.Fatalf("Redial = (%d, %v), want (7, nil)", v, err)
	}
	if attempts != 4 {
		t.Errorf("attempts = %d, want 4", attempts)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(clock.slept) != len(want) {
		t.Fatalf("slept %v, want %v", clock.slept, want)
	}
	for i, w := range want {
		if clock.slept[i] != w {
			t.Errorf("sleep %d = %v, want %v", i, clock.slept[i], w)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("fake-clock redial took %v of real time", elapsed)
	}
}

func TestRedialerGivesUpAfterBudget(t *testing.T) {
	clock := &fakeSleeper{}
	attempts := 0
	r := Redialer[int]{
		Dial: func(ctx context.Context) (int, error) {
			attempts++
			return 0, io.ErrClosedPipe
		},
		MaxAttempts: 3,
		Sleep:       clock.sleep,
	}
	if _, err := r.Redial(context.Background()); !errors.Is(err, io.ErrClosedPipe) {
		t.Fatalf("Redial error = %v, want wrapped last dial error", err)
	}
	if attempts != 3 || len(clock.slept) != 2 {
		t.Errorf("attempts = %d, sleeps = %d; want 3 attempts and 2 sleeps", attempts, len(clock.slept))
	}
}

func TestRedialerStopsOnFatalError(t *testing.T) {
	attempts := 0
	appErr := errors.New("client rejected setup")
	r := Redialer[int]{
		Dial:        func(ctx context.Context) (int, error) { attempts++; return 0, appErr },
		MaxAttempts: 4,
		Sleep:       (&fakeSleeper{}).sleep,
	}
	if _, err := r.Redial(context.Background()); !errors.Is(err, appErr) {
		t.Fatalf("Redial error = %v, want wrapped fatal error", err)
	}
	if attempts != 1 {
		t.Errorf("attempts = %d, want 1 (fatal errors must not be retried)", attempts)
	}
}

func TestRedialerHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := Redialer[int]{
		Dial:        func(ctx context.Context) (int, error) { return 0, io.ErrClosedPipe },
		MaxAttempts: 4,
		Sleep:       (&fakeSleeper{}).sleep,
	}
	if _, err := r.Redial(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Redial on a cancelled context = %v, want context.Canceled", err)
	}
}

func TestRedialerBreakerFailsFast(t *testing.T) {
	now := time.Unix(0, 0)
	br := &Breaker{Now: func() time.Time { return now }}
	r := Redialer[int]{
		Dial:        func(ctx context.Context) (int, error) { return 0, io.ErrClosedPipe },
		MaxAttempts: 10,
		Breaker:     br,
		Sleep:       (&fakeSleeper{}).sleep,
	}
	if _, err := r.Redial(context.Background()); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Redial with tripping breaker = %v, want ErrCircuitOpen", err)
	}
	if br.Trips() == 0 {
		t.Error("breaker never tripped")
	}
	if Classify(ErrCircuitOpen) != ClassFatal {
		t.Error("an open circuit must classify fatal: retrying through it defeats its purpose")
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	now := time.Unix(0, 0)
	br := &Breaker{Now: func() time.Time { return now }}
	for range breakerThreshold - 1 {
		br.Failure()
	}
	if err := br.Allow(); err != nil {
		t.Fatalf("Allow below threshold = %v", err)
	}
	br.Failure()
	if err := br.Allow(); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("Allow after threshold = %v, want ErrCircuitOpen", err)
	}
	now = now.Add(breakerCooldown)
	if err := br.Allow(); err != nil {
		t.Fatalf("Allow after cooldown (half-open) = %v, want nil", err)
	}
	br.Success()
	br.Failure() // one failure after a success must not re-open
	if err := br.Allow(); err != nil {
		t.Fatalf("Allow after success reset = %v, want nil", err)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want ErrClass
	}{
		{"nil", nil, ClassFatal},
		{"application", errors.New("UDF failed"), ClassFatal},
		{"circuit open", ErrCircuitOpen, ClassFatal},
		{"canceled", context.Canceled, ClassCanceled},
		{"deadline", context.DeadlineExceeded, ClassCanceled},
		{"wrapped canceled", fmt.Errorf("query: %w", context.Canceled), ClassCanceled},
		{"eof", io.EOF, ClassRetryable},
		{"peer closed", ErrPeerClosed, ClassRetryable},
		{"truncation", io.ErrUnexpectedEOF, ClassRetryable},
		{"closed pipe", io.ErrClosedPipe, ClassRetryable},
		{"net closed", net.ErrClosed, ClassRetryable},
		{"wrapped transport", fmt.Errorf("send frame: %w", io.ErrClosedPipe), ClassRetryable},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%s) = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestErrPeerClosedOnCleanShutdown(t *testing.T) {
	if !errors.Is(ErrPeerClosed, io.EOF) {
		t.Fatal("ErrPeerClosed must unwrap to io.EOF for legacy callers")
	}
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	done := make(chan error, 1)
	go func() {
		_, err := cb.Receive()
		done <- err
	}()
	_ = ca.Close()
	err := <-done
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("Receive after clean peer close = %v, want ErrPeerClosed", err)
	}
	_ = cb.Close()
}
