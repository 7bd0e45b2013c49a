package exec

import (
	"context"
	"net"
	"sort"
	"testing"
	"time"

	"csq/internal/netsim"
	"csq/internal/wire"
)

func TestProbeAsymmetryShapedLink(t *testing.T) {
	// A 10:1 shaped link, time-scaled so the probe completes quickly. The
	// probe must recover the asymmetry from live measurements alone.
	cfg := netsim.LinkConfig{
		DownBandwidth: 10 * 3600,
		UpBandwidth:   3600,
		Latency:       10 * time.Millisecond,
		TimeScale:     200,
	}
	link := NewInProcessLink(newAnalysisRuntime(t), cfg)
	obs, err := ProbeAsymmetry(context.Background(), link, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if obs.DownBytesPerSec <= 0 || obs.UpBytesPerSec <= 0 {
		t.Fatalf("shaped link should be measurable: %+v", obs)
	}
	if obs.Asymmetry < 4 || obs.Asymmetry > 25 {
		t.Errorf("measured asymmetry %.2f, want ~10", obs.Asymmetry)
	}
	if obs.RTT <= 0 {
		t.Errorf("RTT should be positive, got %v", obs.RTT)
	}
}

func TestProbeAsymmetryUnlimitedLink(t *testing.T) {
	link := fastLink(t)
	// An unshaped in-process pipe may still show tiny measurable times, but
	// the asymmetry must come out near 1 (both directions behave the same).
	// One probe is a ratio of two microsecond-scale send times and a single
	// scheduling hiccup skews it, so the assertion is on the median of five.
	ratios := make([]float64, 5)
	for i := range ratios {
		obs, err := ProbeAsymmetry(context.Background(), link, 0)
		if err != nil {
			t.Fatal(err)
		}
		ratios[i] = obs.Asymmetry
	}
	sort.Float64s(ratios)
	if median := ratios[len(ratios)/2]; median < 0.2 || median > 5 {
		t.Errorf("unshaped link asymmetry: median %.3f of %.3f, want ~1", median, ratios)
	}
}

func TestProbeAsymmetryNoLink(t *testing.T) {
	if _, err := ProbeAsymmetry(context.Background(), nil, 0); err == nil {
		t.Error("probing a nil link should fail")
	}
}

// silentLink hands out connections whose peer never reads or writes — the
// wedged-client scenario the probe's cancellation watchdog exists for.
type silentLink struct{ peers []net.Conn }

func (l *silentLink) OpenSession(context.Context) (*wire.Conn, error) {
	a, b := net.Pipe()
	l.peers = append(l.peers, b)
	return wire.NewConn(a), nil
}

func TestProbeAsymmetryCancellation(t *testing.T) {
	link := &silentLink{}
	defer func() {
		for _, p := range link.peers {
			_ = p.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := ProbeAsymmetry(ctx, link, 0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("probe against a wedged peer should fail once cancelled")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled probe did not return")
	}
}
