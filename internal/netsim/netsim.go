// Package netsim provides the network substrate between the server and the
// client-site UDF runtime. The paper's experiments ran over a 28.8 Kbit modem
// and over an Ethernet link emulating an asymmetric (N=100) connection; we
// substitute a software link with configurable per-direction bandwidth and
// latency.
//
// The link is a Pair: an in-process duplex connection (built on net.Pipe)
// whose two directions are independently shaped by bandwidth and latency,
// with faults injectable on the downlink. This is the "real" transport used
// by the execution operators and the integration tests.
//
// The deterministic discrete-event simulator used to regenerate the paper's
// figures lives in package sim, not here.
package netsim

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// LinkConfig describes an asymmetric client↔server connection.
//
// Directions are named from the client's point of view, as in the paper:
// the downlink carries data from the server to the client, the uplink carries
// data from the client back to the server.
type LinkConfig struct {
	// DownBandwidth is the server→client bandwidth in bytes per second.
	// Zero means unlimited.
	DownBandwidth float64
	// UpBandwidth is the client→server bandwidth in bytes per second.
	// Zero means unlimited.
	UpBandwidth float64
	// Latency is the one-way propagation delay applied to each direction.
	Latency time.Duration
	// TimeScale divides all computed delays; a scale of 1000 makes a link
	// behave 1000x faster than its nominal bandwidth, which keeps integration
	// tests fast while preserving the ratio between directions. Zero or
	// negative means 1 (real time).
	TimeScale float64
	// Fault optionally injects deterministic failures into the connection;
	// the zero value injects nothing. See FaultConfig.
	Fault FaultConfig
}

// scale returns the effective time divisor.
func (c LinkConfig) scale() float64 {
	if c.TimeScale <= 0 {
		return 1
	}
	return c.TimeScale
}

// Modem28_8 returns the paper's 28.8 Kbit/s symmetric phone connection.
func Modem28_8() LinkConfig {
	return LinkConfig{
		DownBandwidth: 28.8 * 1000 / 8,
		UpBandwidth:   28.8 * 1000 / 8,
		Latency:       100 * time.Millisecond,
	}
}

// AsymmetricCable returns the paper's multiplexed-cable scenario: a fast
// downlink whose bandwidth is n times the 28.8 Kbit/s uplink.
func AsymmetricCable(n float64) LinkConfig {
	up := 28.8 * 1000 / 8
	return LinkConfig{
		DownBandwidth: up * n,
		UpBandwidth:   up,
		Latency:       50 * time.Millisecond,
	}
}

// Pair is an in-process, shaped, duplex connection between a server endpoint
// and a client endpoint.
type Pair struct {
	// ServerSide is the connection the server reads/writes.
	ServerSide io.ReadWriteCloser
	// ClientSide is the connection the client reads/writes.
	ClientSide io.ReadWriteCloser
}

// NewPair builds a shaped duplex pair with the given link configuration.
func NewPair(cfg LinkConfig) *Pair {
	p := &Pair{}
	serverRaw, clientRaw := net.Pipe()
	// Faults observe the downlink (server-side writes); a drop severs both
	// raw pipe ends so the peer sees the failure too.
	var fault *faultState
	if cfg.Fault.active() {
		fault = &faultState{
			cfg:   cfg.Fault,
			scale: cfg.scale(),
			closeAll: func() {
				serverRaw.Close()
				clientRaw.Close()
			},
		}
	}
	// Writes from the server side travel on the downlink; writes from the
	// client side travel on the uplink.
	p.ServerSide = &shapedConn{
		Conn:    serverRaw,
		writeBW: cfg.DownBandwidth,
		latency: cfg.Latency,
		scale:   cfg.scale(),
		fault:   fault,
	}
	p.ClientSide = &shapedConn{
		Conn:    clientRaw,
		writeBW: cfg.UpBandwidth,
		latency: cfg.Latency,
		scale:   cfg.scale(),
	}
	return p
}

// Close closes both sides.
func (p *Pair) Close() error {
	err1 := p.ServerSide.Close()
	err2 := p.ClientSide.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// shapedConn shapes the write path of a net.Conn with a token-bucket-free,
// pacing-based model: each write is delayed by size/bandwidth (scaled), and
// each write additionally pays the one-way latency the first time data flows
// after an idle period. Reads are unshaped (the peer's writes already paid).
type shapedConn struct {
	net.Conn
	writeBW float64
	latency time.Duration
	scale   float64
	fault   *faultState

	mu       sync.Mutex
	lastSend time.Time
}

// Write shapes and forwards the payload, applying any injected faults.
func (c *shapedConn) Write(p []byte) (int, error) {
	if c.fault == nil {
		c.delay(len(p))
		return c.Conn.Write(p)
	}
	out, stall, faultErr := c.fault.admit(p)
	if stall > 0 {
		time.Sleep(stall)
	}
	var n int
	var err error
	if len(out) > 0 {
		c.delay(len(out))
		n, err = c.Conn.Write(out)
	}
	if faultErr != nil {
		c.fault.drop()
		return n, faultErr
	}
	if err != nil {
		return n, err
	}
	// Report the full payload as written: a corrupted copy stands in for p.
	return len(p), nil
}

func (c *shapedConn) delay(n int) {
	var d time.Duration
	if c.writeBW > 0 {
		d = time.Duration(float64(n) / c.writeBW * float64(time.Second))
	}
	c.mu.Lock()
	idle := time.Since(c.lastSend) > 10*c.latency
	c.lastSend = time.Now()
	c.mu.Unlock()
	if idle {
		d += c.latency
	}
	if c.scale > 1 {
		d = time.Duration(float64(d) / c.scale)
	}
	if d > 0 {
		time.Sleep(d)
	}
}

// Validate checks a link configuration for nonsensical values.
func (c LinkConfig) Validate() error {
	if c.DownBandwidth < 0 || c.UpBandwidth < 0 {
		return fmt.Errorf("netsim: negative bandwidth")
	}
	if c.Latency < 0 {
		return fmt.Errorf("netsim: negative latency")
	}
	if c.TimeScale < 0 {
		return fmt.Errorf("netsim: negative time scale")
	}
	if err := c.Fault.validate(); err != nil {
		return err
	}
	return nil
}
