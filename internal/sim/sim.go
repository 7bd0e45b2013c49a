// Package sim is a deterministic discrete-event simulator of the client-site
// UDF execution pipeline: server sender → downlink → client UDF processor →
// uplink → server receiver. It substitutes for the paper's physical testbed
// (a 28.8 Kbit modem and an Ethernet link emulating an asymmetric N=100
// connection) so that the evaluation figures can be regenerated quickly and
// reproducibly, without wall-clock waits.
//
// The model is the one the paper uses for its analysis: each link transfers
// one message at a time at its bandwidth, each direction adds a fixed
// propagation latency, the client processes one tuple at a time, and the
// semi-join's window allows at most W (the pipeline concurrency factor)
// argument tuples to be in flight between the server and the client.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Strategy identifies the execution strategy being simulated.
type Strategy uint8

// Simulated strategies.
const (
	// StrategyNaive is tuple-at-a-time execution: one message in flight.
	StrategyNaive Strategy = iota
	// StrategySemiJoin ships duplicate-free argument columns with a bounded
	// number of messages in flight.
	StrategySemiJoin
	// StrategyClientJoin ships full records and receives filtered, projected
	// records; sender and receiver are not coordinated.
	StrategyClientJoin
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyNaive:
		return "naive"
	case StrategySemiJoin:
		return "semi-join"
	case StrategyClientJoin:
		return "client-site-join"
	default:
		return "unknown"
	}
}

// Network describes the simulated client↔server connection.
type Network struct {
	// DownBandwidth is the server→client bandwidth in bytes per second.
	DownBandwidth float64
	// UpBandwidth is the client→server bandwidth in bytes per second.
	UpBandwidth float64
	// Latency is the one-way propagation delay.
	Latency time.Duration
}

// Modem28_8 is the paper's 28.8 Kbit/s phone connection (3.6 KB/s each way).
func Modem28_8() Network {
	return Network{DownBandwidth: 3600, UpBandwidth: 3600, Latency: 700 * time.Millisecond}
}

// Symmetric10Mbit is the paper's 10 Mbit Ethernet connection.
func Symmetric10Mbit() Network {
	return Network{DownBandwidth: 1.25e6, UpBandwidth: 1.25e6, Latency: 5 * time.Millisecond}
}

// Asymmetric returns a network whose downlink is n times faster than its
// uplink (the paper's multiplexed-cable scenario, N=100 in Figure 9).
func Asymmetric(upBandwidth float64, n float64, latency time.Duration) Network {
	return Network{DownBandwidth: upBandwidth * n, UpBandwidth: upBandwidth, Latency: latency}
}

// Asymmetry returns N, the downlink/uplink bandwidth ratio.
func (n Network) Asymmetry() float64 {
	if n.UpBandwidth <= 0 || n.DownBandwidth <= 0 {
		return 1
	}
	return n.DownBandwidth / n.UpBandwidth
}

// Validate checks the network parameters.
func (n Network) Validate() error {
	if n.DownBandwidth <= 0 || n.UpBandwidth <= 0 {
		return fmt.Errorf("sim: bandwidths must be positive")
	}
	if n.Latency < 0 {
		return fmt.Errorf("sim: negative latency")
	}
	return nil
}

// Workload describes the relation and the UDF the strategies are applied to,
// using the paper's parameters.
type Workload struct {
	// Rows is the cardinality of the input relation.
	Rows int
	// ArgBytes is the size of the argument columns of one record.
	ArgBytes int
	// NonArgBytes is the size of the remaining columns of one record
	// (I = ArgBytes + NonArgBytes, A = ArgBytes / I).
	NonArgBytes int
	// ResultBytes is R, the size of one UDF result.
	ResultBytes int
	// DistinctFraction is D, the fraction of rows with distinct argument
	// values.
	DistinctFraction float64
	// Selectivity is S, the selectivity of the pushable predicate applied at
	// the client by the client-site join (1 when there is none).
	Selectivity float64
	// ReturnArguments makes the client-site join ship the argument columns
	// back too (i.e. no pushable projection). The paper's experiments set
	// P·(I+R) = I·(1−A)+R, i.e. arguments are projected away; that is the
	// default (false).
	ReturnArguments bool
	// ClientTimePerTuple is the client's processing time per UDF invocation.
	ClientTimePerTuple time.Duration
	// PerMessageOverhead is the fixed framing overhead per message in bytes
	// (frame header plus batch header).
	PerMessageOverhead int
}

// InputSize returns I, the full record size.
func (w Workload) InputSize() int { return w.ArgBytes + w.NonArgBytes }

// Validate checks the workload parameters.
func (w Workload) Validate() error {
	if w.Rows < 0 {
		return fmt.Errorf("sim: negative row count")
	}
	if w.ArgBytes < 0 || w.NonArgBytes < 0 || w.ResultBytes < 0 || w.PerMessageOverhead < 0 {
		return fmt.Errorf("sim: negative sizes")
	}
	if w.ArgBytes+w.NonArgBytes == 0 {
		return fmt.Errorf("sim: record size must be positive")
	}
	if w.DistinctFraction <= 0 || w.DistinctFraction > 1 {
		return fmt.Errorf("sim: distinct fraction %g outside (0,1]", w.DistinctFraction)
	}
	if w.Selectivity < 0 || w.Selectivity > 1 {
		return fmt.Errorf("sim: selectivity %g outside [0,1]", w.Selectivity)
	}
	if w.ClientTimePerTuple < 0 {
		return fmt.Errorf("sim: negative client time")
	}
	return nil
}

// Config is one simulation run.
type Config struct {
	Network  Network
	Workload Workload
	Strategy Strategy
	// ConcurrencyFactor is the semi-join's pipeline concurrency factor (the
	// bounded-buffer capacity). The naive strategy always uses 1; the
	// client-site join is unbounded. Zero means 1.
	ConcurrencyFactor int
}

// Result summarises a simulation run.
type Result struct {
	// Duration is the simulated wall-clock time from first send to last
	// result arrival.
	Duration time.Duration
	// BytesDown and BytesUp are the payload bytes moved on each link.
	BytesDown int64
	BytesUp   int64
	// MessagesDown and MessagesUp count the messages on each link.
	MessagesDown int
	MessagesUp   int
	// Invocations is the number of UDF invocations at the client.
	Invocations int
	// DownBusy and UpBusy are the total transfer (busy) times of each link;
	// comparing them against Duration shows which link was the bottleneck.
	DownBusy time.Duration
	UpBusy   time.Duration
}

// message is one unit travelling through the pipeline.
type message struct {
	downBytes int
	upBytes   int
	procTime  time.Duration
}

// Run simulates one configuration and returns the timing and traffic summary.
func Run(cfg Config) (Result, error) {
	if err := cfg.Network.Validate(); err != nil {
		return Result{}, err
	}
	if err := cfg.Workload.Validate(); err != nil {
		return Result{}, err
	}
	msgs, window := buildMessages(cfg)
	return simulate(cfg.Network, msgs, window), nil
}

// buildMessages expands the workload into the per-message downlink/uplink
// payloads for the configured strategy, and returns the pipeline window.
func buildMessages(cfg Config) ([]message, int) {
	w := cfg.Workload
	window := cfg.ConcurrencyFactor
	if window < 1 {
		window = 1
	}
	var msgs []message
	switch cfg.Strategy {
	case StrategyNaive, StrategySemiJoin:
		if cfg.Strategy == StrategyNaive {
			window = 1
		}
		// Distinct argument tuples only; results come back bare.
		distinct := int(math.Round(float64(w.Rows) * w.DistinctFraction))
		if w.Rows > 0 && distinct == 0 {
			distinct = 1
		}
		for i := 0; i < distinct; i++ {
			msgs = append(msgs, message{
				downBytes: w.ArgBytes + w.PerMessageOverhead,
				upBytes:   w.ResultBytes + w.PerMessageOverhead,
				procTime:  w.ClientTimePerTuple,
			})
		}
	case StrategyClientJoin:
		// Full records down; filtered, projected records up. The sender and
		// receiver need no coordination, so the window is effectively
		// unbounded.
		window = w.Rows + 1
		returned := w.NonArgBytes + w.ResultBytes
		if w.ReturnArguments {
			returned += w.ArgBytes
		}
		// Spread the selectivity deterministically across the stream so the
		// uplink load is even (matches the random placement in the paper's
		// workload without needing a RNG).
		kept := 0
		for i := 0; i < w.Rows; i++ {
			up := 0
			wantKept := int(math.Round(float64(i+1) * w.Selectivity))
			if wantKept > kept {
				up = returned + w.PerMessageOverhead
				kept = wantKept
			}
			msgs = append(msgs, message{
				downBytes: w.InputSize() + w.PerMessageOverhead,
				upBytes:   up,
				procTime:  w.ClientTimePerTuple,
			})
		}
	}
	return msgs, window
}

// simulate runs the discrete-event pipeline model.
//
// Resources: the downlink, the client processor and the uplink each serve one
// message at a time in FIFO order. Each direction adds the propagation
// latency after its transfer completes. Message i may not start its downlink
// transfer until message i-window has fully arrived back at the server (the
// bounded buffer of the semi-join architecture).
func simulate(net Network, msgs []message, window int) Result {
	var res Result
	if len(msgs) == 0 {
		return res
	}
	n := len(msgs)
	resultArrive := make([]time.Duration, n)
	var downFree, clientFree, upFree time.Duration
	var finish time.Duration

	for i, m := range msgs {
		downStart := downFree
		if window > 0 && i >= window {
			if wait := resultArrive[i-window]; wait > downStart {
				downStart = wait
			}
		}
		downDur := transferTime(m.downBytes, net.DownBandwidth)
		downEnd := downStart + downDur
		downFree = downEnd
		res.DownBusy += downDur

		arriveClient := downEnd + net.Latency
		clientStart := maxDur(arriveClient, clientFree)
		clientEnd := clientStart + m.procTime
		clientFree = clientEnd

		var arrive time.Duration
		if m.upBytes > 0 {
			upStart := maxDur(clientEnd, upFree)
			upDur := transferTime(m.upBytes, net.UpBandwidth)
			upEnd := upStart + upDur
			upFree = upEnd
			res.UpBusy += upDur
			arrive = upEnd + net.Latency
			res.MessagesUp++
			res.BytesUp += int64(m.upBytes)
		} else {
			// Nothing to return (filtered out at the client); the "result"
			// is implicitly complete when the client finishes processing.
			arrive = clientEnd
		}
		resultArrive[i] = arrive
		if arrive > finish {
			finish = arrive
		}
		res.MessagesDown++
		res.BytesDown += int64(m.downBytes)
		res.Invocations++
	}
	res.Duration = finish
	return res
}

func transferTime(bytes int, bandwidth float64) time.Duration {
	if bytes <= 0 || bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / bandwidth * float64(time.Second))
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// Compare runs both the semi-join and the client-site join on the same
// workload and returns their results plus the relative time (CSJ/SJ) that the
// paper plots in Figures 8–10.
func Compare(net Network, w Workload, concurrency int) (sj, cj Result, relative float64, err error) {
	sj, err = Run(Config{Network: net, Workload: w, Strategy: StrategySemiJoin, ConcurrencyFactor: concurrency})
	if err != nil {
		return sj, cj, 0, err
	}
	cj, err = Run(Config{Network: net, Workload: w, Strategy: StrategyClientJoin})
	if err != nil {
		return sj, cj, 0, err
	}
	if sj.Duration <= 0 {
		return sj, cj, math.Inf(1), nil
	}
	relative = float64(cj.Duration) / float64(sj.Duration)
	return sj, cj, relative, nil
}
