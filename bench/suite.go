package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

type suiteOptions struct {
	seed     int64
	seconds  float64
	smoke    bool
	repeat   int
	dataRoot string
	traceOut string
}

// runSuite runs every workload, each run in a fresh child process so that no
// workload inherits another's heap or GC pacing: the end-to-end metrics
// o.repeat times, then the per-layer metrics once. With o.repeat > 1 it
// reports each end-to-end metric's spread between the repetitions. It returns
// the process's exit code.
func runSuite(ctx context.Context, o suiteOptions) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	// The children's directories live under one of the suite's own, so they
	// go away with it even when a child is killed.
	dataRoot := filepath.Join(o.dataRoot, "suite-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dataRoot)

	child := func(w *workload, trace int) (*report, error) {
		args := []string{
			"--workload", w.name, "--seed", strconv.FormatInt(o.seed, 10),
			"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace),
			"--data-dir", dataRoot,
		}
		if o.smoke {
			args = append(args, "--smoke")
		}
		if trace == 1 && o.traceOut != "" {
			args = append(args, "--trace-out", o.traceOut+"."+w.name)
		}
		cmd := exec.CommandContext(ctx, self, args...)
		// An interrupted suite asks its child to stop, so that the child takes
		// its server and directories down itself, and kills it only if it
		// does not.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 10 * time.Second
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		rep := &report{}
		if err := json.Unmarshal(lines[len(lines)-1], rep); err != nil {
			return nil, fmt.Errorf("%s: last line of output: %w", w.name, err)
		}
		return rep, nil
	}

	ok := true
	runs := make(map[string][]*report)
	for n := 0; n < o.repeat; n++ {
		for _, w := range workloads {
			rep, err := child(w, 0)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			ok = ok && rep.Correct
			runs[w.name] = append(runs[w.name], rep)
			printMetrics(fmt.Sprintf("%s (run %d of %d)", w.name, n+1, o.repeat), rep)
		}
	}
	for _, w := range workloads {
		rep, err := child(w, 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		ok = ok && rep.Correct
		printMetrics(w.name+" (traced)", rep)
	}
	if o.repeat > 1 && !printSpread(runs) {
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}

// printSpread prints, per workload and end-to-end metric, the quartiles and
// median over the repetitions, (q3 − q1) ÷ median — the spread the driver
// holds against the metric's bound — and (max − min) ÷ median, and reports
// whether every spread stayed within its bound. setup_s is listed but not
// held: its spread is allowed to exceed.
func printSpread(runs map[string][]*report) bool {
	within := true
	fmt.Printf("\n%-20s %-20s %12s %12s %12s %9s %9s %6s\n", "workload", "metric", "q1", "median", "q3", "iqr/med", "range/med", "bound")
	for _, w := range workloads {
		for _, d := range endToEnd {
			var vs []float64
			for _, rep := range runs[w.name] {
				vs = append(vs, rep.Metrics[d.name].Value)
			}
			vs = sorted(vs)
			q1, med, q3 := quartiles(vs)
			mark := ""
			if (q3-q1)/med > d.bound && d.name != "setup_s" {
				within = false
				mark = "  EXCEEDED"
			}
			fmt.Printf("%-20s %-20s %12.4f %12.4f %12.4f %9.4f %9.4f %6.2f%s\n",
				w.name, d.name, q1, med, q3, (q3-q1)/med, (vs[len(vs)-1]-vs[0])/med, d.bound, mark)
		}
	}
	return within
}
