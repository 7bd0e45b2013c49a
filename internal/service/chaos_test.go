//go:build chaos

package service

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"csq/internal/storage"
	"csq/internal/wire"
)

// The service chaos suite runs the overload acceptance scenarios under
// `go test -tags chaos`: a seeded storm of 64 concurrent requesters with
// mixed deadlines against a deliberately undersized server, a drain in the
// middle of that storm repeated across restart cycles, and a kill -9 of a
// process holding retained spill runs followed by the startup sweep. Every
// scenario asserts answered queries stay byte-identical to an uncontended
// reference, failures stay cleanly typed, and goroutine counts return to
// baseline.

const (
	stormRequesters = 64
	stormPerClient  = 3
)

// stormDeadline picks the deadline for requester i, attempt j: every third
// submission runs on a 50ms fuse, the rest get a comfortable 5s. Deterministic
// by ordinal, so the mix is identical on every run and under -count=2.
func stormDeadline(i, j int) int64 {
	if (i+j)%3 == 0 {
		return 50
	}
	return 5000
}

// stormOutcome tallies one requester's submissions.
type stormOutcome struct {
	completed int64
	shed      int64
	deadline  int64
	transport int64
}

// classifyStormErr buckets an error from a storm submission. Only three
// shapes are legitimate: a typed reject (shed), a deadline/cancel burn on an
// admitted short-fuse query, or — when drain is allowed — a transport error
// from the server closing the connection after the flush. Anything else is a
// test failure.
func classifyStormErr(err error, out *stormOutcome, drainOK bool) error {
	var re *wire.RejectError
	if errors.As(err, &re) {
		if wire.Classify(err) != wire.ClassRetryable {
			return fmt.Errorf("typed reject not classified retryable: %v", err)
		}
		if re.Reason == wire.RejectOverloaded && re.RetryAfter <= 0 {
			return fmt.Errorf("overload reject carries no retry-after hint: %v", err)
		}
		atomic.AddInt64(&out.shed, 1)
		return nil
	}
	msg := err.Error()
	if strings.Contains(msg, "context deadline exceeded") || strings.Contains(msg, "context canceled") {
		atomic.AddInt64(&out.deadline, 1)
		return nil
	}
	if drainOK {
		if wire.Classify(err) != wire.ClassFatal ||
			strings.Contains(msg, "closed") || strings.Contains(msg, "EOF") ||
			strings.Contains(msg, "connection reset") || strings.Contains(msg, "broken pipe") {
			atomic.AddInt64(&out.transport, 1)
			return nil
		}
	}
	return fmt.Errorf("untyped failure: %v", err)
}

// stormQuery is the storm's workload: a 16k×16k self-join folded into one
// integer-aggregate row. The cost is all server-side (build + probe while
// holding the execution slot), the answer is one exactly-comparable row —
// so the storm saturates admission rather than the clients' decoders, and
// byte-identity cannot flake on float summation order.
const stormQuery = "heavy(count(*) as n, sum(K) as ksum) :- nums(K, _), nums(K, _)."

// TestChaosOverloadStorm hammers a one-slot, two-seat server with 64
// concurrent requesters submitting 192 queries on mixed deadlines. Every
// answered query must be byte-identical to the uncontended reference, every
// failure must be a typed retryable reject or a deadline burn, the p99
// admission wait must stay within the configured queue budget, and nothing
// may leak.
func TestChaosOverloadStorm(t *testing.T) {
	runtime.Gosched()
	baseline := runtime.NumGoroutine()

	cat := miniCatalog(t, 16384)
	svc := New(cat, Config{MaxConcurrent: 1, MaxQueued: 2, MaxQueueWait: 250 * time.Millisecond})
	srv := NewServer(svc)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	addr := ln.Addr().String()

	// Uncontended reference run.
	ref, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	rq, err := ref.SubmitText(stormQuery, wire.QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	wantRows, err := rq.Collect()
	if err != nil {
		t.Fatal(err)
	}
	_ = ref.Close()
	if len(wantRows) != 1 {
		t.Fatalf("reference run returned %d rows, want the single aggregate row", len(wantRows))
	}
	want := encodeRows(t, wantRows)

	var out stormOutcome
	errCh := make(chan error, stormRequesters)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < stormRequesters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := Dial(addr)
			if err != nil {
				errCh <- fmt.Errorf("requester %d dial: %w", i, err)
				return
			}
			defer r.Close()
			<-start
			for j := 0; j < stormPerClient; j++ {
				q, err := r.SubmitText(stormQuery, wire.QuerySpec{TimeoutMillis: stormDeadline(i, j)})
				if err != nil {
					if cerr := classifyStormErr(err, &out, false); cerr != nil {
						errCh <- fmt.Errorf("requester %d submit: %w", i, cerr)
						return
					}
					continue
				}
				rows, err := q.Collect()
				if err != nil {
					if cerr := classifyStormErr(err, &out, false); cerr != nil {
						errCh <- fmt.Errorf("requester %d: %w", i, cerr)
						return
					}
					continue
				}
				if !bytes.Equal(encodeRows(t, rows), want) {
					errCh <- fmt.Errorf("requester %d query %d: answered rows differ from reference", i, j)
					return
				}
				atomic.AddInt64(&out.completed, 1)
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	if out.completed == 0 {
		t.Fatal("storm completed zero queries")
	}
	st := svc.Stats()
	if out.shed == 0 {
		t.Fatalf("a 64-way storm against an undersized server shed nothing — admission control is not engaging (outcome %+v, admission %+v)", out, st.Admission)
	}
	total := out.completed + out.shed + out.deadline
	if total != stormRequesters*stormPerClient {
		t.Fatalf("accounted for %d outcomes, want %d", total, stormRequesters*stormPerClient)
	}
	if st.Admission.ShedOverload+st.Admission.ShedDraining == 0 {
		t.Fatalf("admission stats show no sheds: %+v", st.Admission)
	}
	// MaxQueueWait bounds every admission wait at 250ms; the power-of-two
	// histogram rounds the p99 up to at most the next bucket edge.
	if st.Admission.WaitP99 > 512*time.Millisecond {
		t.Fatalf("admission WaitP99 = %v, want <= 512ms under a 250ms queue budget", st.Admission.WaitP99)
	}
	t.Logf("storm: %d completed, %d shed, %d deadline-burned; admission %+v",
		out.completed, out.shed, out.deadline, st.Admission)

	srv.Close()
	awaitLeakFree(t, baseline)
}

// TestChaosDrainRestartCycles runs three start→storm→drain cycles. Each cycle
// drains the server in the middle of a 16-requester storm: answered queries
// stay byte-identical, failures stay typed (transport errors allowed once the
// drain starts tearing connections down), Shutdown completes within its
// budget, and the goroutine count returns to the pre-cycle baseline every
// time.
func TestChaosDrainRestartCycles(t *testing.T) {
	runtime.Gosched()
	baseline := runtime.NumGoroutine()
	cat := miniCatalog(t, 512)

	// Reference rows computed once, locally, without a server.
	refSvc := New(cat, Config{MaxConcurrent: 1})
	refRes, err := refSvc.Execute(context.Background(), Request{Tree: numsTree(t, cat)})
	if err != nil {
		t.Fatal(err)
	}
	refSvc.Close()
	want := encodeRows(t, refRes.Rows)

	for cycle := 0; cycle < 3; cycle++ {
		svc := New(cat, Config{MaxConcurrent: 2, MaxQueued: 4, MaxQueueWait: 250 * time.Millisecond})
		srv := NewServer(svc)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		serveDone := make(chan struct{})
		go func() { _ = srv.Serve(ln); close(serveDone) }()
		addr := ln.Addr().String()

		var out stormOutcome
		errCh := make(chan error, 16)
		var wg, dialed sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			dialed.Add(1)
			go func(i int) {
				defer wg.Done()
				r, err := Dial(addr)
				dialed.Done()
				if err != nil {
					// The drain starts only once every requester has dialed,
					// so a dial should succeed: the listener is up.
					errCh <- fmt.Errorf("requester %d dial: %w", i, err)
					return
				}
				defer r.Close()
				for j := 0; j < 6; j++ {
					q, err := r.Submit(wire.QuerySpec{Table: "nums", TimeoutMillis: 5000})
					if err != nil {
						if cerr := classifyStormErr(err, &out, true); cerr != nil {
							errCh <- fmt.Errorf("requester %d submit: %w", i, cerr)
						}
						return // connection is draining or gone; stop this client
					}
					rows, err := q.Collect()
					if err != nil {
						if cerr := classifyStormErr(err, &out, true); cerr != nil {
							errCh <- fmt.Errorf("requester %d: %w", i, cerr)
							return
						}
						continue
					}
					if !bytes.Equal(encodeRows(t, rows), want) {
						errCh <- fmt.Errorf("requester %d: rows answered during drain cycle differ from reference", i)
						return
					}
					atomic.AddInt64(&out.completed, 1)
				}
			}(i)
		}

		// Let every requester connect and the storm build, then drain
		// mid-flight.
		dialed.Wait()
		time.Sleep(30 * time.Millisecond)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatalf("cycle %d: Shutdown returned %v", cycle, err)
		}
		cancel()
		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
		if t.Failed() {
			t.FailNow()
		}
		select {
		case <-serveDone:
		case <-time.After(5 * time.Second):
			t.Fatalf("cycle %d: Serve did not return after Shutdown", cycle)
		}
		if out.completed == 0 {
			t.Fatalf("cycle %d: no query completed before the drain", cycle)
		}
		t.Logf("cycle %d: %d completed, %d shed, %d canceled, %d transport",
			cycle, out.completed, out.shed, out.deadline, out.transport)
		awaitLeakFree(t, baseline)
	}
}

// spillChildEnv carries the spill root to the re-executed child process.
const spillChildEnv = "CSQ_CHAOS_SPILL_CHILD_ROOT"

// TestChaosSpillChild is the re-exec helper for the kill-and-restart
// scenario, not a test in its own right: it creates a spill namespace owned
// by its own pid, flushes a retained run into it, reports readiness on
// stdout, and blocks until killed.
func TestChaosSpillChild(t *testing.T) {
	root := os.Getenv(spillChildEnv)
	if root == "" {
		t.Skip("re-exec helper; run via TestChaosKillRestartSpillReclaim")
	}
	dir, err := storage.CreateSpillNamespace(root, 7)
	if err != nil {
		t.Fatal(err)
	}
	w, err := storage.NewRetainedRunWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(bytes.Repeat([]byte("spill"), 2048)); err != nil {
		t.Fatal(err)
	}
	// Finish flushes the run to disk and keeps it linked — exactly the state
	// a crash mid-query leaves behind.
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	fmt.Println("SPILL_CHILD_READY")
	os.Stdout.Sync()
	select {} // hold the namespace until kill -9
}

// TestChaosKillRestartSpillReclaim re-executes the test binary as a child
// that parks retained spill runs in its own namespace, kills it with SIGKILL
// mid-hold, and checks the startup sweep — the same one udfserverd runs —
// reclaims the orphaned directory, byte count and all, while leaving live
// namespaces alone.
func TestChaosKillRestartSpillReclaim(t *testing.T) {
	root := t.TempDir()

	cmd := osexec.Command(os.Args[0], "-test.run=^TestChaosSpillChild$", "-test.v")
	cmd.Env = append(os.Environ(), spillChildEnv+"="+root)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	ready := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if strings.Contains(sc.Text(), "SPILL_CHILD_READY") {
				ready <- nil
				return
			}
		}
		ready <- fmt.Errorf("child exited before signalling readiness: %v", sc.Err())
	}()
	select {
	case err := <-ready:
		if err != nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		t.Fatal("child never signalled readiness")
	}

	// A namespace owned by this (live) process must survive the sweep.
	liveDir, err := storage.CreateSpillNamespace(root, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Crash: no cleanup path runs, the namespace is orphaned on disk.
	childPid := cmd.Process.Pid
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = cmd.Wait()

	removed, reclaimed, err := storage.SweepSpillDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 {
		t.Fatalf("sweep removed %v, want exactly the dead child's namespace", removed)
	}
	if !strings.Contains(removed[0], fmt.Sprintf("-q%d-", childPid)) {
		t.Fatalf("sweep removed %q, which does not belong to dead pid %d", removed[0], childPid)
	}
	if reclaimed < 5*2048 {
		t.Fatalf("sweep reclaimed %d bytes, want at least the child's %d-byte run", reclaimed, 5*2048)
	}
	if _, err := os.Stat(liveDir); err != nil {
		t.Fatalf("sweep touched the live namespace: %v", err)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || filepath.Join(root, entries[0].Name()) != liveDir {
		t.Fatalf("spill root holds %d entries after sweep, want only the live namespace", len(entries))
	}
}
