package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"congesthard/internal/serve"
)

// TestRunCertifyCancelledContext: an already-cancelled context interrupts
// the sweep immediately, printing the partial report's "interrupted: N of
// M" line and returning an error (which main turns into exit 1) — the
// same contract as -timeout.
func TestRunCertifyCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	err := runCertify(ctx, &buf, "mds", "greedy", 8, "", 0, 0, false)
	if err == nil {
		t.Fatal("cancelled certify returned nil error")
	}
	out := buf.String()
	if !strings.Contains(out, "interrupted: 0 of 8 pairs certified") {
		t.Fatalf("missing interrupted line in output:\n%s", out)
	}
}

// TestRunCertifySignalInterrupt wires runCertify behind
// signal.NotifyContext exactly as main does and delivers a real SIGINT to
// the test process mid-sweep: the run must stop with a partial report
// instead of killing the process or hanging. The sweep runs traced, and
// the writer sends the signal on the first round line of the second pair,
// once the first is certified, then holds that round until the signal has
// cancelled the context: the signal lands mid-sweep by construction.
func TestRunCertifySignalInterrupt(t *testing.T) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w := &interruptingWriter{ctx: ctx, firstPair: -1}
	start := time.Now()
	err := runCertify(ctx, w, "mds", "collect-retry", 4096, "", 0, 0, true)
	if err == nil {
		t.Fatalf("signal-interrupted certify returned nil after %v; output:\n%s", time.Since(start), w.buf.String())
	}
	out := w.buf.String()
	if !strings.Contains(out, "interrupted:") || !strings.Contains(out, "of 256 pairs certified") {
		t.Fatalf("missing partial-report interrupted line:\n%s", out)
	}
}

// interruptingWriter collects runCertify's output. On the first trace line
// of a pair other than the first traced one it sends SIGINT to the process
// and blocks until ctx is done (or ten seconds pass), so the sweep cannot
// run ahead of the signal.
type interruptingWriter struct {
	buf       bytes.Buffer
	ctx       context.Context
	firstPair int
	sent      bool
}

func (w *interruptingWriter) Write(p []byte) (int, error) {
	var pair int
	if _, err := fmt.Sscanf(string(p), "trace pair=%d", &pair); err == nil && !w.sent {
		if w.firstPair < 0 {
			w.firstPair = pair
		} else if pair != w.firstPair {
			w.sent = true
			syscall.Kill(os.Getpid(), syscall.SIGINT)
			select {
			case <-w.ctx.Done():
			case <-time.After(10 * time.Second):
			}
		}
	}
	return w.buf.Write(p)
}

// TestRunCertifyTrace: -trace emits one greppable line per simulated
// round, pairs appear in canonical order, and the summed rounds
// match the report the same run prints.
func TestRunCertifyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := runCertify(context.Background(), &buf, "mds", "collect", 4, "", 0, 0, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var traceLines int
	lastPair := -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "trace pair=") {
			continue
		}
		traceLines++
		for _, field := range []string{"x=", "y=", "round=", "sent=", "delivered=", "dropped=", "active="} {
			if !strings.Contains(line, " "+field) {
				t.Fatalf("trace line missing %q: %q", field, line)
			}
		}
		var pair int
		if _, err := fmt.Sscanf(line, "trace pair=%d", &pair); err != nil {
			t.Fatalf("unparseable trace line %q: %v", line, err)
		}
		if pair < lastPair {
			t.Fatalf("trace pair %d after pair %d: -trace must run serially", pair, lastPair)
		}
		lastPair = pair
	}
	if traceLines == 0 {
		t.Fatalf("no trace lines in output:\n%s", out)
	}
	if !strings.Contains(out, "certify family=mds") {
		t.Fatalf("report missing after trace lines:\n%s", out)
	}
}

// TestRunCertifyListMatchesRegistry: -certify list prints exactly the
// shared registry's pairings, keeping the CLI and the job server wired to
// the same set.
func TestRunCertifyListMatchesRegistry(t *testing.T) {
	var buf bytes.Buffer
	if err := runCertify(context.Background(), &buf, "list", "", 0, "", 0, 0, false); err != nil {
		t.Fatal(err)
	}
	got := strings.Fields(strings.TrimSpace(buf.String()))
	reg := serve.DefaultRegistry().List()
	if len(got) != len(reg) {
		t.Fatalf("list printed %d pairings, registry has %d:\n%s", len(got), len(reg), buf.String())
	}
	for i, p := range reg {
		if got[i] != p.Key() {
			t.Fatalf("list line %d = %q, want %q", i, got[i], p.Key())
		}
	}
}

// TestRunCertifyTheoremLine: the Theorem 1.1 line states the inequality
// only for an algorithm that decided every pair. Greedy misdecides 115 of
// mds's 256 pairs, so its line says the bound does not apply; collect
// decides all of them, so its line still ends in ": true".
func TestRunCertifyTheoremLine(t *testing.T) {
	for _, tc := range []struct{ alg, suffix string }{
		{"greedy", "CC(f) = 4: does not apply: 115 pairs misdecided"},
		{"collect", ">= CC(f) = 4: true"},
	} {
		var buf bytes.Buffer
		if err := runCertify(context.Background(), &buf, "mds", tc.alg, 0, "", 0, 0, false); err != nil {
			t.Fatal(err)
		}
		var line string
		for _, l := range strings.Split(buf.String(), "\n") {
			if strings.Contains(l, "Theorem 1.1 budget") {
				line = l
			}
		}
		if !strings.HasSuffix(line, tc.suffix) {
			t.Errorf("mds/%s: Theorem 1.1 line %q, want suffix %q; output:\n%s", tc.alg, line, tc.suffix, buf.String())
		}
	}
}

// registryDigest pins the bytes of `hardness -seed 1 -experiment all`.
// Every experiment is deterministic at a fixed seed, so any change to a
// printed claim, a number or the order of the lines changes the digest.
// After a deliberate change, diff the old and the new output and update it.
const registryDigest = "ec5efde5cf30003b44730097e1cf8795e6766c9300f3775f916b15a8c470dff8"

// TestExperimentRegistry runs the registry the way the CLI does: -list
// names exactly E1..E18, every experiment returns nil at seed 1, and the
// combined output of -experiment all matches registryDigest.
func TestExperimentRegistry(t *testing.T) {
	var want strings.Builder
	for i := 1; i <= 18; i++ {
		fmt.Fprintf(&want, "E%d\n", i)
	}
	if got := captureStdout(t, func() error { return run("", true) }); got != want.String() {
		t.Fatalf("-list printed\n%s\nwant E1..E18", got)
	}
	defer func(old int64) { seed = old }(seed)
	seed = 1
	out := captureStdout(t, func() error { return run("all", false) })
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != registryDigest {
		t.Errorf("-seed 1 -experiment all output digest %s, want %s; output:\n%s", got, registryDigest, out)
	}
}

// captureStdout returns what fn prints to os.Stdout, failing the test if
// fn returns an error.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	read := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		read <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	out := <-read
	r.Close()
	if runErr != nil {
		t.Fatalf("%v; output:\n%s", runErr, out)
	}
	return string(out)
}
