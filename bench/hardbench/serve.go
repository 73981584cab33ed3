package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"congesthard/internal/serve"
	"congesthard/internal/serve/client"
)

// The serve workload runs the real `hardness serve` binary and drives it
// over HTTP with an open loop: jobs arrive on a seeded Poisson schedule
// whatever the server's pace, and two client lanes send them, each job a
// POST to /v1/jobs and a read of its event stream up to the done event.
// Latency runs from the job's due time, so a stalled lane charges its
// wait to the jobs queued behind it.

const (
	serveRate  = 50.0 // jobs per second
	serveLanes = 2
	servePairs = 16
	// serveSegment is the jobs of one segment of the schedule, one second
	// of it; the speed probe runs between segments.
	serveSegment = 50
	// serveSensitivity normalizes the serve times by the speed probe
	// (probe.go), and serveProbeReps is the probe's kernel runs per
	// measurement.
	serveSensitivity = 0.85
	serveProbeReps   = 3
	// serveReports is how many of the last jobs' reports are fetched after
	// the timed phase; the server keeps the last 256 finished jobs.
	serveReports = 256
)

// jobRequest is the i-th job of the schedule: three sampled mds/collect
// sweeps for every mds/collect-retry sweep under 1% message loss.
func jobRequest(i int, seed int64) serve.JobRequest {
	req := serve.JobRequest{Family: "mds", Alg: "collect", Pairs: servePairs, Seed: seed}
	if i%4 == 3 {
		req.Alg, req.Faults = "collect-retry", "drop=0.01"
	}
	return req
}

// loadJob is one scheduled job and what was measured of it; the times are
// offsets from the start of its segment of the schedule.
type loadJob struct {
	req                   serve.JobRequest
	due                   time.Duration
	sent, submitted, done time.Duration
	id                    string
	status                serve.JobStatus
	err                   error
}

func (j *loadJob) run(ctx context.Context, cl *client.Client, epoch time.Time) {
	j.sent = time.Since(epoch)
	st, err := cl.SubmitOnce(ctx, j.req)
	j.submitted = time.Since(epoch)
	if err != nil {
		j.err = fmt.Errorf("submit: %w", err)
		return
	}
	j.id = st.ID
	j.status, j.done, j.err = awaitDone(ctx, cl, st.ID, epoch)
}

// check accepts a job that finished with every pair certified and no
// mismatch; a shed submission is a failure.
func (j *loadJob) check() error {
	st := j.status
	switch {
	case j.err != nil:
		return j.err
	case st.State != serve.StateDone:
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	case st.Mismatches != 0:
		return fmt.Errorf("job %s: %d mismatches", st.ID, st.Mismatches)
	case st.Completed != st.Total || st.Total == 0:
		return fmt.Errorf("job %s certified %d of %d pairs", st.ID, st.Completed, st.Total)
	}
	return nil
}

// runSchedule sends the jobs from the client lanes, each at its due time
// counted from now, and returns once every job has ended.
func runSchedule(ctx context.Context, cl *client.Client, jobs []loadJob) time.Duration {
	epoch := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for l := 0; l < serveLanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(jobs); i = int(next.Add(1) - 1) {
				j := &jobs[i]
				time.Sleep(time.Until(epoch.Add(j.due)))
				j.run(ctx, cl, epoch)
			}
		}()
	}
	wg.Wait()
	return time.Since(epoch)
}

// awaitDone reads the job's event stream until its done event and
// returns the final status and when it arrived.
func awaitDone(ctx context.Context, cl *client.Client, id string, epoch time.Time) (serve.JobStatus, time.Duration, error) {
	var st serve.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return st, 0, err
	}
	resp, err := cl.HTTPClient.Do(req)
	if err != nil {
		return st, 0, fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, 0, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && done {
			at := time.Since(epoch)
			err := json.Unmarshal([]byte(data), &st)
			// Read to the end so the connection is reused.
			io.Copy(io.Discard, resp.Body)
			return st, at, err
		}
	}
	return st, 0, fmt.Errorf("stream %s ended without a done event: %v", id, sc.Err())
}

// server is a running `hardness serve` process.
type server struct {
	cmd  *exec.Cmd
	base string
	// drained is closed once the process's standard output hits EOF.
	drained chan struct{}
}

// buildServer builds the hardness command into workdir; the build is not
// timed.
func buildServer(workdir string) (string, error) {
	dir, err := filepath.Abs(workdir)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "hardness")
	cmd := exec.Command("go", "build", "-o", bin, "congesthard/cmd/hardness")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building hardness: %w", err)
	}
	return bin, nil
}

// startServer spawns the server on a free loopback port with two workers
// of one shard each, and waits until /readyz answers.
func startServer(bin string, hc *http.Client) (*server, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-workers", "2", "-sweep-workers", "1", "-pprof")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting hardness serve: %w", err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	out := bufio.NewReader(stdout)
	first, _ := out.ReadString('\n')
	go func() {
		defer close(s.drained)
		io.Copy(io.Discard, out)
	}()
	addr, ok := strings.CutPrefix(first, "hardness serve listening on ")
	addr, _, _ = strings.Cut(addr, " ")
	if !ok || addr == "" {
		s.kill()
		return nil, fmt.Errorf("hardness serve printed %q, want its listen address", first)
	}
	s.base = "http://" + addr
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := hc.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("hardness serve at %s not ready after 10s", addr)
		}
	}
}

// stop sends SIGTERM and waits for the drain; anything but exit code 0
// within 30s is an error.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	timer := time.AfterFunc(30*time.Second, func() { s.cmd.Process.Kill() })
	defer timer.Stop()
	<-s.drained
	if err := s.cmd.Wait(); err != nil {
		return fmt.Errorf("hardness serve did not drain cleanly: %w", err)
	}
	return nil
}

func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.drained
	s.cmd.Wait()
}

// serverCounters are the server-side totals the workload differences
// across its timed phase.
type serverCounters struct {
	pairs, runSeconds, pairSecondsSum, pairSecondsCount float64
	mallocs, allocBytes                                 float64
}

// scrape reads the counters from /v1/metrics and, withHeap, the
// allocation totals from the heap profile's runtime statistics.
func scrape(ctx context.Context, cl *client.Client, withHeap bool) (serverCounters, error) {
	var c serverCounters
	metrics, err := fetch(ctx, cl, "/v1/metrics")
	if err != nil {
		return c, err
	}
	type counter struct {
		text, key string
		dst       *float64
	}
	want := []counter{
		{metrics, "hardness_pairs_certified_total ", &c.pairs},
		{metrics, "hardness_job_run_seconds_sum ", &c.runSeconds},
		{metrics, "hardness_pair_seconds_sum ", &c.pairSecondsSum},
		{metrics, "hardness_pair_seconds_count ", &c.pairSecondsCount},
	}
	if withHeap {
		heap, err := fetch(ctx, cl, "/debug/pprof/heap?debug=1")
		if err != nil {
			return c, err
		}
		want = append(want, counter{heap, "# Mallocs = ", &c.mallocs}, counter{heap, "# TotalAlloc = ", &c.allocBytes})
	}
	for _, w := range want {
		found := false
		for _, line := range strings.Split(w.text, "\n") {
			if v, ok := strings.CutPrefix(line, w.key); ok {
				if *w.dst, err = strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
					return c, fmt.Errorf("parsing %q: %w", line, err)
				}
				found = true
				break
			}
		}
		if !found {
			return c, fmt.Errorf("server reported no %q", strings.TrimSpace(w.key))
		}
	}
	return c, nil
}

func fetch(ctx context.Context, cl *client.Client, path string) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.BaseURL+path, nil)
	if err != nil {
		return "", err
	}
	resp, err := cl.HTTPClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return string(body), err
}

func runServe(o options) (*outcome, error) {
	r := newOutcome()
	ctx := context.Background()
	bin, err := buildServer(o.workdir)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveLanes, MaxIdleConnsPerHost: serveLanes},
		Timeout:   time.Minute,
	}
	defer hc.CloseIdleConnections()

	// Each setup spawns a server, waits for readiness and runs one
	// warm-up job of each kind; all but the last server are drained.
	probe := newSpeedProbe(o.nproc, serveProbeReps)
	var srv *server
	var cl *client.Client
	setups := make([]float64, o.count(5, 2))
	setupScales := make([]float64, len(setups))
	for i := range setups {
		start := time.Now()
		s, err := startServer(bin, hc)
		if err != nil {
			return nil, err
		}
		scl := client.New(s.base)
		scl.HTTPClient = hc
		for _, k := range []int{0, 3} {
			j := &loadJob{req: jobRequest(k, o.seed)}
			j.run(ctx, scl, start)
			r.check("warm-up job", j.check())
		}
		setups[i] = time.Since(start).Seconds()
		setupScales[i] = probe.scale()
		if i < len(setups)-1 {
			r.check("drain", s.stop())
			continue
		}
		srv, cl = s, scl
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()

	// The schedule restarts its clock at every segment.
	jobs := make([]loadJob, o.scaled(serveRate, 20))
	rng := rand.New(rand.NewSource(o.seed))
	var due time.Duration
	for i := range jobs {
		if i%serveSegment == 0 {
			due = 0
		}
		due += time.Duration(rng.ExpFloat64() / serveRate * float64(time.Second))
		jobs[i] = loadJob{req: jobRequest(i, o.seed+int64(i)), due: due}
	}
	before, err := scrape(ctx, cl, true)
	if err != nil {
		return nil, err
	}
	// Between segments the server is idle and the probe runs; scales[i] is
	// the factor that normalizes job i's latency.
	probe.measure()
	prev := before
	scales := make([]float64, len(jobs))
	var rates, wallRates []float64
	var phase time.Duration
	for start := 0; start < len(jobs); start += serveSegment {
		end := min(start+serveSegment, len(jobs))
		phase += runSchedule(ctx, cl, jobs[start:end])
		cur, err := scrape(ctx, cl, end == len(jobs))
		if err != nil {
			return nil, err
		}
		scale := math.Pow(probe.scale(), serveSensitivity)
		for i := start; i < end; i++ {
			scales[i] = scale
		}
		if run := cur.runSeconds - prev.runSeconds; run > 0 {
			rate := (cur.pairs - prev.pairs) / run
			wallRates = append(wallRates, rate)
			rates = append(rates, rate/scale)
		}
		prev = cur
	}
	after := prev
	stats, err := cl.Stats(ctx)
	if err != nil {
		return nil, err
	}

	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var lat, latN, late, submit, queue, notify []float64
	runMS := map[string][]float64{}
	for i := range jobs {
		j := &jobs[i]
		err := j.check()
		r.check("job", err)
		if err != nil {
			// A failed or shed job misses any latency limit.
			lat = append(lat, ms(phase))
			latN = append(latN, ms(phase)*scales[i])
			continue
		}
		st := j.status
		l := ms(j.done - j.due)
		lat = append(lat, l)
		latN = append(latN, l*scales[i])
		late = append(late, ms(j.sent-j.due))
		submit = append(submit, ms(j.submitted-j.sent))
		queue = append(queue, float64(st.QueueMS))
		runMS[j.req.Alg] = append(runMS[j.req.Alg], float64(st.RunMS))
		notify = append(notify, l-late[len(late)-1]-submit[len(submit)-1]-float64(st.QueueMS+st.RunMS))
	}

	// The server keeps the reports of the last serveReports jobs it
	// accepted. Two lanes can submit neighbouring jobs out of schedule
	// order, so the newest jobs are found by id, not by index.
	var recent []*loadJob
	for i := range jobs {
		if jobs[i].id != "" {
			recent = append(recent, &jobs[i])
		}
	}
	sort.Slice(recent, func(a, b int) bool { return recent[a].id > recent[b].id })
	rounds, roundPairs := map[string]float64{}, map[string]float64{}
	reports := 0
	for _, j := range recent[:min(len(recent), serveReports)] {
		_, rep, err := cl.Report(ctx, j.id)
		if err == nil && rep == nil {
			err = fmt.Errorf("job %s has no report", j.id)
		}
		r.check("report", err)
		if err != nil {
			continue
		}
		reports++
		for _, p := range rep.Pairs {
			rounds[j.req.Alg] += float64(p.Rounds)
			roundPairs[j.req.Alg]++
		}
	}
	r.check("drain", srv.stop())
	srv = nil

	pairs := after.pairs - before.pairs
	p, tl := tail(latN)
	r.set("pairs_per_s", median(rates), "pairs/s")
	r.set("op_ms", median(latN), "ms")
	r.set("op_tail_ms", tl, "ms")
	r.set("allocs_per_pair", (after.mallocs-before.mallocs)/pairs, "allocs")
	r.set("bytes_per_pair", (after.allocBytes-before.allocBytes)/pairs, "bytes")
	r.set("setup_s", median(normalize(setups, setupScales, serveSensitivity)), "s")
	r.set("job_p50_ms", median(lat), "ms")
	r.set("job_p99_ms", percentile(lat, 99), "ms")
	r.set("failed_frac", float64(r.failed)/float64(r.attempted), "ratio")
	r.set("wall_pairs_per_s", median(wallRates), "pairs/s")
	r.set("wall_op_ms", median(lat), "ms")
	r.set("wall_setup_s", median(setups), "s")
	probe.report(r)

	r.set("serve.submit_ms", median(submit), "ms")
	r.set("serve.notify_ms", median(notify), "ms")
	r.set("serve.queue_ms", median(queue), "ms")
	lateP99 := percentile(late, 99)
	r.set("loadgen.late_ms_p99", lateP99, "ms")
	for _, alg := range []string{"collect", "collect-retry"} {
		r.set("serve.run_ms."+alg, median(runMS[alg]), "ms")
		if roundPairs[alg] > 0 {
			r.set("serve.rounds_per_pair."+alg, rounds[alg]/roundPairs[alg], "count")
		}
	}
	r.set("serve.pair_us", (after.pairSecondsSum-before.pairSecondsSum)/(after.pairSecondsCount-before.pairSecondsCount)*1e6, "us")
	r.set("serve.cache_misses", float64(stats.CacheMisses), "count")
	if lateP99 > 50 {
		r.warn("loadgen.late_ms_p99 = %.1f ms: the load generator, not the server, set the pace", lateP99)
	}
	r.ops = fmt.Sprintf("setups=%d jobs=%d segments=%d rate=%g/s lanes=%d pairs_per_job=%d reports=%d wall_s=%.1f op_tail=p%.4g",
		len(setups), len(jobs), len(rates), serveRate, serveLanes, servePairs, reports, phase.Seconds(), p)
	return r, nil
}
