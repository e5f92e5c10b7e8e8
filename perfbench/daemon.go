package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The daemon_mix workload serves service.RunLoad's default 8×8
// corner-to-corner job from an in-process server over loopback HTTP:
// a closed loop over one connection per worker, then an open loop at a
// fixed rate. One job is a POST /v1/jobs followed by its SSE stream
// until the done event.
const (
	// daemonHitEvery makes every 4th job repeat an earlier cold job: a
	// 25% share of cache reads among cache writes.
	daemonHitEvery = 4
	// daemonTwinLag keeps a repeat at least this many jobs behind its
	// cold twin, which has finished by then; the client still waits for
	// the twin's done event, so a repeat is never folded into it.
	daemonTwinLag = 64
	// daemonClosedPerSec is the closed-loop job count per second of
	// --seconds.
	daemonClosedPerSec = 500
	// daemonOpenRate is the open loop's fixed rate in jobs/s: at most
	// half the closed-loop capacity measured when this benchmark was
	// written (1.6k to 3.2k jobs/s on two shared cores), so that the open
	// loop stays short of saturation when the host is slow.
	daemonOpenRate = 800
	// daemonOpenShare is the share of --seconds the open loop lasts.
	daemonOpenShare = 0.5
	// daemonPerWall is the job count wall_s is quoted for.
	daemonPerWall = 1000
	// daemonClosedWindow is the closed-loop window. Closed-loop speed on
	// a shared two-core host swings between windows of one run, so the
	// run takes the median over many short windows.
	daemonClosedWindow = 500
	// daemonOpenWindow is the open-loop window for the tail: at 800
	// jobs/s one window lasts 1/8 s, so a short stall of the shared host
	// lands in few windows and the median over windows passes it by. A
	// window of 100 jobs reads its tail at p90; the p99 over the whole
	// open loop is reported beside it.
	daemonOpenWindow = 100
	// daemonRSSWindow is the job count between two peak-RSS readings.
	daemonRSSWindow = 500
	// daemonSample is how many cold jobs the traced run replays through
	// the cache and the metrics recorder.
	daemonSample = 256
)

// jobTemplate is service.RunLoad's default request.
var jobTemplate = service.JobRequest{Width: 8, Height: 8, Src: 0, Dst: 63, P: 0.5, TTL: 64, MaxRounds: 100}

// plannedJob is one job of the traffic plan.
type plannedJob struct {
	seed uint64
	twin int // the cold job this one repeats, -1 for a cold job
}

// planJobs derives n jobs from the workload seed: fresh distinct seeds,
// except that every daemonHitEvery-th job past the lag repeats a cold
// job chosen from those at least daemonTwinLag jobs earlier.
func planJobs(seed uint64, n int) []plannedJob {
	jobs := make([]plannedJob, n)
	used := map[uint64]bool{}
	for i := range jobs {
		if i%daemonHitEvery == daemonHitEvery-1 && i >= daemonTwinLag {
			k := int(mix(seed, uint64(i)) % uint64(i-daemonTwinLag+1))
			for jobs[k].twin >= 0 {
				k--
			}
			jobs[i] = plannedJob{seed: jobs[k].seed, twin: k}
			continue
		}
		s := mix(seed, uint64(i)+1<<40)
		for used[s] {
			s++
		}
		used[s] = true
		jobs[i] = plannedJob{seed: s, twin: -1}
	}
	return jobs
}

// jobOut is what the client saw of one job.
type jobOut struct {
	id         string
	status     service.Status
	roundEvts  int
	cacheHit   bool
	deduped    bool
	rejected   bool
	err        error
	submit     time.Duration // POST round trip
	firstRound time.Duration // stream opened to first round event
	stream     time.Duration // stream opened to done event
}

// daemonClient runs planned jobs against one server.
type daemonClient struct {
	base   string
	http   *http.Client
	plan   []plannedJob
	outs   []jobOut
	done   []chan struct{} // closed when the job's outcome is known
	tracer *tracer
}

func newDaemonClient(base string, conns int, plan []plannedJob) *daemonClient {
	c := &daemonClient{
		base: base,
		http: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns},
		},
		plan: plan,
		outs: make([]jobOut, len(plan)),
		done: make([]chan struct{}, len(plan)),
	}
	for i := range c.done {
		c.done[i] = make(chan struct{})
	}
	return c
}

// run executes job i and records its outcome.
func (c *daemonClient) run(i int) {
	defer close(c.done[i])
	if t := c.plan[i].twin; t >= 0 {
		<-c.done[t]
	}
	l := c.tracer.log(int64(i), -1)
	l.begin("job")
	c.outs[i] = c.job(i, l)
	l.end()
	l.close()
}

func (c *daemonClient) job(i int, l *spanLog) (o jobOut) {
	req := jobTemplate
	req.Seed = c.plan[i].seed
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	l.begin("http.submit")
	t0 := time.Now()
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		l.end()
		o.err = err
		return o
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.submit = time.Since(t0)
	l.end()
	switch {
	case err != nil:
		o.err = err
		return o
	case resp.StatusCode == http.StatusTooManyRequests:
		o.rejected = true
		return o
	case resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK:
		o.err = fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, raw)
		return o
	}
	var sub service.SubmitResponse
	if err := json.Unmarshal(raw, &sub); err != nil {
		o.err = err
		return o
	}
	o.id, o.cacheHit, o.deduped = sub.ID, sub.CacheHit, sub.Deduped

	l.begin("http.stream")
	t1 := time.Now()
	resp, err = c.http.Get(c.base + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		l.end()
		o.err = err
		return o
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: ") && event == "round":
			if o.roundEvts == 0 {
				o.firstRound = time.Since(t1)
			}
			o.roundEvts++
		case strings.HasPrefix(line, "data: ") && event == "done":
			o.stream = time.Since(t1)
			l.end()
			if err := json.Unmarshal([]byte(line[len("data: "):]), &o.status); err != nil {
				o.err = err
			}
			io.Copy(io.Discard, resp.Body)
			return o
		}
	}
	l.end()
	o.err = fmt.Errorf("stream of %s ended without a done event: %v", sub.ID, sc.Err())
	return o
}

// closedLoop runs jobs [from, to) over conns connections, each sending
// its next job when the previous one is done.
func closedLoop(from, to, conns int, do func(i int)) {
	var next atomic.Int64
	next.Store(int64(from))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= to {
					return
				}
				do(i)
			}
		}()
	}
	wg.Wait()
}

// openLoop sends n requests at a fixed rate over conns connections:
// request i is due at start + i/rate. A request waits for a free
// connection, so a stall delays every request behind it. late is how
// long after its due time each request was sent, lat how long after its
// due time it completed.
func openLoop(n int, rate float64, conns int, do func(i int)) (late, lat []time.Duration) {
	late = make([]time.Duration, n)
	lat = make([]time.Duration, n)
	start := time.Now()
	closedLoop(0, n, conns, func(i int) {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due)
		do(i)
		lat[i] = time.Since(due)
	})
	return late, lat
}

// daemonServer is one server behind a loopback listener.
type daemonServer struct {
	srv *service.Server
	ts  *httptest.Server
	dir string
}

func startServer(dir string, workers int) (*daemonServer, error) {
	if err := os.MkdirAll(filepath.Join(dir, "ckpt"), 0o755); err != nil {
		return nil, err
	}
	srv, err := service.New(service.Options{
		Workers: workers, CacheDir: filepath.Join(dir, "cache"), CheckpointDir: filepath.Join(dir, "ckpt"),
	})
	if err != nil {
		return nil, err
	}
	return &daemonServer{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}, nil
}

func (d *daemonServer) close() {
	d.ts.Close()
	d.srv.Close()
	os.RemoveAll(d.dir)
}

func (d *daemonServer) stats() (service.Stats, error) {
	var st service.Stats
	resp, err := http.Get(d.ts.URL + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func runDaemon(b *bench) error {
	// Set-up is timed three times before the closed loop, keeping the
	// last server, and three times after each loop: file system latency
	// on the checkout's disk comes in spells, and spreading the set-ups
	// over the run keeps one spell from setting the median.
	var ds *daemonServer
	k := 0
	start := func(keep bool) (func(), error) {
		k++
		d, err := startServer(filepath.Join(b.tmp, fmt.Sprintf("server%d", k)), b.workers)
		if err != nil {
			return nil, err
		}
		if keep {
			ds = d
			return nil, nil
		}
		return d.close, nil
	}
	if err := b.setup(3, true, start); err != nil {
		return err
	}
	defer ds.close()

	closedWins := max(2, int(daemonClosedPerSec*b.seconds)/daemonClosedWindow)
	openWins := max(2, int(daemonOpenRate*daemonOpenShare*b.seconds)/daemonOpenWindow)
	nClosed, nOpen := closedWins*daemonClosedWindow, openWins*daemonOpenWindow
	plan := planJobs(b.seed, nClosed+nOpen)
	c := newDaemonClient(ds.ts.URL, b.workers, plan)
	heap0 := heapInuseMB()

	var (
		walls, peaks []float64
		mu           sync.Mutex
		rssErr       error
	)
	// windowPeak closes an RSS window and opens the next.
	windowPeak := func() {
		mu.Lock()
		defer mu.Unlock()
		rss, err := peakRSSMB()
		if err == nil {
			err = resetPeakRSS()
		}
		if err != nil {
			rssErr = err
		}
		peaks = append(peaks, rss)
	}
	if err := resetPeakRSS(); err != nil {
		return err
	}
	for w := 0; w < closedWins; w++ {
		t0 := time.Now()
		closedLoop(w*daemonClosedWindow, (w+1)*daemonClosedWindow, b.workers, c.run)
		walls = append(walls, time.Since(t0).Seconds()*daemonPerWall/daemonClosedWindow)
		windowPeak()
	}
	if err := b.setup(3, false, start); err != nil {
		return err
	}
	rt0 := readRuntime()
	late, lat := openLoop(nOpen, daemonOpenRate, b.workers, func(i int) {
		if i > 0 && i%daemonRSSWindow == 0 {
			windowPeak()
		}
		c.run(nClosed + i)
	})
	windowPeak()
	if rssErr != nil {
		return rssErr
	}
	if err := b.setup(3, false, start); err != nil {
		return err
	}
	rt1 := readRuntime()
	heap1 := heapInuseMB()

	st, err := ds.stats()
	if err != nil {
		return err
	}
	b.checkJobs(c, st)

	b.e2e["wall_s"] = median(walls)
	b.note("wall_s", median(walls), fmt.Sprintf("s per %d closed-loop jobs (median of %d windows of %d jobs; quartiles %.3g)",
		daemonPerWall, closedWins, daemonClosedWindow, quartiles(walls)))
	b.note("jobs_per_s", daemonPerWall/median(walls), fmt.Sprintf("jobs/s (closed loop, %d jobs over %d connections)", nClosed, b.workers))
	var hits, submits, firsts, streams []time.Duration
	var servedRounds int
	for i := 0; i < nOpen; i++ {
		o := c.outs[nClosed+i]
		if plan[nClosed+i].twin >= 0 {
			hits = append(hits, lat[i])
		}
		submits = append(submits, o.submit)
		firsts = append(firsts, o.firstRound)
		streams = append(streams, o.stream)
		servedRounds += o.status.Rounds
	}
	b.note("open_rate", daemonOpenRate, fmt.Sprintf("jobs/s (open loop, %d jobs, 1 in %d a cache hit)", nOpen, daemonHitEvery))
	b.latency("job", split(lat, openWins))
	ad := durDist(lat, time.Millisecond)
	aq, _ := ad.tail()
	b.notePct("job_"+pctName(aq)+"_ms", ad, aq, "ms")
	hd := durDist(hits, time.Millisecond)
	hq, _ := hd.tail()
	b.notePct("hit_"+pctName(hq)+"_ms", hd, hq, "ms")
	retained := (heap1 - heap0) * 1024 / float64(len(plan))
	b.note("retained_kb_per_job", retained, fmt.Sprintf("KB (post-GC heap %.1f -> %.1f MB over %d jobs)", heap0, heap1, len(plan)))
	b.note("error_rate", float64(b.failed)/float64(b.attempted), fmt.Sprintf("(%d of %d)", b.failed, b.attempted))
	ld := durDist(late, time.Millisecond)
	lq, _ := ld.tail()
	b.notePct("gen.late_ms_"+pctName(lq), ld, lq, "ms")
	b.peakRSS(peaks, "the process's VmHWM")

	b.counters["service.simulations"] = st.Simulations
	b.counters["service.cache_hits"] = st.CacheHits
	b.counters["service.deduped"] = st.Deduped
	var rounds int64
	for _, o := range c.outs {
		rounds += int64(o.status.Rounds)
	}
	b.counters["service.rounds"] = rounds

	sd, fd, std := durDist(submits, time.Millisecond), durDist(firsts, time.Millisecond), durDist(streams, time.Millisecond)
	b.layer["http.submit_ms_p50"] = sd.median()
	b.layer["http.submit_ms_p99"] = sd.pct(99)
	b.layer["http.first_round_ms_p50"] = fd.median()
	b.layer["http.stream_ms_p99"] = std.pct(99)
	b.layer["service.simulations"] = float64(st.Simulations)
	b.layer["service.deduped"] = float64(st.Deduped)
	b.layer["cache.hit_ratio"] = float64(st.CacheHits) / float64(st.CacheHits+st.CacheMisses)
	b.layer["go.alloc_bytes_per_round"] = (rt1.allocs - rt0.allocs) / float64(servedRounds)
	b.layer["go.gc_cpu_frac"] = gcFrac(rt0, rt1)
	b.layer["go.heap_inuse_mb_end"] = heap1
	b.layer["gen.late_ms_p99"] = ld.pct(99)
	if b.tr == nil {
		return nil
	}
	return b.traceDaemon(ds, plan, c)
}

// checkJobs audits every job: cold jobs simulated, repeats served from
// the cache with their twin's status, one round event per round plus
// round 0, and the server's counters in agreement.
func (b *bench) checkJobs(c *daemonClient, st service.Stats) {
	cold, repeats := 0, 0
	for i, o := range c.outs {
		b.attempted++
		bad := o.err != nil || o.rejected || o.status.State != service.StateDone
		switch {
		case o.err != nil:
			b.check(false, "job %d: %v", i, o.err)
		case o.rejected:
			b.check(false, "job %d: rejected with 429", i)
		case o.status.State != service.StateDone:
			b.check(false, "job %d ended %s", i, o.status.State)
		}
		if bad {
			b.failed++
			continue
		}
		ok := o.roundEvts == o.status.Rounds+1 && !o.deduped
		b.check(o.roundEvts == o.status.Rounds+1, "job %d streamed %d round events for %d rounds", i, o.roundEvts, o.status.Rounds)
		b.check(!o.deduped, "job %d was folded into an in-flight job", i)
		if t := c.plan[i].twin; t >= 0 {
			repeats++
			tw := c.outs[t].status
			same := o.cacheHit && o.status.Rounds == tw.Rounds && o.status.DeliveredRound == tw.DeliveredRound &&
				o.status.Transmissions == tw.Transmissions && o.status.EnergyJ == tw.EnergyJ
			b.check(same, "job %d (repeat of %d) was not served its twin's result from the cache", i, t)
			ok = ok && same
		} else {
			cold++
			b.check(!o.cacheHit, "cold job %d was a cache hit", i)
			ok = ok && !o.cacheHit
		}
		if !ok {
			b.failed++
		}
	}
	b.check(st.Simulations == int64(cold), "server ran %d simulations for %d distinct cold jobs", st.Simulations, cold)
	b.check(st.CacheHits == int64(repeats), "server counted %d cache hits for %d repeats", st.CacheHits, repeats)
	b.check(st.Completed == int64(len(c.outs)), "server completed %d of %d jobs", st.Completed, len(c.outs))
	b.check(st.Failed == 0 && st.Rejected == 0 && st.Deduped == 0,
		"server counted %d failed, %d rejected, %d deduped", st.Failed, st.Rejected, st.Deduped)
}

// traceDaemon is the traced pass: a closed-loop batch with every job's
// HTTP calls in spans, then the cache and the metrics recorder driven
// directly with the workload's own keys, payloads and job configs.
func (b *bench) traceDaemon(ds *daemonServer, plan []plannedJob, c *daemonClient) error {
	// Closed-loop batches with the plan's mix, alternately untraced and
	// traced: closed-loop speed swings between windows, so the overhead
	// compares the medians of several of each.
	batch := func(seed uint64, tr *tracer) (float64, error) {
		bc := newDaemonClient(ds.ts.URL, b.workers, planJobs(seed, daemonClosedWindow))
		bc.tracer = tr
		t0 := time.Now()
		closedLoop(0, daemonClosedWindow, b.workers, bc.run)
		elapsed := time.Since(t0).Seconds()
		for i, o := range bc.outs {
			if o.err != nil || o.status.State != service.StateDone {
				return 0, fmt.Errorf("traced-run job %d failed: %v", i, o.err)
			}
		}
		return elapsed, nil
	}
	var untraced, traced []float64
	for k := uint64(0); k < tracedPairs; k++ {
		u, err := batch(mix(b.seed, 2*k+2), nil)
		if err != nil {
			return err
		}
		t, err := batch(mix(b.seed, 2*k+3), b.tr)
		if err != nil {
			return err
		}
		untraced, traced = append(untraced, u), append(traced, t)
	}
	b.layer["trace_overhead_frac"] = median(traced)/median(untraced) - 1

	// Payloads of the first daemonSample cold jobs, as the server
	// stores them.
	var sample []int
	for i := range plan {
		if plan[i].twin < 0 && len(sample) < daemonSample {
			sample = append(sample, i)
		}
	}
	payloads := make([][]byte, len(sample))
	for k, i := range sample {
		resp, err := http.Get(ds.ts.URL + "/v1/jobs/" + c.outs[i].id + "/result")
		if err != nil {
			return err
		}
		payloads[k], err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
	}

	// Cache layer: Put then Get each payload under the job's own key.
	dir := filepath.Join(b.tmp, "cachebench")
	cache, err := service.OpenCache(dir)
	if err != nil {
		return err
	}
	l := b.tr.log(-1, -1)
	var puts, gets []time.Duration
	for k, i := range sample {
		req := jobTemplate
		req.Seed = plan[i].seed
		canon, err := json.Marshal(req)
		if err != nil {
			return err
		}
		key := req.Key()
		l.begin("cache.Put")
		t := time.Now()
		err = cache.Put(key, canon, payloads[k], c.outs[i].status)
		puts = append(puts, time.Since(t))
		l.end()
		if err != nil {
			return err
		}
		l.begin("cache.Get")
		t = time.Now()
		got, status, ok := cache.Get(key, canon)
		gets = append(gets, time.Since(t))
		l.end()
		b.check(ok && bytes.Equal(got, payloads[k]) && status.Transmissions == c.outs[i].status.Transmissions,
			"cache round trip of job %d lost its payload", i)
	}
	l.close()
	var entryBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			entryBytes += info.Size()
		}
	}
	b.layer["cache.put_us"] = durDist(puts, time.Microsecond).median()
	b.layer["cache.get_us"] = durDist(gets, time.Microsecond).median()
	b.layer["cache.entry_bytes"] = float64(entryBytes) / float64(len(sample))

	// Metrics layer: replay the sampled jobs in-process with the
	// recorder's hooks timed after Recorder.Install; the streamed lines
	// must rebuild each job's result byte for byte.
	var hookTime, lineTime time.Duration
	var rounds, lines int
	for k, i := range sample {
		h, lt, r, n, out, err := replayJob(plan[i].seed)
		if err != nil {
			return err
		}
		hookTime, lineTime, rounds, lines = hookTime+h, lineTime+lt, rounds+r, lines+n
		b.check(bytes.Equal(out, payloads[k]), "in-process replay of job %d does not reproduce its result", i)
	}
	b.layer["metrics.hooks_us_per_round"] = hookTime.Seconds() * 1e6 / float64(rounds)
	b.layer["metrics.line_us"] = lineTime.Seconds() * 1e6 / float64(lines)
	return nil
}

// replayJob runs one job the way the server's worker does and times the
// metrics recorder's hooks and the streamer's line rendering.
func replayJob(seed uint64) (hooks, lineT time.Duration, rounds, lines int, out []byte, err error) {
	req := jobTemplate
	req.Seed = seed
	cfg := core.Config{
		Topo: topology.NewGrid(req.Width, req.Height), P: req.P, TTL: uint8(req.TTL),
		MaxRounds: req.MaxRounds, Seed: req.Seed,
		Fault: fault.Model{Protect: []packet.TileID{packet.TileID(req.Src), packet.TileID(req.Dst)}},
	}
	delivered := -1
	cfg.OnDeliver = func(t packet.TileID, p *packet.Packet, round int) {
		if t == packet.TileID(req.Dst) && delivered < 0 {
			delivered = round
		}
	}
	rec := metrics.NewRecorder(metrics.Config{Rounds: req.MaxRounds, Tech: energy.NoCLink025})
	rec.Install(&cfg)
	onEvent, onRound := cfg.OnEvent, cfg.OnRoundEnd
	cfg.OnEvent = func(e core.Event) {
		t := time.Now()
		onEvent(e)
		hooks += time.Since(t)
	}
	cfg.OnRoundEnd = func(r int, n *core.Network) {
		t := time.Now()
		onRound(r, n)
		hooks += time.Since(t)
	}
	net, err := core.New(cfg)
	if err != nil {
		return
	}
	id, err := net.Inject(packet.TileID(req.Src), packet.TileID(req.Dst), 1, make([]byte, 16))
	if err != nil {
		return
	}
	rec.Watch(id)
	str := metrics.NewStreamer(rec)
	line := func(r int) {
		t := time.Now()
		l := str.RoundLine(r)
		lineT += time.Since(t)
		lines++
		out = append(out, l...)
	}
	line(0)
	loop := sim.Loop{
		Net: net, MaxRounds: req.MaxRounds,
		Done:    func(*core.Network) bool { return delivered >= 0 },
		OnRound: func(n *core.Network) { line(n.Round()) },
	}
	loop.Run()
	return hooks, lineT, net.Round(), lines, out, nil
}
