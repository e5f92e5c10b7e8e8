package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/apps/mp3"
	"repro/internal/audio/encoder"
	"repro/internal/audio/signal"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// figureIDs are the figures `figures -fig all` regenerates, in order.
var figureIDs = []string{"3-1", "3-3", "4-4", "4-5", "4-6", "4-8", "4-9", "4-10", "4-11",
	"5-3", "ext-robustness", "ext-mapping", "ext-spread", "ext-bimodal", "ext-ttl", "ext-fec"}

func figureLayerNames() []string {
	names := make([]string, len(figureIDs))
	for i, id := range figureIDs {
		names[i] = "experiments.fig_s." + id
	}
	return names
}

// goldenSeed is the seed figures_output.txt was recorded at.
const goldenSeed = 2003

// figureRuns is the -runs value of the recorded regeneration.
const figureRuns = 10

// figureRegenSeconds sets the regeneration count: one per that many
// seconds of --seconds, and at least three, so that the median of a
// run is not the mean of two.
const figureRegenSeconds = 7

// mp3Windows is the number of consecutive replica windows the replay's
// replica times are cut into for the tail.
const mp3Windows = 3

// regen is one `figures -fig all` process as seen from outside.
type regen struct {
	out   []byte
	wall  time.Duration
	figs  []time.Duration // per figure, from its header to the next one
	rssKB int64
}

// regenerate runs the figures command exactly as a user would and times
// each figure by the moment its "==== Figure" header reaches the pipe:
// the command prints a figure's header before computing it.
func regenerate(bin string, seed uint64, workers int) (regen, error) {
	cmd := exec.Command(bin, "-fig", "all", "-runs", strconv.Itoa(figureRuns),
		"-workers", strconv.Itoa(workers), "-seed", strconv.FormatUint(seed, 10))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return regen{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return regen{}, err
	}
	var out bytes.Buffer
	var marks []time.Duration
	r := bufio.NewReader(pipe)
	for {
		line, err := r.ReadBytes('\n')
		if bytes.HasPrefix(line, []byte("==== Figure ")) {
			marks = append(marks, time.Since(t0))
		}
		out.Write(line)
		if err == io.EOF {
			break
		}
		if err != nil {
			cmd.Process.Kill()
			cmd.Wait()
			return regen{}, err
		}
	}
	werr := cmd.Wait()
	g := regen{out: out.Bytes(), wall: time.Since(t0)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		g.rssKB = ru.Maxrss
	}
	for i, m := range marks {
		next := g.wall
		if i+1 < len(marks) {
			next = marks[i+1]
		}
		g.figs = append(g.figs, next-m)
	}
	if werr != nil {
		return g, fmt.Errorf("figures: %v: %s", werr, stderr.String())
	}
	return g, nil
}

// figureHeaders lists the figure IDs in the order the output names them.
func figureHeaders(out []byte) []string {
	var ids []string
	for _, line := range strings.Split(string(out), "\n") {
		if id, ok := strings.CutPrefix(line, "==== Figure "); ok {
			ids = append(ids, strings.TrimSuffix(id, " ===="))
		}
	}
	return ids
}

// countDiff counts the lines at which a and z differ.
func countDiff(a, z []string) int {
	n := max(len(a), len(z)) - min(len(a), len(z))
	for i := 0; i < min(len(a), len(z)); i++ {
		if a[i] != z[i] {
			n++
		}
	}
	return n
}

func digest64(b []byte) int64 {
	h := sha256.Sum256(b)
	return int64(binary.BigEndian.Uint64(h[:8]))
}

func runFigures(b *bench) error {
	bin := filepath.Join(b.bin, "figures")
	golden, err := os.ReadFile(filepath.Join(b.root, "figures_output.txt"))
	if err != nil {
		return err
	}

	// Set-up is what the command does before its first figure: process
	// start, runtime and package initialization. An unknown figure name
	// makes it exit right there.
	if err := b.setup(9, false, func(bool) (func(), error) {
		out, err := exec.Command(bin, "-fig", "none").CombinedOutput()
		if !strings.Contains(string(out), "unknown figure") {
			return nil, fmt.Errorf("figures -fig none: %v: %s", err, out)
		}
		return nil, nil
	}); err != nil {
		return err
	}

	var (
		walls, peaks []float64
		perFig       = make([][]float64, len(figureIDs))
		first        []byte
		unstable     int
	)
	for n := 0; n < max(3, int(b.seconds/figureRegenSeconds+0.5)); n++ {
		span := b.tr.begin("figures.regen", int64(n), -1)
		g, err := regenerate(bin, b.seed, b.workers)
		if err != nil {
			return err
		}
		b.tr.end(span)
		b.attempted++
		ids := figureHeaders(g.out)
		ok := strings.Join(ids, " ") == strings.Join(figureIDs, " ") && len(g.figs) == len(figureIDs)
		b.check(ok, "regeneration %d printed figures %v", n, ids)
		if b.seed == goldenSeed {
			same := bytes.Equal(g.out, golden)
			b.check(same, "regeneration %d at seed %d differs from figures_output.txt", n, goldenSeed)
			ok = ok && same
		}
		if first == nil {
			first = g.out
		} else {
			a, z := stableOutput(first), stableOutput(g.out)
			same := slices.Equal(a, z)
			b.check(same, "regeneration %d differs from regeneration 0 at seed %d", n, b.seed)
			ok = ok && same
			unstable += countDiff(strings.Split(string(first), "\n"), strings.Split(string(g.out), "\n"))
		}
		if !ok {
			b.failed++
			continue
		}
		walls = append(walls, g.wall.Seconds())
		peaks = append(peaks, float64(g.rssKB)/1024)
		if b.tr != nil {
			// The figure spans are the header-to-header intervals above,
			// placed under their regeneration.
			l := b.tr.log(int64(n), span)
			at := b.tr.spans[span].Start + g.wall - sum(g.figs)
			for i, d := range g.figs {
				l.spans = append(l.spans, Span{Name: "experiments.fig." + figureIDs[i], ID: int64(n), Parent: -1, Start: at, End: at + d})
				at += d
			}
			l.close()
		}
		for i, d := range g.figs {
			perFig[i] = append(perFig[i], d.Seconds())
		}
	}
	if len(walls) == 0 {
		return fmt.Errorf("no regeneration passed its checks")
	}
	b.e2e["wall_s"] = median(walls)
	b.note("wall_s", median(walls), fmt.Sprintf("s (median of %d regenerations)", len(walls)))
	b.peakRSS(peaks, "the figures process's peak RSS")
	for i, id := range figureIDs {
		b.layer["experiments.fig_s."+id] = median(perFig[i])
	}
	b.counters["figures.digest"] = digest64([]byte(strings.Join(stableOutput(first), "\n")))
	b.note("figures_unstable_lines", float64(unstable), "lines that differ between regenerations in the masked MP3 columns")

	// The MP3 replay recomputes the four MP3 figures' replicas in this
	// process, where the audio and engine layers can be counted.
	rep, err := mp3Replay(b.seed, b.workers, nil)
	if err != nil {
		return err
	}
	b.checkFig48(first, rep)
	b.counters["core.tx"] = rep.tx
	b.counters["core.rounds"] = rep.rounds
	b.counters["audio.frames"] = rep.frames
	b.counters["audio.setup_calls"] = rep.setups
	b.note("mp3_replay_s", rep.wall.Seconds(), fmt.Sprintf("s (%d replicas, untraced)", rep.setups))
	b.latency("mp3_replica", split(rep.durs, mp3Windows))
	if b.tr == nil {
		return nil
	}

	traced, err := mp3Replay(b.seed, b.workers, b.tr)
	if err != nil {
		return err
	}
	diverged, energy := traced.compare(rep)
	b.check(diverged == 0, "%d traced MP3 replicas diverged from the untraced replay", diverged)
	b.note("mp3_energy_differs", float64(energy), fmt.Sprintf("of %d replicas between the two replays (map-order bit counts)", traced.setups))
	step := b.tr.stats("core.Step")
	busy := b.tr.stats("sim.replica")
	runs := b.tr.stats("sim.Run")
	var callbacks time.Duration
	for _, st := range []string{"audio.psycho", "audio.mdct", "audio.encode", "app.stage"} {
		callbacks += b.tr.stats(st).total
	}
	b.layer["sim.busy_frac"] = busy.total.Seconds() / (runs.total.Seconds() * float64(b.workers))
	b.layer["audio.setup_s"] = b.tr.stats("audio.setup").total.Seconds()
	b.layer["audio.setup_calls"] = float64(traced.setups)
	b.layer["audio.psycho_s"] = b.tr.stats("audio.psycho").self.Seconds()
	b.layer["audio.mdct_s"] = b.tr.stats("audio.mdct").self.Seconds()
	b.layer["audio.encode_s"] = b.tr.stats("audio.encode").self.Seconds()
	b.layer["audio.frames"] = float64(traced.frames)
	b.layer["core.step_self_s"] = (step.total - callbacks).Seconds()
	b.layer["core.rounds"] = float64(traced.rounds)
	b.layer["core.tx"] = float64(traced.tx)
	b.layer["trace_overhead_frac"] = traced.wall.Seconds()/rep.wall.Seconds() - 1
	return nil
}

// mp3Sweeps are the configurations and replica counts behind figures
// 4-8 to 4-11 at -runs 10, as cmd/figures passes them to
// internal/experiments.
func mp3Sweeps() (cfgs []core.Config) {
	ps := []float64{0.25, 0.4, 0.55, 0.7, 0.85, 1}
	for _, p := range ps {
		for _, pu := range []float64{0, 0.2, 0.4, 0.6, 0.8} {
			cfgs = append(cfgs, core.Config{P: p, Fault: fault.Model{PUpset: pu}})
		}
	}
	for _, p := range ps {
		cfgs = append(cfgs, core.Config{P: p})
	}
	for _, drops := range [][]float64{{0, 0.2, 0.4, 0.6, 0.8, 0.9}, {0, 0.2, 0.4, 0.6, 0.8}} {
		for _, x := range drops {
			cfgs = append(cfgs, core.Config{P: 0.75, Fault: fault.Model{POverflow: x}})
		}
		for _, s := range []float64{0, 0.5, 1, 1.5, 2} {
			cfgs = append(cfgs, core.Config{P: 0.75, Fault: fault.Model{SigmaSync: s}})
		}
	}
	return cfgs
}

// mp3Replicas is the replica count cmd/figures gives each MP3 point.
const mp3Replicas = figureRuns/2 + 1

type mp3Outcome struct {
	rounds    int
	completed bool
	energyJ   float64
	frames    int
	tx        int
	dur       time.Duration // the replica body's host time
}

type mp3Result struct {
	outcomes                   [][]mp3Outcome  // per configuration, per replica
	durs                       []time.Duration // each replica body, in replica order
	tx, rounds, frames, setups int64
	wall                       time.Duration
}

// compare counts the replicas whose exact counts (rounds, completion,
// frames, transmissions) differ from o's, and those whose energy does.
// Energy is not an exact count here: the encoding stage walks a map of
// waiting frames, so the bits it sends vary from run to run by a few
// parts per million.
func (r mp3Result) compare(o mp3Result) (counts, energy int) {
	for i := range r.outcomes {
		for j, a := range r.outcomes[i] {
			x := o.outcomes[i][j]
			if a.rounds != x.rounds || a.completed != x.completed || a.frames != x.frames || a.tx != x.tx {
				counts++
			}
			if a.energyJ != x.energyJ {
				energy++
			}
		}
	}
	return counts, energy
}

// mp3Replay reruns every MP3 replica of figures 4-8 to 4-11 through
// sim.Run, building each one as the experiments package does. With a
// tracer it records the replica body, mp3.Setup, every Network.Step and
// every stage callback, the latter by re-attaching each stage tile's
// process inside a timing wrapper.
func mp3Replay(seed uint64, workers int, tr *tracer) (mp3Result, error) {
	cfgs := mp3Sweeps()
	res := mp3Result{outcomes: make([][]mp3Outcome, len(cfgs))}
	t0 := time.Now()
	for ci, base := range cfgs {
		span := tr.begin("sim.Run", int64(ci), -1)
		outs, err := sim.Run(sim.Config{Replicas: mp3Replicas, Workers: workers, Seed: seed},
			func(r int, rseed uint64) (mp3Outcome, error) {
				t0 := time.Now()
				o, err := mp3Replica(base, rseed, tr.log(int64(ci*mp3Replicas+r), span))
				o.dur = time.Since(t0)
				return o, err
			})
		tr.end(span)
		if err != nil {
			return res, err
		}
		res.outcomes[ci] = outs
		for _, o := range outs {
			res.durs = append(res.durs, o.dur)
			res.tx += int64(o.tx)
			res.rounds += int64(o.rounds)
			res.frames += int64(o.frames)
			res.setups++
		}
	}
	res.wall = time.Since(t0)
	return res, nil
}

// mp3Replica is one replica as experiments.runMP3 builds it.
func mp3Replica(cfg core.Config, seed uint64, l *spanLog) (mp3Outcome, error) {
	cfg.Topo = topology.NewGrid(4, 4)
	cfg.Seed = seed
	cfg.TTL = 20
	cfg.MaxRounds = 1500
	l.begin("sim.replica")
	net, err := core.New(cfg)
	if err != nil {
		return mp3Outcome{}, err
	}
	l.begin("audio.setup")
	tiles := mp3.DefaultTiles()
	pipe, err := mp3.Setup(net, tiles, encoder.Config{}, signal.DefaultProgram(), experiments.MP3Frames)
	l.end()
	if err != nil {
		return mp3Outcome{}, err
	}
	var res core.Result
	if l == nil {
		res = net.Run()
	} else {
		stage := map[packet.TileID]string{tiles.Psycho: "audio.psycho", tiles.MDCT: "audio.mdct", tiles.Encoding: "audio.encode"}
		for _, t := range []packet.TileID{tiles.Acquisition, tiles.Psycho, tiles.MDCT, tiles.Encoding, tiles.Reservoir, tiles.Output} {
			name, ok := stage[t]
			if !ok {
				name = "app.stage"
			}
			net.Attach(t, clocked(net.Process(t), l, name))
		}
		// The loop of core.Network.Run, with each Step in a span.
		for net.Round() < cfg.MaxRounds {
			l.begin("core.Step")
			net.Step()
			l.end()
			if net.Completed() {
				res.Completed = true
				break
			}
		}
		res.Rounds, res.Counters = net.Round(), net.Counters()
	}
	l.end()
	l.close()
	return mp3Outcome{
		rounds: res.Rounds, completed: res.Completed,
		energyJ: res.Counters.Energy.EnergyJ(energy.NoCLink025),
		frames:  pipe.Output().FramesReceived,
		tx:      res.Counters.Energy.Transmissions,
	}, nil
}

// clocked wraps a stage process so each callback is a span, keeping the
// optional Receiver and Completer interfaces the engine looks for.
func clocked(p core.Process, l *spanLog, name string) core.Process {
	c := clockedProc{p: p, l: l, name: name}
	rv, isRecv := p.(core.Receiver)
	cp, isDone := p.(core.Completer)
	switch {
	case isRecv && isDone:
		return &struct {
			clockedProc
			clockedRecv
			core.Completer
		}{c, clockedRecv{rv, l, name}, cp}
	case isRecv:
		return &struct {
			clockedProc
			clockedRecv
		}{c, clockedRecv{rv, l, name}}
	case isDone:
		return &struct {
			clockedProc
			core.Completer
		}{c, cp}
	}
	return &c
}

type clockedProc struct {
	p    core.Process
	l    *spanLog
	name string
}

func (c *clockedProc) Init(ctx *core.Ctx) {
	c.l.begin(c.name)
	c.p.Init(ctx)
	c.l.end()
}

func (c *clockedProc) Round(ctx *core.Ctx) {
	c.l.begin(c.name)
	c.p.Round(ctx)
	c.l.end()
}

type clockedRecv struct {
	r    core.Receiver
	l    *spanLog
	name string
}

func (c clockedRecv) Receive(ctx *core.Ctx, p *packet.Packet) {
	c.l.begin(c.name)
	c.r.Receive(ctx, p)
	c.l.end()
}

// checkFig48 checks the replay against the regenerated output: Fig.
// 4-8's latency rows, recomputed from the replayed replicas, must appear
// in it.
func (b *bench) checkFig48(out []byte, rep mp3Result) {
	rows := map[string]bool{}
	for _, line := range strings.Split(section(string(out), "4-8"), "\n") {
		rows[strings.Join(strings.Fields(line), " ")] = true
	}
	ps := []float64{0.25, 0.4, 0.55, 0.7, 0.85, 1}
	upsets := []float64{0, 0.2, 0.4, 0.6, 0.8}
	for k, outs := range rep.outcomes[:len(ps)*len(upsets)] {
		var lat stats.Online
		completed := 0
		for _, o := range outs {
			if o.completed {
				completed++
				lat.Add(float64(o.rounds))
			}
		}
		l := "DNF"
		if s := stats.Summarize(&lat); s.N > 0 {
			l = fmt.Sprintf("%.0f ±%.0f", s.Mean, s.StdDev)
		}
		want := strings.Join(strings.Fields(fmt.Sprintf("%.2f\t%.2f\t%s\t%.0f%%",
			ps[k/len(upsets)], upsets[k%len(upsets)], l, 100*float64(completed)/float64(len(outs)))), " ")
		b.check(rows[want], "MP3 replay does not reproduce Fig. 4-8 row %q", want)
	}
}

// section returns the output of one figure.
func section(out, id string) string {
	head := "==== Figure " + id + " ====\n"
	i := strings.Index(out, head)
	if i < 0 {
		return ""
	}
	rest := out[i+len(head):]
	if j := strings.Index(rest, "==== Figure "); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// stableOutput is a regeneration's output as runs of one seed can
// compare it: whitespace normalized, and the columns that depend on how
// many bits the MP3 encoder sent masked — Fig. 4-9's energy and Fig.
// 4-11's bit-rate. Those vary from run to run (README.md, "A defect the
// benchmark found"); everything else must repeat exactly.
func stableOutput(out []byte) []string {
	var lines []string
	fig := ""
	for _, line := range strings.Split(string(out), "\n") {
		if id, ok := strings.CutPrefix(line, "==== Figure "); ok {
			fig = strings.TrimSuffix(id, " ====")
		}
		f := strings.Fields(line)
		if len(f) >= 3 && (fig == "4-9" || fig == "4-11") {
			if _, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "%"), 64); err == nil {
				f[1] = "#"
				if fig == "4-9" {
					f[2] = "#"
				}
			}
		}
		lines = append(lines, strings.Join(f, " "))
	}
	return lines
}
