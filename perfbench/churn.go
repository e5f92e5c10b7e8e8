package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/topology"
)

// The mesh_churn workload is the experiments.MegaChurn set-up behind
// `figures -fig scaling`, at 256×256 tiles with 8 fresh broadcasts per
// round, driven round by round so that each round can be timed.
const (
	churnSide     = 256
	churnPerRound = 8
	churnTTL      = 16
	// churnBlock is the round at which the live-population checks run:
	// 4800 messages injected by then.
	churnBlock = 600
	// churnRoundsPerSec is the timed round count per second of
	// --seconds: about this commit's rate on two cores.
	churnRoundsPerSec = 90
	// churnWarmup rounds fill the live population before timing starts.
	churnWarmup = 2 * churnTTL
	// churnWindow is the number of rounds wall_s is quoted for.
	churnWindow = 100
	// churnWinRounds is the length of one measurement window.
	churnWinRounds = 300
	// churnTraced is the number of rounds the traced pass records.
	churnTraced = 300
)

func runChurn(b *bench) error {
	tiles := churnSide * churnSide
	cfg := core.Config{
		Topo: topology.NewGrid(churnSide, churnSide), P: 0.5, TTL: churnTTL,
		MaxRounds: 1 << 30, Seed: b.seed, Recycle: true,
		Shards: sim.Config{Replicas: 1}.AutoShards(tiles),
	}
	var net *core.Network
	if err := b.setup(5, true, func(keep bool) (func(), error) {
		n, err := core.New(cfg)
		if keep {
			net = n
		}
		return nil, err
	}); err != nil {
		return err
	}
	b.note("shards", float64(cfg.Shards), "")

	offset := int(mix(b.seed, 1) % uint64(tiles))
	round := 0
	// step runs one churn round: the round's fresh broadcasts, then the
	// engine round. It returns the time spent in each.
	step := func(l *spanLog) (inject, stepT time.Duration, err error) {
		l.begin("churn.round")
		t0 := time.Now()
		l.begin("core.Inject")
		for i := 0; i < churnPerRound; i++ {
			src := packet.TileID((round*churnPerRound*2654435761 + i*40503 + offset) % tiles)
			if _, err = net.Inject(src, packet.Broadcast, 0, nil); err != nil {
				return
			}
		}
		l.end()
		t1 := time.Now()
		l.begin("core.Step")
		net.Step()
		l.end()
		l.end()
		round++
		return t1.Sub(t0), time.Since(t1), nil
	}

	var (
		rounds   []time.Duration
		walls    []float64
		peaks    []float64
		midSlots int
		rt0      rtStats
		win      time.Duration
	)
	windows := max(2, int(churnRoundsPerSec*b.seconds)/churnWinRounds)
	total := churnWarmup + windows*churnWinRounds
	for round < total {
		if round == churnWarmup {
			rt0 = readRuntime()
			if err := resetPeakRSS(); err != nil {
				return err
			}
		}
		inj, st, err := step(nil)
		if err != nil {
			return err
		}
		if round > churnWarmup {
			rounds = append(rounds, inj+st)
			win += inj + st
			if (round-churnWarmup)%churnWinRounds == 0 {
				rss, err := peakRSSMB()
				if err != nil {
					return err
				}
				peaks = append(peaks, rss)
				walls = append(walls, win.Seconds()/churnWinRounds*churnWindow)
				win = 0
				if err := resetPeakRSS(); err != nil {
					return err
				}
			}
		}
		switch round {
		case churnBlock / 2:
			midSlots = net.Mem().Slots
		case churnBlock:
			c, m := net.Counters(), net.Mem()
			injected := churnBlock * churnPerRound
			b.check(c.Retired+m.Live == injected, "retired %d + live %d != injected %d", c.Retired, m.Live, injected)
			b.check(midSlots == m.Slots, "slots grew from %d mid-run to %d", midSlots, m.Slots)
		}
	}
	rt1 := readRuntime()
	b.attempted = int64(round)
	c, m := net.Counters(), net.Mem()
	b.check(c.Retired+m.Live == round*churnPerRound, "retired %d + live %d != injected %d", c.Retired, m.Live, round*churnPerRound)
	b.check(midSlots == m.Slots, "slots grew from %d mid-run to %d at the end", midSlots, m.Slots)
	b.counters["core.rounds"] = int64(net.Round())
	b.counters["core.tx"] = int64(c.Energy.Transmissions)
	b.counters["core.retired"] = int64(c.Retired)
	b.counters["core.live"] = int64(m.Live)
	b.counters["core.slots"] = int64(m.Slots)
	b.counters["core.table_bytes"] = int64(m.TableBytes)

	b.e2e["wall_s"] = median(walls)
	b.note("wall_s", median(walls), fmt.Sprintf("s per %d rounds (median over %d windows of %d rounds)", churnWindow, windows, churnWinRounds))
	b.note("rounds_per_s", churnWindow/median(walls), fmt.Sprintf("rounds/s at %d tiles", tiles))
	b.latency("round", split(rounds, windows))
	b.peakRSS(peaks, "the process's VmHWM")
	b.layer["core.rounds"] = float64(b.counters["core.rounds"])
	b.layer["core.tx"] = float64(b.counters["core.tx"])
	b.layer["core.retired"] = float64(b.counters["core.retired"])
	b.layer["core.slots"] = float64(b.counters["core.slots"])
	b.layer["core.table_bytes_per_tile"] = float64(b.counters["core.table_bytes"]) / float64(tiles)
	b.layer["go.alloc_bytes_per_round"] = (rt1.allocs - rt0.allocs) / float64(len(rounds))
	b.layer["go.gc_cpu_frac"] = gcFrac(rt0, rt1)
	if b.tr == nil {
		return nil
	}

	// Traced pass: the same network keeps churning, alternating blocks
	// of untraced rounds with blocks whose Inject and Step calls are in
	// spans, so both see the same heap.
	var untraced, traced []float64
	for k := 0; k < tracedPairs; k++ {
		for _, tr := range []*tracer{nil, b.tr} {
			t0 := time.Now()
			for i := 0; i < churnTraced/tracedPairs; i++ {
				l := tr.log(int64(round), -1)
				if _, _, err := step(l); err != nil {
					return err
				}
				l.close()
			}
			per := time.Since(t0).Seconds()
			if tr == nil {
				untraced = append(untraced, per)
			} else {
				traced = append(traced, per)
			}
		}
	}
	steps := b.tr.stats("core.Step")
	sd := durDist(steps.durs, time.Millisecond)
	b.layer["core.step_p50_ms"] = sd.median()
	b.layer["core.step_p95_ms"] = sd.pct(95)
	b.layer["core.inject_s"] = b.tr.stats("core.Inject").total.Seconds()
	b.layer["trace_overhead_frac"] = median(traced)/median(untraced) - 1
	return nil
}
