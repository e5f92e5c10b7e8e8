package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/experiments"
	"repro/internal/gossip"
	"repro/internal/packet"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/smc"
	"repro/internal/topology"
)

// The smc_verify workload runs, for a sequence of study seeds derived
// from the workload seed, the SPRT cross-validation of
// experiments.SMCStudy (8 verdicts against exact laws) and the
// fixed-effort splitting estimate of experiments.SMCSplitStudy.
const (
	// smcBlock is the number of study seeds whose pooled splitting
	// estimate is checked.
	smcBlock = 32
	// smcSeedsPerSec is the study seed count per second of --seconds:
	// about this commit's rate on two cores.
	smcSeedsPerSec = 7
	// smcWindow is the number of study seeds in one measurement window.
	smcWindow = 20
	// smcSplitFactor bounds the pooled splitting estimate: it must lie
	// within this factor of the exact flood-law probability.
	smcSplitFactor = 2
	// smcTraced is the number of study seeds the traced pass records.
	smcTraced = 8
	// smcSetupBatch is the number of case builds one timed set-up makes.
	smcSetupBatch = 20
)

// smcCase is one verdict of the cross-validation: a property with an
// exactly known probability, checked at a threshold below (expect
// accept) or above (expect reject) it.
type smcCase struct {
	model  smc.Model
	prop   smc.Property
	truth  float64
	offset uint64 // the case's seed offset in experiments.SMCStudy
	theta  float64
	accept bool
}

// smcCases mirrors experiments.SMCStudy's cases in its order, so each
// smc.Check call can be timed on its own.
func smcCases() []smcCase {
	const margin = 0.12
	type fabric struct {
		model smc.Model
		prop  smc.AwareProp
		truth float64
	}
	var fabrics []fabric
	for _, c := range []struct {
		n, k, rounds int
		p            float64
	}{{16, 6, 2, 0.1}, {12, 9, 3, 0.15}} {
		fabrics = append(fabrics, fabric{
			model: smc.BroadcastModel(core.Config{Topo: topology.NewFullyConnected(c.n), P: c.p, TTL: 64, MaxRounds: c.rounds + 2}, 0, energy.Technology{}),
			prop:  smc.AwareFraction(float64(c.k) / float64(c.n)).Within(c.rounds),
			truth: gossip.FloodReachProb(c.n, c.p, c.k, c.rounds),
		})
	}
	for _, side := range []int{4, 8} {
		g := topology.NewGrid(side, side)
		fabrics = append(fabrics, fabric{
			model: smc.BroadcastModel(core.Config{Topo: g, P: 0.8, TTL: 64, MaxRounds: 4}, g.ID(side/2, side/2), energy.Technology{}),
			prop:  smc.AwareFraction(5.0 / float64(side*side)).Within(1),
			truth: math.Pow(0.8, 4),
		})
	}
	var cases []smcCase
	for i, f := range fabrics {
		for j, theta := range []float64{f.truth - margin, f.truth + margin} {
			cases = append(cases, smcCase{model: f.model, prop: f.prop, truth: f.truth,
				offset: uint64(i), theta: theta, accept: j == 0})
		}
	}
	return cases
}

// checkConfig is the SPRT configuration experiments.SMCStudy uses.
func checkConfig(theta float64, workers int, seed uint64) smc.CheckConfig {
	return smc.CheckConfig{Theta: theta, Delta: 0.02, Alpha: 0.01, Beta: 0.01, Workers: workers, Seed: seed}
}

// The splitting study's model and levels, as experiments.SMCSplitStudy
// sets them.
const (
	splitN, splitP, splitHorizon = 16, 0.025, 6
	splitEffort                  = 512
)

var splitLevels = []float64{3.0 / 16, 6.0 / 16, 9.0 / 16, 12.0 / 16, 14.0 / 16, 1}

func splitModel() smc.Model {
	return smc.BroadcastModel(core.Config{Topo: topology.NewFullyConnected(splitN), P: splitP, TTL: 64, MaxRounds: splitHorizon}, 0, energy.Technology{})
}

func runSMC(b *bench) error {
	// Set-up builds the cases and their exact laws. One build takes tens
	// of microseconds, so each timed set-up is smcSetupBatch builds.
	var cases []smcCase
	var truth float64
	if err := b.setup(15, false, func(bool) (func(), error) {
		for i := 0; i < smcSetupBatch; i++ {
			cases = smcCases()
			truth = gossip.FloodReachProb(splitN, splitP, splitN, splitHorizon)
		}
		return nil, nil
	}); err != nil {
		return err
	}
	for i := range b.setups {
		b.setups[i] /= smcSetupBatch
	}
	budget := checkConfig(0, 0, 0).Alpha + checkConfig(0, 0, 0).Beta

	// The mirrored cases must give exactly the study's verdicts.
	rows, err := experiments.SMCStudy(sim.Config{Workers: b.workers, Seed: mix(b.seed, 0)})
	if err != nil {
		return err
	}

	var (
		verdicts, splits, studies []time.Duration
		replicas, trajectories    int64
		disagree                  int
		pooled                    float64
		first                     []smc.Report
		peaks                     []float64
	)
	windows := max(2, int(smcSeedsPerSec*b.seconds)/smcWindow)
	if err := resetPeakRSS(); err != nil {
		return err
	}
	for k := 0; k < windows*smcWindow; k++ {
		if k > 0 && k%smcWindow == 0 {
			rss, err := peakRSSMB()
			if err != nil {
				return err
			}
			peaks = append(peaks, rss)
			if err := resetPeakRSS(); err != nil {
				return err
			}
		}
		seed := mix(b.seed, uint64(k))
		t0 := time.Now()
		for _, c := range cases {
			t := time.Now()
			rep, err := smc.Check(c.prop, c.model.Replica(c.prop), checkConfig(c.theta, b.workers, seed+c.offset))
			verdicts = append(verdicts, time.Since(t))
			if err != nil {
				return err
			}
			b.attempted++
			want := smc.Rejected
			if c.accept {
				want = smc.Accepted
			}
			if rep.Verdict != want {
				disagree++
				b.failed++
			}
			if k == 0 {
				first = append(first, rep)
			}
			replicas += int64(rep.Replicas)
		}
		t := time.Now()
		res, exact, err := experiments.SMCSplitStudy(seed)
		splits = append(splits, time.Since(t))
		studies = append(studies, time.Since(t0))
		if err != nil {
			return err
		}
		b.attempted++
		b.check(exact == truth, "SMCSplitStudy's exact probability %g differs from the flood law %g", exact, truth)
		trajectories += int64(res.Trajectories)
		if k < smcBlock {
			pooled += res.Probability / smcBlock
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	peaks = append(peaks, rss)

	for i, row := range rows {
		lo, hi := first[2*i], first[2*i+1]
		b.check(row.Low.Verdict == lo.Verdict && row.Low.Replicas == lo.Replicas &&
			row.High.Verdict == hi.Verdict && row.High.Replicas == hi.Replicas,
			"mirrored SMC case %s differs from experiments.SMCStudy", row.Fabric)
	}
	b.check(float64(disagree) <= budget*float64(len(verdicts)),
		"%d of %d SPRT verdicts disagree with the exact law (budget α+β = %g)", disagree, len(verdicts), budget)
	b.check(pooled > truth/smcSplitFactor && pooled < truth*smcSplitFactor,
		"pooled splitting estimate %.3e over %d seeds is not within %gx of the exact %.3e", pooled, smcBlock, float64(smcSplitFactor), truth)

	// Snapshot layer: the first study seed's splitting, replayed with
	// every level crossing's Snapshot and every fork's Restore.
	snap, err := replaySplit(mix(b.seed, 0), nil)
	if err != nil {
		return err
	}
	ref, _, err := experiments.SMCSplitStudy(mix(b.seed, 0))
	if err != nil {
		return err
	}
	b.check(snap.trajectories == ref.Trajectories && fmt.Sprint(snap.hits) == fmt.Sprint(ref.Hits),
		"split replay (%d trajectories, hits %v) differs from smc.Split (%d, %v)", snap.trajectories, snap.hits, ref.Trajectories, ref.Hits)

	b.counters["smc.verdicts"] = int64(len(verdicts))
	b.counters["smc.replicas"] = replicas
	b.counters["smc.split_trajectories"] = trajectories
	b.counters["smc.disagreements"] = int64(disagree)
	b.counters["snapshot.bytes"] = snap.bytes

	sd := durDist(studies, time.Second)
	b.e2e["wall_s"] = sd.median()
	b.note("wall_s", sd.median(), fmt.Sprintf("s per study seed (median of %d: %d verdicts + 1 split)", sd.n(), len(cases)))
	b.latency("verdict", split(verdicts, windows))
	b.notePct("split_p50_ms", durDist(splits, time.Millisecond), 50, "ms")
	b.note("split_estimate", pooled, fmt.Sprintf("(pooled over %d seeds; exact %.4e)", smcBlock, truth))
	b.peakRSS(peaks, "the process's VmHWM")

	b.layer["smc.replicas_per_verdict"] = float64(replicas) / float64(len(verdicts))
	b.layer["smc.split_trajectories"] = float64(trajectories)
	b.layer["snapshot.bytes"] = float64(snap.bytes)
	if b.tr == nil {
		return nil
	}

	// Traced pass: smcTraced study seeds with every smc.Replica call and
	// the first one's splitting replay in spans.
	t0 := time.Now()
	for k := 0; k < smcTraced; k++ {
		seed := mix(b.seed, uint64(k))
		for ci, c := range cases {
			span := b.tr.begin("smc.Check", int64(k*len(cases)+ci), -1)
			inner := c.model.Replica(c.prop)
			replica := func(r int, s uint64) (bool, error) {
				l := b.tr.log(int64(r), span)
				l.begin("smc.Replica")
				ok, err := inner(r, s)
				l.end()
				l.close()
				return ok, err
			}
			rep, err := smc.Check(c.prop, replica, checkConfig(c.theta, b.workers, seed+c.offset))
			b.tr.end(span)
			if err != nil {
				return err
			}
			if k == 0 {
				b.check(rep.Replicas == first[ci].Replicas && rep.Verdict == first[ci].Verdict,
					"traced check %d differs from the untraced one", ci)
			}
		}
	}
	traced := time.Since(t0).Seconds() / smcTraced
	var verdictOnly float64
	for k := 0; k < smcTraced; k++ {
		verdictOnly += (studies[k] - splits[k]).Seconds() / smcTraced
	}
	b.layer["trace_overhead_frac"] = traced/verdictOnly - 1
	b.layer["smc.replica_us"] = durDist(b.tr.stats("smc.Replica").durs, time.Microsecond).median()

	tsnap, err := replaySplit(mix(b.seed, 0), b.tr)
	if err != nil {
		return err
	}
	b.check(tsnap.bytes == snap.bytes, "traced split replay wrote %d snapshot bytes, untraced %d", tsnap.bytes, snap.bytes)
	b.layer["snapshot.encode_us"] = durDist(b.tr.stats("core.Snapshot").durs, time.Microsecond).median()
	b.layer["snapshot.decode_us"] = durDist(b.tr.stats("core.Restore").durs, time.Microsecond).median()
	return nil
}

type splitReplay struct {
	trajectories int
	hits         []int
	bytes        int64
}

// replaySplit re-runs smc.Split's fixed-effort splitting for the study
// model with the same seed derivation, so that each level crossing's
// Network.Snapshot and each fork's core.Restore can be timed.
func replaySplit(seed uint64, tr *tracer) (splitReplay, error) {
	model := splitModel()
	out := splitReplay{hits: make([]int, len(splitLevels))}
	l := tr.log(int64(seed), -1)
	defer l.close()
	type branch struct {
		state    []byte
		rootSeed uint64
		msg      packet.MsgID
	}
	// advance steps net until the aware fraction reaches level, then
	// snapshots it.
	advance := func(net *core.Network, b branch, level float64) (branch, bool, error) {
		for {
			if smc.AwareScore(net, b.msg) >= level {
				var buf bytes.Buffer
				l.begin("core.Snapshot")
				err := net.Snapshot(&buf)
				l.end()
				if err != nil {
					return b, false, err
				}
				b.state = buf.Bytes()
				out.bytes += int64(buf.Len())
				return b, true, nil
			}
			if net.Round() >= splitHorizon || net.Quiescent() {
				return b, false, nil
			}
			net.Step()
		}
	}
	root := rng.New(seed)
	var parents []branch
	for lv, level := range splitLevels {
		stage := root.Split(uint64(lv) + 1)
		var crossed []branch
		for j := 0; j < splitEffort; j++ {
			s := stage.Split(uint64(j) + 1).Uint64()
			cfg := model.Config
			var (
				net *core.Network
				b   branch
				err error
			)
			if lv == 0 {
				cfg.Seed = s
				if net, err = core.New(cfg); err != nil {
					return out, err
				}
				msg, err := net.Inject(model.Source, model.Dest, 0, make([]byte, 16))
				if err != nil {
					return out, err
				}
				b = branch{rootSeed: s, msg: msg}
			} else {
				p := parents[j%len(parents)]
				cfg.Seed = p.rootSeed
				l.begin("core.Restore")
				net, err = core.Restore(bytes.NewReader(p.state), cfg)
				l.end()
				if err != nil {
					return out, err
				}
				net.Reseed(s)
				b = branch{rootSeed: p.rootSeed, msg: p.msg}
			}
			nb, hit, err := advance(net, b, level)
			if err != nil {
				return out, err
			}
			out.trajectories++
			if hit {
				crossed = append(crossed, nb)
			}
		}
		out.hits[lv] = len(crossed)
		if len(crossed) == 0 {
			return out, nil
		}
		parents = crossed
	}
	return out, nil
}
