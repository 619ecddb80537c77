package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime/metrics"
	"time"

	"tqec/internal/bench"
	"tqec/internal/compress"
	"tqec/internal/decompose"
	"tqec/internal/drc"
	"tqec/internal/icm"
	"tqec/internal/journal"
	"tqec/internal/obs"
	"tqec/internal/revlib"
)

// pipelineCircuits are the pipeline workloads' classes, in the order of
// their latency_N_ms, volume_N and placed_volume_N metrics: the embedded
// toffoli3 sample, a hand-written circuit where the others are generated,
// then the first three Table-1 rows, the set BENCH_seed.json records.
// Their sizes (20, 199, 390 and 1378 placement items) show how a change to
// place or route scales. The paper's Fig. 1 circuit is not among them:
// its 0.05 ms compile moved by 15-20% from run to run, even in batches,
// so it is checked at set-up only.
var pipelineCircuits = []string{"toffoli3", "4gt10-v1_81", "4gt4-v0_73", "rd84_142"}

// circuitGenSeed is the Table-1 generator seed. It stays fixed so that the
// circuits are the reproductions EXPERIMENTS.md and BENCH_seed.json
// report: their volumes differ by up to a half from one generator seed to
// the next, which would swamp any change a run is meant to show.
const circuitGenSeed = 1

// placementPool is the number of placement (SA) seeds, 1 to placementPool,
// every run compiles each circuit with. The placement changes a routed
// compile's time by about a fifth and its volume by about a sixth, so a
// run that compiled only some of them would measure which ones it
// reached, and a faster compile would reach more. Every run compiles all
// of them, whatever the machine's speed, and the workload seed orders
// them; a circuit's latency and volumes are means over the pool.
const placementPool = 4

// pipelineSetups is how many times a run builds its inputs; setup_s is
// the median. One build takes well under a millisecond, so many are
// needed for a median that repeats.
const pipelineSetups = 200

// routeCapacityRule is the design rule that fails when the router ends
// with overflowed cells. At EffortFast that happens on a few percent of
// compiles of the two smaller Table-1 circuits, and for the same input it
// comes and goes between runs, because compress.routeNets ranges over a
// map. The benchmark measures it (route.overflow_rate) instead of failing
// the compile; every other design-rule error fails it.
const routeCapacityRule = "route-capacity"

// circuitRun holds one circuit's input and the samples of its untraced
// compiles.
type circuitRun struct {
	name string
	rep  *icm.Rep
	// check tests a compile's result against numbers from the paper; nil
	// for a circuit the paper does not report.
	check func(*compress.Result) error

	// tries counts the measured compiles started; the next one compiles
	// placement seed order[tries % placementPool].
	tries int
	// Per placement seed: the measured compile times, the final volumes,
	// and the placed volume. Placement is seeded, so every compile of an
	// input must place the same volume; routing is not reproducible yet,
	// so final volumes may differ.
	inputMS map[int64][]float64
	volumes map[int64][]int
	placed  map[int64]int

	spent   float64              // measured compile time so far, in ms, failed compiles included
	weight  float64              // share of the measuring time, relative to the other circuits
	ms      []float64            // compile wall-clock per sample
	stageMS map[string][]float64 // Result.StageTimes per sample
	drcMS   []float64
	counts  counters // summed over samples
	alloc   allocCounters
}

// covered reports whether every placement seed of the pool has been
// compiled in the measuring time.
func (c *circuitRun) covered() bool { return c.tries >= placementPool }

// counters sums the work counts of compiles. The first group is in the
// compile report, which the service returns too; the second needs the
// in-process compress.Result.
type counters struct {
	n                                                         int
	volume, placed, merges, nodes, dualComponents, wirelength int
	overflow, overflowed, routeFailed, squeezed               int

	items, moves, accepted, nets, rounds, drcViolations int
}

func (c *counters) addReport(r compress.Report) {
	c.n++
	c.volume += r.Volume
	c.placed += r.PlacedVolume
	c.merges += r.IShapeMerges
	c.nodes += r.Nodes
	c.dualComponents += r.DualComponents
	c.wirelength += r.Wirelength
	c.overflow += r.RouteOverflow
	c.overflowed += min(r.RouteOverflow, 1)
	c.routeFailed += r.RouteFailed
	c.squeezed += r.RouteSqueezed
}

// add records an in-process compile and its design-rule check.
func (c *counters) add(res *compress.Result, drcViolations int) {
	c.addReport(res.Report())
	c.items += len(res.Placement.Input.Items)
	c.moves += res.Placement.SA.Moves
	c.accepted += res.Placement.SA.Accepted
	c.nets += len(res.DRCArtifacts.RouteNets)
	if res.Routing != nil {
		c.rounds += res.Routing.Iters
	}
	c.drcViolations += drcViolations
}

// reportLayers fills the per-layer metrics every workload reads from
// compile reports; per turns one counter into a value per compile the
// way the workload averages. route.ms must be set already.
func reportLayers(pl map[string]float64, per func(func(counters) int) float64) {
	pl["simplify.merges"] = per(func(c counters) int { return c.merges })
	pl["bridge.nodes"] = per(func(c counters) int { return c.nodes })
	pl["bridge.dual_components"] = per(func(c counters) int { return c.dualComponents })
	pl["route.wirelength"] = per(func(c counters) int { return c.wirelength })
	pl["route.us_per_cell"] = ratio(1000*pl["route.ms"], pl["route.wirelength"])
	pl["route.overflow"] = per(func(c counters) int { return c.overflow })
	pl["route.failed"] = per(func(c counters) int { return c.routeFailed })
	pl["route.squeezed"] = per(func(c counters) int { return c.squeezed })
}

// buildCircuits builds the circuits' ICM form: the set-up a user pays
// before the first compile can start.
func buildCircuits(names []string) ([]*circuitRun, func(), error) {
	runs := make([]*circuitRun, 0, len(names))
	for _, name := range names {
		c := &circuitRun{
			name:    name,
			inputMS: map[int64][]float64{},
			volumes: map[int64][]int{},
			placed:  map[int64]int{},
			stageMS: map[string][]float64{},
		}
		if _, ok := revlib.Samples[name]; ok {
			rep, err := sampleICM(name)
			if err != nil {
				return nil, nil, err
			}
			c.rep = rep
		} else {
			spec, ok := bench.ByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("unknown Table-1 circuit %q", name)
			}
			rep, _, err := spec.GenerateICM(circuitGenSeed)
			if err != nil {
				return nil, nil, err
			}
			c.rep = rep
			c.check = func(res *compress.Result) error {
				if res.NumModules != spec.PaperModules {
					return fmt.Errorf("%d PD-graph modules, paper Table 1 has %d", res.NumModules, spec.PaperModules)
				}
				return nil
			}
		}
		runs = append(runs, c)
	}
	return runs, func() {}, nil
}

// sampleICM lowers an embedded sample circuit to its ICM form the way
// compress.CompileContext does.
func sampleICM(name string) (*icm.Rep, error) {
	c, err := revlib.ParseString(revlib.Samples[name])
	if err != nil {
		return nil, err
	}
	lowered, err := decompose.ToCliffordT(c)
	if err != nil {
		return nil, err
	}
	return icm.FromCliffordT(lowered.Circuit)
}

// placementOrder is the order in which a run compiles each circuit's
// placement seeds: a permutation of 1 to placementPool drawn by the
// workload seed, started over when a run has compiled them all. The
// untimed first compile of a circuit takes the first seed too, and so
// does the traced pass, so every run compiles some inputs more than once:
// that checks that placement reproduces and measures how often routing
// does not.
func placementOrder(workloadSeed int64) []int64 {
	perm := rand.New(rand.NewSource(workloadSeed)).Perm(placementPool)
	order := make([]int64, placementPool)
	for i, p := range perm {
		order[i] = int64(p) + 1
	}
	return order
}

// sample is one checked compile.
type sample struct {
	seed          int64
	res           *compress.Result
	ms            float64
	drcMS         float64
	drcViolations int
	allocOp       allocCounters
}

// compile runs the pipeline once on c, times the call, runs the
// design-rule checker over the result outside the timed call, and checks
// the output. It returns false when the compile failed or its output is
// wrong; the failure is counted in out. When ctx carries a tracer, the
// compile and the check each get a bench-side span.
func (c *circuitRun) compile(ctx context.Context, opt compress.Options, out *outcome) (sample, bool) {
	out.attempted++
	sp, cctx := obs.StartSpan(ctx, "compile")
	sp.SetAttr("circuit", c.name)
	sp.SetAttr("seed", opt.Seed)
	before := readAlloc()
	t0 := time.Now()
	res, err := compress.CompileICMContext(cctx, c.rep, c.name, opt, time.Time{}, nil)
	elapsed := time.Since(t0)
	allocOp := readAlloc().sub(before)
	sp.End()
	c.spent += ms(elapsed)
	if err != nil {
		out.fail("%s seed %d: compile: %v", c.name, opt.Seed, err)
		return sample{}, false
	}

	dsp, _ := obs.StartSpan(ctx, "drc")
	t1 := time.Now()
	drcRep := drc.Run(res.DRCArtifacts, drc.Options{})
	drcDur := time.Since(t1)
	dsp.End()

	for _, v := range drcRep.Violations {
		if v.Sev() == drc.Error && v.Rule != routeCapacityRule {
			out.fail("%s seed %d: %s", c.name, opt.Seed, v)
			return sample{}, false
		}
	}
	if c.check != nil {
		if err := c.check(res); err != nil {
			out.fail("%s seed %d: %v", c.name, opt.Seed, err)
			return sample{}, false
		}
	}
	if first, ok := c.placed[opt.Seed]; !ok {
		c.placed[opt.Seed] = res.PlacedVolume
	} else if res.PlacedVolume != first {
		out.fail("%s seed %d: placed volume %d, an earlier compile of the same input placed %d", c.name, opt.Seed, res.PlacedVolume, first)
		return sample{}, false
	}
	if res.Journal != nil {
		if err := res.Journal.CheckWaterfall(); err != nil {
			out.fail("%s seed %d: journal: %v", c.name, opt.Seed, err)
			return sample{}, false
		}
	}
	c.volumes[opt.Seed] = append(c.volumes[opt.Seed], res.Volume)
	return sample{seed: opt.Seed, res: res, ms: ms(elapsed), drcMS: ms(drcDur), drcViolations: len(drcRep.Violations), allocOp: allocOp}, true
}

func (c *circuitRun) record(s sample) {
	c.ms = append(c.ms, s.ms)
	c.inputMS[s.seed] = append(c.inputMS[s.seed], s.ms)
	for _, st := range s.res.StageTimes {
		c.stageMS[st.Stage] = append(c.stageMS[st.Stage], ms(st.Duration))
	}
	c.drcMS = append(c.drcMS, s.drcMS)
	c.counts.add(s.res, s.drcViolations)
	c.alloc = c.alloc.add(s.allocOp)
}

// poolMeans returns the circuit's end-to-end numbers: the mean over the
// placement seeds it compiled of each seed's median compile time, mean
// final volume, and placed volume. Each seed weighs the same however
// often the run compiled it.
func (c *circuitRun) poolMeans() (latencyMS, volume, placed float64) {
	var lat, vol, pla []float64
	for seed, xs := range c.inputMS {
		lat = append(lat, median(xs))
		v := 0.0
		for _, x := range c.volumes[seed] {
			v += float64(x)
		}
		vol = append(vol, v/float64(len(c.volumes[seed])))
		pla = append(pla, float64(c.placed[seed]))
	}
	return mean(lat), mean(vol), mean(pla)
}

// checkFig1 compiles the paper's three-CNOT example in every mode of its
// Fig. 1 ladder and checks the ends against the numbers printed in the
// paper: canonical volume 54, and 6 after primal and dual bridging.
func checkFig1(ctx context.Context, seed int64, out *outcome) {
	out.attempted++
	r, err := bench.RunFig1(ctx, seed)
	switch {
	case err != nil:
		out.fail("fig1: %v", err)
	case r.Canonical != 54 || r.Full != 6:
		out.fail("fig1: canonical %d and full %d, paper has 54 and 6", r.Canonical, r.Full)
	}
}

func runPipeline(ctx context.Context, cfg config, name string, circuits []string, skipRouting bool) (*outcome, error) {
	out := &outcome{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}
	checkFig1(ctx, cfg.Seed, out)
	runs, _, setupS, err := timeSetups(pipelineSetups, func() ([]*circuitRun, func(), error) {
		return buildCircuits(circuits)
	})
	if err != nil {
		return nil, err
	}
	opt := compress.Options{Mode: compress.Full, Effort: compress.EffortFast, SkipRouting: skipRouting}
	order := placementOrder(cfg.Seed)

	// The first compile in a process runs about 1.5x slower while the heap
	// grows, so one checked but untimed compile of each circuit comes
	// first, on the input the measured compiles start with.
	for _, c := range runs {
		opt.Seed = order[0]
		c.compile(ctx, opt, out)
		c.weight = math.Sqrt(c.spent)
		c.spent = 0
	}
	// Then the circuit that is furthest behind its share of the measuring
	// time goes next, so the circuits interleave and a slow spell of the
	// machine lands on all alike. A circuit's share grows with the square
	// root of its compile time, so the small circuits, whose times are the
	// noisiest, get the most samples. Once the measuring time is over,
	// only circuits that have not compiled every placement seed go on. The
	// reference kernel runs between compiles.
	cal := &calibrator{}
	mem := startMemSampler()
	defer mem.finish()
	start := time.Now()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		over := time.Since(start) >= cfg.Measure
		var c *circuitRun
		for _, r := range runs {
			if over && r.covered() {
				continue
			}
			if c == nil || r.spent/r.weight < c.spent/c.weight {
				c = r
			}
		}
		if c == nil {
			break
		}
		opt.Seed = order[c.tries%len(order)]
		c.tries++
		cal.tick()
		if s, ok := c.compile(ctx, opt, out); ok {
			c.record(s)
		}
	}
	memMiB := mem.finish()

	e := out.endToEnd
	for k, c := range runs {
		if c.counts.n == 0 {
			return nil, fmt.Errorf("%s: no compile succeeded: %v", c.name, out.failures)
		}
		out.classes = append(out.classes, class{name: c.name, ms: c.ms})
		lat, vol, placed := c.poolMeans()
		classMetrics(e, k, cal.scale(lat), vol, placed)
	}
	e["setup_s"] = cal.scale(setupS)
	e["memory_mb"] = memMiB

	pipelineLayers(out.perLayer, runs)
	out.perLayer["calib.ref_ms"] = median(cal.ms)
	zero(out.perLayer, serviceLayerNames...)
	if cfg.Trace {
		opt.Seed = order[0]
		if err := tracePipeline(ctx, cfg, name, runs, opt, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// classMetrics sets the end-to-end metrics of the workload's k-th class
// (from 0): its latency at the reference speed and the volumes of its
// results.
func classMetrics(e map[string]float64, k int, latencyMS, volume, placed float64) {
	e[fmt.Sprintf("latency_%d_ms", k+1)] = latencyMS
	e[fmt.Sprintf("volume_%d", k+1)] = volume
	e[fmt.Sprintf("placed_volume_%d", k+1)] = placed
}

// pipelineLayers fills the per-layer metrics of the untraced samples:
// times are the sum over circuits of each circuit's median, counts the
// sum over circuits of each circuit's mean, and ratios are taken between
// those sums.
func pipelineLayers(pl map[string]float64, runs []*circuitRun) {
	stage := func(name string) float64 {
		sum := 0.0
		for _, c := range runs {
			sum += median(c.stageMS[name])
		}
		return sum
	}
	per := func(f func(counters) int) float64 {
		sum := 0.0
		for _, c := range runs {
			sum += ratio(float64(f(c.counts)), float64(c.counts.n))
		}
		return sum
	}
	pl["pdgraph.ms"] = stage("pdgraph")
	pl["simplify.ms"] = stage("simplify")
	pl["bridge.primal_ms"] = stage("primal-bridge")
	pl["bridge.dual_ms"] = stage("dual-bridge")
	pl["place.ms"] = stage("place")
	pl["route.ms"] = stage("route")
	reportLayers(pl, per)
	pl["place.items"] = per(func(c counters) int { return c.items })
	moves := per(func(c counters) int { return c.moves })
	pl["place.moves"] = moves
	pl["place.accept_ratio"] = ratio(per(func(c counters) int { return c.accepted }), moves)
	pl["place.us_per_move"] = ratio(1000*pl["place.ms"], moves)
	pl["route.nets"] = per(func(c counters) int { return c.nets })
	rounds := per(func(c counters) int { return c.rounds })
	pl["route.rounds"] = rounds
	pl["route.round_ms"] = ratio(pl["route.ms"], rounds)

	var overflowed, routed, distinctSum, repeated float64
	for _, c := range runs {
		overflowed += float64(c.counts.overflowed)
		if c.counts.rounds > 0 {
			routed += float64(c.counts.n)
		}
		for _, vols := range c.volumes {
			if len(vols) > 1 {
				distinctSum += float64(distinct(vols))
				repeated++
			}
		}
	}
	pl["route.overflow_rate"] = ratio(overflowed, routed)
	pl["route.distinct_volumes"] = ratio(distinctSum, repeated)

	drcMS := 0.0
	for _, c := range runs {
		drcMS += median(c.drcMS)
	}
	pl["drc.ms"] = drcMS
	pl["drc.violations"] = per(func(c counters) int { return c.drcViolations })
	var alloc allocCounters
	compiles := 0
	for _, c := range runs {
		alloc = alloc.add(c.alloc)
		compiles += c.counts.n
	}
	alloc.perOp(pl, compiles)
}

// tracePipeline makes one more pass with an obs tracer and a journal
// recorder in the context, writes the span tree, and derives the
// span-based per-layer metrics from it.
func tracePipeline(ctx context.Context, cfg config, name string, runs []*circuitRun, opt compress.Options, out *outcome) error {
	tr := obs.NewTracer(name)
	rec := journal.NewRecorder(journal.DefaultMaxEvents)
	tctx := journal.WithRecorder(obs.WithTracer(ctx, tr), rec)
	traced, untraced := 0.0, 0.0
	for _, c := range runs {
		if s, ok := c.compile(tctx, opt, out); ok {
			traced += s.ms
			untraced += median(c.inputMS[opt.Seed])
		}
	}
	tr.Finish()
	rec.Close()
	path, err := writeTrace(cfg, name, tr)
	if err != nil {
		return err
	}
	out.traceFile = path
	sum := spanSums(tr.Root())
	pl := out.perLayer
	pl["place.anneal_ms"] = ms(sum.total["anneal-epoch"])
	pl["place.post_ms"] = ms(sum.self["place"])
	pl["route.negotiate_ms"] = ms(sum.total["route-round"])
	pl["route.setup_ms"] = ms(sum.self["route"])
	pl["compile.self_ms"] = ms(sum.self["compile"])
	pl["trace.overhead"] = ratio(traced, untraced) - 1
	pl["trace.spans_per_op"] = float64(sum.spans) / float64(len(runs))
	pl["trace.events_per_op"] = float64(len(rec.Events())) / float64(len(runs))
	return nil
}

// allocCounters are cumulative runtime/metrics allocation and GC counts.
type allocCounters struct{ bytes, objects, gcCycles uint64 }

var allocMetricNames = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readAlloc() allocCounters {
	s := make([]metrics.Sample, len(allocMetricNames))
	for i, n := range allocMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return allocCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a allocCounters) sub(b allocCounters) allocCounters {
	return allocCounters{a.bytes - b.bytes, a.objects - b.objects, a.gcCycles - b.gcCycles}
}

func (a allocCounters) add(b allocCounters) allocCounters {
	return allocCounters{a.bytes + b.bytes, a.objects + b.objects, a.gcCycles + b.gcCycles}
}

// perOp records the allocation metrics per operation.
func (a allocCounters) perOp(pl map[string]float64, ops int) {
	pl["alloc.mb_per_op"] = ratio(float64(a.bytes)/(1<<20), float64(ops))
	pl["alloc.objects_per_op"] = ratio(float64(a.objects), float64(ops))
	pl["gc.cycles_per_op"] = ratio(float64(a.gcCycles), float64(ops))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// zero sets metrics of layers a workload bypasses. Their value is a
// measurement, not a placeholder: the layer does no work there.
func zero(m map[string]float64, names ...string) {
	for _, n := range names {
		m[n] = 0
	}
}
