package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
	"repro/internal/train"
)

// trainWorkload is one steady-state training workload: a model, its
// options, the mesh it runs on, and the generator of its batches.
type trainWorkload struct {
	arch  model.Arch
	opts  train.Options
	tp    int // 0 selects train.SerialCheckpointed on model.NewSerial
	dp    int
	tpViT bool
	// warm steps run before the timed window and timed steps inside it;
	// one more step follows so the last timed step has an end.
	warm, timed int
	batches     func(seed int64, steps, batch int) (xs, ys []*tensor.Tensor)
}

func (w trainWorkload) world() int {
	if w.tp == 0 {
		return 1
	}
	return w.tp * w.dp
}

func (w trainWorkload) steps() int { return w.warm + w.timed + 1 }

// call runs the workload's training entry point.
func (w trainWorkload) call(opts train.Options, batch train.BatchFn) (train.History, error) {
	if w.tp == 0 {
		return train.SerialCheckpointed(model.NewSerial(w.arch), opts, batch)
	}
	hist, _, err := train.Hybrid(w.arch, w.tp, w.dp, w.tpViT, opts, batch)
	return hist, err
}

// setupSamples is the least number of set-ups an untraced run measures;
// one-step calls make up what the timed reps do not provide.
const setupSamples = 15

// setupOnce calls the entry point for a one-step run without checkpoints
// and returns the time until its first BatchFn call.
func setupOnce(w trainWorkload, xs, ys []*tensor.Tensor) (time.Duration, error) {
	opts := w.opts
	opts.Steps = 1
	opts.CheckpointDir, opts.CheckpointEvery, opts.CheckpointKeep = "", 0, 0
	var first time.Time
	var once sync.Once
	t0 := time.Now()
	_, err := w.call(opts, func(s int) (*tensor.Tensor, *tensor.Tensor) {
		once.Do(func() { first = time.Now() })
		return xs[s], ys[s]
	})
	return first.Sub(t0), err
}

// finalLossSteps is how many closing steps model_loss averages. One MAE
// batch of 8 images is a noisy sample of the loss; the mean of the last 8
// steps moves far less with the seed.
const finalLossSteps = 8

// finalLoss is the mean training loss of the run's last finalLossSteps steps.
func finalLoss(h train.History) float64 { return mean(h.Loss[len(h.Loss)-finalLossSteps:]) }

// equivSteps is how many leading losses of a distributed run are checked
// against the serial D-CHAG equivalent trained on the same batches.
const equivSteps = 3

func hyperArch() model.Arch {
	return model.Arch{
		Config: core.Config{
			Channels: 64, ImgH: 8, ImgW: 8, Patch: 2,
			Embed: 32, Heads: 2, Tree: 2, Kind: core.KindCross, Seed: 11,
		},
		Depth: 2, MetaTokens: 1,
	}
}

// hyperBatches draws the run's images from one fixed synthetic plant
// dataset; the seed picks where in it the run starts. The dataset's own
// seed fixes its spectral signatures, which set the scale of the loss.
func hyperBatches(seed int64, steps, batch int) (xs, ys []*tensor.Tensor) {
	a := hyperArch()
	cfg := data.DefaultHyperspectral(a.ImgH, a.ImgW)
	cfg.Channels = a.Channels
	gen := data.NewHyperspectral(cfg)
	start := int(uint64(seed) * 7919 % uint64(cfg.Images))
	for s := 0; s < steps; s++ {
		x := gen.Batch(start+s*batch, batch)
		xs, ys = append(xs, x), append(ys, x)
	}
	return xs, ys
}

func weatherConfig(seed int64) data.WeatherConfig {
	return data.WeatherConfig{NativeH: 16, NativeW: 32, Steps: 1024, DtHours: 6, Seed: seed}
}

func weatherArch() model.Arch {
	return model.Arch{
		Config: core.Config{
			Channels: data.NewWeather(weatherConfig(1)).Channels(), ImgH: 8, ImgW: 16, Patch: 2,
			Embed: 64, Heads: 4, Tree: 0, Kind: core.KindLinear, Seed: 13,
		},
		Depth: 8, MetaTokens: 1,
	}
}

// weatherBatches pairs each snapshot with the next one (6-hour lead).
// Consecutive batches share snapshots, so each is generated once.
func weatherBatches(seed int64, steps, batch int) (xs, ys []*tensor.Tensor) {
	a := weatherArch()
	w := data.NewWeather(weatherConfig(seed))
	snaps := make([]*tensor.Tensor, steps*batch+1)
	for i := range snaps {
		snaps[i] = w.SnapshotAt(i, a.ImgH, a.ImgW)
	}
	for s := 0; s < steps; s++ {
		xs = append(xs, tensor.Stack(snaps[s*batch:(s+1)*batch]...))
		ys = append(ys, tensor.Stack(snaps[s*batch+1:(s+1)*batch+1]...))
	}
	return xs, ys
}

func trainWorkloads(seed int64) map[string]trainWorkload {
	mae := train.Options{Batch: 8, LR: 5e-4, ClipNorm: 1, MaskRatio: 0.5, Seed: seed}
	forecast := train.Options{Batch: 8, LR: 1e-3, ClipNorm: 1, Seed: seed, CheckpointEvery: 4, CheckpointKeep: 2}
	return map[string]trainWorkload{
		"hyper-serial": {arch: hyperArch(), opts: mae, warm: 3, timed: 24, batches: hyperBatches},
		"hyper-dchag": {arch: hyperArch(), opts: mae, tp: 2, dp: 1, tpViT: true,
			warm: 3, timed: 24, batches: hyperBatches},
		"weather-hybrid": {arch: weatherArch(), opts: forecast, tp: 2, dp: 2, tpViT: true,
			warm: 2, timed: 8, batches: weatherBatches},
	}
}

// stepProbe watches the BatchFn calls of one training run. A step runs from
// the first BatchFn(s) call on any rank to the first BatchFn(s+1) call. At
// the start and the end of the timed window every rank meets at a gate, so
// the heap and allocation counters are read while the program is idle.
type stepProbe struct {
	world, warm, timed int

	mu       sync.Mutex
	first    []time.Time // guarded by mu; first arrival per step
	arrivals []int       // guarded by mu

	gates   [2]chan struct{} // closed by the last rank to arrive
	release [2]time.Time     // written before the gate closes
	mem     [2]runtime.MemStats
	dataNs  atomic.Int64 // time spent inside BatchFn outside the gates
}

func newStepProbe(w trainWorkload) *stepProbe {
	return &stepProbe{
		world: w.world(), warm: w.warm, timed: w.timed,
		first:    make([]time.Time, w.steps()),
		arrivals: make([]int, w.steps()),
		gates:    [2]chan struct{}{make(chan struct{}), make(chan struct{})},
	}
}

// gateTimeout bounds the wait at a gate, so a rank that died before
// reaching it fails the run instead of hanging it.
const gateTimeout = 60 * time.Second

func (p *stepProbe) arrive(s int) {
	now := time.Now()
	p.mu.Lock()
	if p.first[s].IsZero() {
		p.first[s] = now
	}
	p.arrivals[s]++
	n := p.arrivals[s]
	p.mu.Unlock()
	g := -1
	switch s {
	case p.warm:
		g = 0
	case p.warm + p.timed:
		g = 1
	}
	if g < 0 {
		p.dataNs.Add(int64(time.Since(now)))
		return
	}
	if n == p.world {
		if g == 0 {
			liveHeap(&p.mem[g])
		} else {
			runtime.ReadMemStats(&p.mem[g])
		}
		p.release[g] = time.Now()
		close(p.gates[g])
		return
	}
	select {
	case <-p.gates[g]:
	case <-time.After(gateTimeout):
		panic(fmt.Sprintf("dchagbench: step %d gate timed out", s))
	}
}

// window is the timed window: from the release of the first gate to the
// first arrival at the second.
func (p *stepProbe) window() (time.Time, time.Time) {
	return p.release[0], p.first[p.warm+p.timed]
}

func (p *stepProbe) stepTimes() []time.Duration {
	out := make([]time.Duration, 0, p.timed)
	for s := p.warm; s < p.warm+p.timed; s++ {
		start := p.first[s]
		if s == p.warm {
			start = p.release[0]
		}
		out = append(out, p.first[s+1].Sub(start))
	}
	return out
}

// trainRep is what one call into the training entry point measured.
type trainRep struct {
	setup   time.Duration
	steps   []time.Duration
	hist    train.History
	mem     [2]runtime.MemStats
	heapMiB float64 // live heap growth per rank at the end of warm-up
	layers  map[string]float64
}

// stepStats returns the rep's median and p90 step time in ms and its
// training rate in samples per second.
func (r trainRep) stepStats(batch int) (p50Ms, p90Ms, rate float64) {
	var wall time.Duration
	for _, d := range r.steps {
		wall += d
	}
	stepMs := msAll(r.steps)
	return median(stepMs), p90(stepMs), float64(batch*len(r.steps)) / wall.Seconds()
}

// runTrainRep runs one full training call. With tr non-nil the program's
// tracer is on and per-layer figures are taken from it.
func runTrainRep(w trainWorkload, xs, ys []*tensor.Tensor, workDir string, tr *obs.Tracer, trEpoch time.Time, spans *spanLog) (trainRep, error) {
	var rep trainRep
	opts := w.opts
	opts.Steps = w.steps()
	opts.Trace = tr
	if opts.CheckpointEvery > 0 {
		dir, err := os.MkdirTemp(workDir, "ckpt-")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(dir)
		opts.CheckpointDir = dir
	}
	probe := newStepProbe(w)
	var entryID int64
	batch := func(s int) (*tensor.Tensor, *tensor.Tensor) {
		sp := spans.begin("BatchFn", entryID, int64(s), false)
		probe.arrive(s)
		sp.end()
		return xs[s], ys[s]
	}
	var before runtime.MemStats
	liveHeap(&before)

	entry := spans.begin("train.entry", 0, -1, true)
	entryID = entry.id
	t0 := time.Now()
	var err error
	rep.hist, err = w.call(opts, batch)
	entry.end()
	if err != nil {
		return rep, err
	}
	if len(rep.hist.Loss) != opts.Steps {
		return rep, fmt.Errorf("training ran %d steps, want %d", len(rep.hist.Loss), opts.Steps)
	}
	rep.setup = probe.first[0].Sub(t0)
	rep.steps = probe.stepTimes()
	rep.mem = probe.mem
	rep.heapMiB = (float64(probe.mem[0].HeapAlloc) - float64(before.HeapAlloc)) / float64(w.world()) / (1 << 20)
	if tr != nil {
		rep.layers = trainLayers(w, probe, tr, trEpoch, opts.CheckpointDir)
	}
	return rep, nil
}

// phaseMetrics maps the training loops' phase spans to per-layer metrics.
var phaseMetrics = []struct{ span, metric string }{
	{"forward", "model.forward_ms"},
	{"backward", "model.backward_ms"},
	{"optim", "optim.step_ms"},
	{"dp-sync", "parallel.ddp_sync_ms"},
}

// trainLayers turns one traced run into per-step, per-rank figures.
func trainLayers(w trainWorkload, p *stepProbe, tr *obs.Tracer, epoch time.Time, ckptDir string) map[string]float64 {
	lo, hi := p.window()
	win := interval{lo.Sub(epoch), hi.Sub(epoch)}
	world := w.world()
	per := float64(p.timed * world)
	out := map[string]float64{}
	addMs := func(key string, d time.Duration) { out[key] += ms(d) / per }
	var self time.Duration
	for r := 0; r < world; r++ {
		evs := tr.Events(r)
		for _, phase := range phaseMetrics {
			d, _, _ := spanTotals(evs, win, named(phase.span))
			addMs(phase.metric, d)
		}
		for _, axis := range []string{"tp", "dp"} {
			d, calls, bytes := spanTotals(evs, win, inCat(obs.CommCat(axis)))
			addMs("comm."+axis+".ms", d)
			out["comm."+axis+".calls"] += float64(calls) / per
			out["comm."+axis+".bytes"] += float64(bytes) / per
		}
		var children []interval
		for _, ev := range evs {
			if ev.Ph == 'X' && ev.Cat == "train" {
				children = append(children, interval{ev.Start, ev.Start + ev.Dur})
			}
		}
		for s := p.warm; s < p.warm+p.timed; s++ {
			start := p.first[s]
			if s == p.warm {
				start = p.release[0]
			}
			step := interval{start.Sub(epoch), p.first[s+1].Sub(epoch)}
			self += step.hi - step.lo - covered(step, children)
		}
	}
	out["data.wait_ms"] = ms(time.Duration(p.dataNs.Load())) / per
	out["train.loop_self_ms"] = ms(self)/per - out["data.wait_ms"]
	// Checkpoint saves: rank 0 writes in every layout and times the whole
	// commit, barriers included.
	saveDur, saves, _ := spanTotals(tr.Events(0), win, named("ckpt"))
	out["ckpt.saves"] = float64(saves)
	if saves > 0 {
		out["ckpt.save_ms"] = ms(saveDur) / float64(saves)
		out["ckpt.save_mb"] = newestCheckpointMiB(ckptDir)
	}
	return out
}

// newestCheckpointMiB returns the size of the newest committed checkpoint
// under dir, in MiB.
func newestCheckpointMiB(dir string) float64 {
	var total int64
	if latest, err := ckpt.LatestDir(dir); err == nil {
		entries, _ := os.ReadDir(latest)
		for _, e := range entries {
			if info, err := e.Info(); err == nil && !info.IsDir() {
				total += info.Size()
			}
		}
	}
	return float64(total) / (1 << 20)
}

// usefulFLOPsPerSample is perfmodel's useful work of one sample: the
// serial baseline model's forward and backward FLOPs. It is a computed
// figure, not a counter.
func usefulFLOPsPerSample(a model.Arch) float64 {
	return perfmodel.AnalyzeDefault(
		perfmodel.ModelShape{Name: "bench", Embed: a.Embed, Layers: a.Depth, Heads: a.Heads},
		perfmodel.Workload{Channels: a.Channels, ImgH: a.ImgH, ImgW: a.ImgW, Patch: a.Patch, MicroBatch: 1},
		perfmodel.Strategy{Method: perfmodel.MethodBaseline},
	).UsefulFLOPsPerSample()
}

// checkTrainCorrect runs the checks that do not depend on timing: every rep
// followed the same loss trajectory, the loss fell and stayed finite, and a
// distributed run's first losses equal the serial D-CHAG equivalent's on the
// same batches.
func checkTrainCorrect(w trainWorkload, reps []trainRep, xs, ys []*tensor.Tensor) error {
	ref := reps[0].hist.Loss
	for i, rep := range reps[1:] {
		for s, l := range rep.hist.Loss {
			if l != ref[s] {
				return fmt.Errorf("rep %d step %d loss %v differs from rep 0's %v", i+1, s, l, ref[s])
			}
		}
	}
	first, last := ref[0], finalLoss(reps[0].hist)
	if math.IsNaN(last) || math.IsInf(last, 0) || !(last < first) {
		return fmt.Errorf("final loss %v is not finite and below the first loss %v", last, first)
	}
	if w.tp == 0 {
		return nil
	}
	opts := w.opts
	opts.Steps = equivSteps
	opts.CheckpointDir, opts.CheckpointEvery, opts.CheckpointKeep = "", 0, 0
	serial, err := train.SerialCheckpointed(model.NewSerialDCHAGEquivalent(w.arch, w.tp), opts,
		func(s int) (*tensor.Tensor, *tensor.Tensor) { return xs[s], ys[s] })
	if err != nil {
		return fmt.Errorf("serial equivalent: %w", err)
	}
	for s, l := range serial.Loss {
		if math.Abs(l-ref[s]) > 1e-9 {
			return fmt.Errorf("step %d: distributed loss %v, serial D-CHAG equivalent %v", s, ref[s], l)
		}
	}
	return nil
}

// stageBackwardBytes runs one forward and backward of the D-CHAG stage on
// the workload's shard shapes and returns the bytes its backward sent, from
// the TP group's traffic ledger. The paper's claim is that this is 0.
func stageBackwardBytes(w trainWorkload, x *tensor.Tensor) (int64, error) {
	if w.tp == 0 {
		return 0, nil
	}
	const phase = "stage-backward"
	mesh, err := dist.RunMesh(dist.MeshSpec{TP: w.tp, FSDP: 1, DP: 1}, dist.Topology{Nodes: 1, GPUsPerNode: w.tp},
		func(rank int, m *dist.Mesh) error {
			tpc := m.TPComm(rank)
			stage := model.NewDCHAGStage(w.arch.Config, tpc, w.arch.Partitions)
			lo, hi := stage.ChannelBounds()
			y := stage.Forward(tensor.SliceAxis(x, 1, lo, hi))
			tpc.SetPhase(phase)
			stage.Backward(tensor.Full(1e-3, y.Shape...))
			return nil
		})
	if err != nil {
		return 0, err
	}
	return mesh.GroupTraffic(dist.AxisTP, 0).BytesInPhase(phase), nil
}

// runTrainWorkload measures one training workload for the given time.
func runTrainWorkload(name string, w trainWorkload, cfg runConfig) (result, error) {
	res := result{Metrics: metricSet{}}
	xs, ys := w.batches(cfg.seed, w.steps(), w.opts.Batch)
	logf("%s: inputs generated", name)
	workDir, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(workDir)

	var reps, traced []trainRep
	var lastTracer *obs.Tracer
	var lastSpans *spanLog
	deadline := time.Now().Add(cfg.seconds)
	for i := 0; len(reps) < 2 || time.Now().Before(deadline); i++ {
		var tr *obs.Tracer
		var trEpoch time.Time
		var spans *spanLog
		// A traced invocation alternates traced and untraced reps so it
		// can report the tracing overhead from one process.
		if cfg.trace && i%2 == 1 {
			trEpoch = time.Now()
			tr = obs.NewTracer(w.world()+1, 1<<15)
			tr.SetRowName(w.world(), "benchmark")
			spans = newSpanLog(trEpoch, tr.Rank(w.world()))
		}
		res.Attempted += w.timed
		rep, err := runTrainRep(w, xs, ys, workDir, tr, trEpoch, spans)
		if err != nil {
			res.Failed += w.timed
			return res, fmt.Errorf("%s rep %d: %w (failed ranks %v)", name, i, err, dist.FailedRanks(err))
		}
		p50, p90, _ := rep.stepStats(w.opts.Batch)
		logf("%s: rep %d traced=%v setup %.1f ms, step p50 %.1f ms, p90 %.1f ms", name, i, tr != nil, ms(rep.setup), p50, p90)
		if tr != nil {
			traced = append(traced, rep)
			lastTracer, lastSpans = tr, spans
		} else {
			reps = append(reps, rep)
		}
	}
	if err := checkTrainCorrect(w, append(reps, traced...), xs, ys); err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	logf("%s: correctness checks passed", name)
	bwdBytes, err := stageBackwardBytes(w, xs[0])
	if err != nil {
		return res, err
	}
	if bwdBytes != 0 {
		return res, fmt.Errorf("%s: D-CHAG stage backward sent %d bytes, want 0", name, bwdBytes)
	}

	var setups, heap, allocs, kb []float64
	for len(setups)+len(reps) < setupSamples && !cfg.trace {
		d, err := setupOnce(w, xs, ys)
		if err != nil {
			return res, fmt.Errorf("%s set-up: %w", name, err)
		}
		setups = append(setups, d.Seconds())
	}
	// Each rep yields its own median step and rate, and the run reports
	// their mean over reps without the lowest and the highest. A burst of
	// contention from other tenants of a shared host slows single reps,
	// which the trim drops; a median over reps would jump between the
	// speeds such bursts leave, the mean moves with their share. The p90 is
	// taken over the steps of all reps at once: one rep has too few steps,
	// and on weather-hybrid a quarter of them save a checkpoint.
	var p50s, rates, pooled []float64
	for _, rep := range reps {
		setups = append(setups, rep.setup.Seconds())
		heap = append(heap, rep.heapMiB)
		allocs = append(allocs, float64(rep.mem[1].Mallocs-rep.mem[0].Mallocs)/float64(w.timed))
		kb = append(kb, float64(rep.mem[1].TotalAlloc-rep.mem[0].TotalAlloc)/float64(w.timed)/1024)
		p50, _, rate := rep.stepStats(w.opts.Batch)
		p50s, rates = append(p50s, p50), append(rates, rate)
		pooled = append(pooled, msAll(rep.steps)...)
	}
	m := res.Metrics
	if !cfg.trace {
		m.set("setup_s", median(setups), "s")
		m.set("samples_per_s", trimmedMean(rates), "samples/s")
		m.set("op_ms_p50", trimmedMean(p50s), "ms")
		m.set("op_ms_p90", p90(pooled), "ms")
		m.set("model_loss", finalLoss(reps[0].hist), "loss")
		m.set("allocs_per_op", median(allocs), "count")
		m.set("alloc_kb_per_op", median(kb), "KiB")
		m.set("mem_mb_per_rank", median(heap), "MiB")
		res.Correct = true
		return res, nil
	}

	layers := map[string][]float64{}
	var tracedP50s []float64
	for _, rep := range traced {
		for k, v := range rep.layers {
			layers[k] = append(layers[k], v)
		}
		p50, _, _ := rep.stepStats(w.opts.Batch)
		tracedP50s = append(tracedP50s, p50)
		gcs := float64(rep.mem[1].NumGC - rep.mem[0].NumGC)
		layers["runtime.gc_per_op"] = append(layers["runtime.gc_per_op"], gcs/float64(w.timed))
		pause := float64(rep.mem[1].PauseTotalNs-rep.mem[0].PauseTotalNs) / 1e6
		layers["runtime.gc_pause_ms"] = append(layers["runtime.gc_pause_ms"], pause/float64(w.timed))
	}
	for k, v := range layers {
		m.set(k, median(v), layerUnit(k))
	}
	rp, err := replayTrain(w, xs[0], ys[0], cfg.seed)
	if err != nil {
		return res, err
	}
	rp.into(m)
	m.set("comm.backward_bytes", float64(bwdBytes), "B")
	fb := (m.get("model.forward_ms") + m.get("model.backward_ms")) / 1e3
	m.set("tensor.achieved_gflops", usefulFLOPsPerSample(w.arch)*float64(w.opts.Batch)/fb/1e9, "GFLOP/s")
	tracedP50, plainP50 := trimmedMean(tracedP50s), trimmedMean(p50s)
	m.set("trace.op_ms_p50", tracedP50, "ms")
	m.set("trace.op_ms_p50_untraced", plainP50, "ms")
	m.set("trace.overhead_pct", 100*(tracedP50/plainP50-1), "%")
	if err := exportTrace(cfg, name, lastTracer, lastSpans); err != nil {
		return res, err
	}
	res.Correct = true
	return res, nil
}

// exportTrace writes the last traced rep as a Chrome trace and the
// benchmark's own spans beside it.
func exportTrace(cfg runConfig, name string, tr *obs.Tracer, spans *spanLog) error {
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", name, cfg.seed))
	for k, v := range cfg.host {
		tr.SetMeta(k, v)
	}
	tr.SetMeta("workload", name)
	if err := obs.WriteChromeTraceFile(base+".trace.json", tr); err != nil {
		return err
	}
	blob, err := os.ReadFile(base + ".trace.json")
	if err != nil {
		return err
	}
	if err := obs.ValidateChromeTrace(blob); err != nil {
		return fmt.Errorf("exported trace: %w", err)
	}
	return spans.write(base + ".spans.json")
}
