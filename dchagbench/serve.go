package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/train"
)

// serveWorkload is the serving workload: one generator goroutine sends
// requests at fixed due times (open loop), then keeps a fixed number of
// them outstanding (closed loop); a share of them repeat hot inputs.
type serveWorkload struct {
	arch     model.Arch
	cfg      serve.Config
	rate     float64       // req/s of the fixed-rate phase
	limit    time.Duration // latency limit for serve.goodput_rps
	inFlight int           // requests the closed-loop phase keeps outstanding
	hotShare float64       // share of requests drawn from the hot set
	hot      int           // hot-set size
	unique   int           // distinct-input pool, recycled
	swap     time.Duration // hot-swap interval
	setups   int           // engine starts measured for setup_s
	warm     time.Duration
}

func serveMixed() serveWorkload {
	return serveWorkload{
		arch: model.Arch{
			Config: core.Config{
				Channels: 32, ImgH: 8, ImgW: 8, Patch: 2,
				Embed: 16, Heads: 2, Tree: 0, Kind: core.KindCross, Seed: 17,
			},
			Depth: 2, MetaTokens: 1,
		},
		cfg: serve.Config{
			Ranks: 2, Replicas: 1, MaxBatch: 8, MaxWait: 2 * time.Millisecond,
			QueueDepth: 1024, DType: tensor.F32, CacheBytes: 4 << 20,
		},
		rate:     450,
		limit:    10 * time.Millisecond,
		inFlight: 64,
		hotShare: 0.3,
		hot:      16,
		unique:   1024,
		swap:     time.Second,
		setups:   15,
		warm:     time.Second,
	}
}

// reqRecord is the client-side view of one request.
type reqRecord struct {
	due, done time.Time
	input     int
	outcome   int // one of the outcome constants
	queued    time.Duration
	out       *tensor.Tensor // kept for hot inputs and sampled misses only
	epochIn   int64          // completed swaps when sent
	epochOut  int64          // started swaps when answered
	stable    bool           // no swap in progress when sent
}

const (
	outFailed = iota
	outForward
	outHit
	outCoalesced
)

// sampleEvery picks the forward-served responses kept for the f64 check.
const sampleEvery = 97

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	recs        []reqRecord
	lateMax     time.Duration
	inflightMax int // most requests sent and not yet answered at a send
}

// serveWindows is how many windows the fixed-rate phase is cut into.
const serveWindows = 5

// windowStats cuts the phase into serveWindows windows and returns each
// window's median and 90th percentile latency and its goodput: requests
// answered within limit per second.
func (p phaseResult) windowStats(limit time.Duration) (p50s, p90s, goodput []float64) {
	for _, win := range p.windows(serveWindows) {
		lat := win.latMs(all)
		good := 0
		for _, l := range lat {
			if l <= ms(limit) {
				good++
			}
		}
		p50s = append(p50s, median(lat))
		p90s = append(p90s, p90(lat))
		goodput = append(goodput, float64(good)/win.wall().Seconds())
	}
	return p50s, p90s, goodput
}

// windows cuts the phase into k runs of consecutive requests.
func (p phaseResult) windows(k int) []phaseResult {
	out := make([]phaseResult, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, phaseResult{recs: p.recs[i*len(p.recs)/k : (i+1)*len(p.recs)/k]})
	}
	return out
}

// wall is the phase's measured length: from the first request's due time
// to the last answer.
func (p phaseResult) wall() time.Duration {
	var last time.Time
	for _, r := range p.recs {
		if r.done.After(last) {
			last = r.done
		}
	}
	return last.Sub(p.recs[0].due)
}

func (p phaseResult) latMs(keep func(reqRecord) bool) []float64 {
	var out []float64
	for _, r := range p.recs {
		if !keep(r) {
			continue
		}
		if r.outcome == outFailed {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(r.done.Sub(r.due)))
	}
	return out
}

func all(reqRecord) bool { return true }

func (p phaseResult) failed() int {
	n := 0
	for _, r := range p.recs {
		if r.outcome == outFailed {
			n++
		}
	}
	return n
}

func (p phaseResult) count(outcome int) int {
	n := 0
	for _, r := range p.recs {
		if r.outcome == outcome {
			n++
		}
	}
	return n
}

// serveRun holds the generated inputs and the swap bookkeeping of one run.
type serveRun struct {
	w      serveWorkload
	reqs   []*serve.Request // hot set first, then the unique pool
	plan   []int32          // input index of request i
	checks []*tensor.Tensor // inputs never sent under load
	lossIn []*tensor.Tensor // inputs model_loss is measured on
	dirs   [2]string
	spans  *spanLog

	swapsStarted, swapsDone atomic.Int64
	swapMu                  sync.Mutex
	openMs, swapMs          []float64 // guarded by swapMu
}

// serveDataImages is the size of the fixed synthetic dataset every serving
// run draws its images from. Its last lossInputs images are held out: every
// run measures model_loss on them. The seed picks where in the rest a run
// starts drawing its requests, checks and training batches.
const (
	serveDataImages = 8192
	lossInputs      = 256
)

// newServeRun generates every input before timing starts: the request
// pool, the plan of which input each request sends, and two checkpoints to
// swap between.
func newServeRun(w serveWorkload, seed int64, workDir string, maxReqs int) (*serveRun, error) {
	a := w.arch
	gen := data.NewHyperspectral(data.HyperspectralConfig{
		Images: serveDataImages, Channels: a.Channels, ImgH: a.ImgH, ImgW: a.ImgW,
		Endmembers: 4, Noise: 0.01, Seed: 4094,
	})
	const drawn = serveDataImages - lossInputs
	next := int(uint64(seed) * 7919 % drawn)
	image := func() *tensor.Tensor {
		next++
		return gen.Image(next % drawn)
	}
	r := &serveRun{w: w}
	for i := 0; i < w.hot+w.unique; i++ {
		r.reqs = append(r.reqs, &serve.Request{ID: fmt.Sprint(i), Input: image()})
	}
	for i := 0; i < 8; i++ {
		r.checks = append(r.checks, image())
	}
	for i := drawn; i < serveDataImages; i++ {
		r.lossIn = append(r.lossIn, gen.Image(i))
	}
	rng := tensor.NewRNG(seed)
	fresh := 0
	r.plan = make([]int32, maxReqs)
	for i := range r.plan {
		if rng.Float64() < w.hotShare {
			r.plan[i] = int32(rng.Intn(w.hot))
			continue
		}
		r.plan[i] = int32(w.hot + fresh%w.unique)
		fresh++
	}
	for k := range r.dirs {
		r.dirs[k] = filepath.Join(workDir, fmt.Sprintf("model-%d", k))
		batch := tensor.Stack(image(), image(), image(), image())
		opts := train.Options{Steps: 2, Batch: 4, LR: 1e-3, ClipNorm: 1, MaskRatio: 0.5,
			Seed: seed + int64(k), CheckpointDir: r.dirs[k]}
		_, err := train.SerialCheckpointed(model.NewSerialDCHAGEquivalent(a, w.cfg.Ranks), opts,
			func(int) (*tensor.Tensor, *tensor.Tensor) { return batch, batch })
		if err != nil {
			return nil, fmt.Errorf("writing serve checkpoint: %w", err)
		}
	}
	return r, nil
}

// start opens checkpoint k and starts an engine on it, returning once the
// first request is answered.
func (r *serveRun) start(k int, tr *obs.Tracer) (*serve.Engine, time.Duration, error) {
	cfg := r.w.cfg
	cfg.Trace = tr
	t0 := time.Now()
	src, err := serve.FromCheckpoint(r.dirs[k])
	if err != nil {
		return nil, 0, err
	}
	e, err := serve.Start(cfg, src)
	if err != nil {
		return nil, 0, err
	}
	_, err = e.Do(context.Background(), &serve.Request{Input: r.checks[0]})
	ready := time.Since(t0)
	if err != nil {
		_ = e.Close() // the first request's error is the one to report
		return nil, 0, err
	}
	return e, ready, nil
}

// servedLoss sends the loss inputs to an engine serving checkpoint 0 with
// no swap yet and returns the mean squared error of the reconstructions it
// answers against the inputs themselves.
func (r *serveRun) servedLoss(e *serve.Engine) (float64, error) {
	var chans []<-chan serve.Response
	for _, x := range r.lossIn {
		ch, err := e.Submit(&serve.Request{Input: x})
		if err != nil {
			return 0, err
		}
		chans = append(chans, ch)
	}
	sum, n := 0.0, 0
	for i, ch := range chans {
		var resp serve.Response
		select {
		case resp = <-ch:
		case <-e.Done():
			resp.Err = serve.ErrClosed
		}
		if resp.Err != nil {
			return 0, resp.Err
		}
		x := r.lossIn[i]
		if len(resp.Output.Data) != len(x.Data) {
			return 0, fmt.Errorf("served output has shape %v, want %v", resp.Output.Shape, x.Shape)
		}
		for j, v := range resp.Output.Data {
			d := v - x.Data[j]
			sum += d * d
		}
		n += len(x.Data)
	}
	return sum / float64(n), nil
}

// warmUp serves the fixed rate for the warm-up time, then a burst of
// 4×MaxBatch requests sent at once, so every micro-batch size up to the
// largest has run and the layers' scratch has grown to its steady size. It
// returns how many requests it sent.
func (r *serveRun) warmUp(e *serve.Engine, first int) int {
	n := len(r.open(e, r.w.rate, r.w.warm, first).recs)
	var chans []<-chan serve.Response
	for i := 0; i < 4*r.w.cfg.MaxBatch; i++ {
		ch, err := e.Submit(r.reqs[r.w.hot+(first+n+i)%r.w.unique])
		if err == nil {
			chans = append(chans, ch)
		}
	}
	for _, ch := range chans {
		select {
		case <-ch:
		case <-e.Done():
		}
	}
	return n + 4*r.w.cfg.MaxBatch
}

// engineHeapMiB starts a second engine, warms it like the measured one and
// returns the live heap it holds per rank: the heap with it running minus
// the heap once it is closed. Taking the difference across Close leaves
// out the GEMM packing buffers the process-wide tensor pool keeps across
// engines, whose number depends on how many products ran at once.
func (r *serveRun) engineHeapMiB(first int) (float64, error) {
	e, _, err := r.start(0, nil)
	if err != nil {
		return 0, err
	}
	r.warmUp(e, first)
	var running, closed runtime.MemStats
	liveHeap(&running)
	if err := e.Close(); err != nil {
		return 0, err
	}
	liveHeap(&closed)
	world := r.w.cfg.Ranks * r.w.cfg.Replicas
	return (float64(running.HeapAlloc) - float64(closed.HeapAlloc)) / float64(world) / (1 << 20), nil
}

// open runs the open loop: request i of the phase is due at i/rate after
// the phase starts, whether or not earlier requests were answered.
func (r *serveRun) open(e *serve.Engine, rate float64, dur time.Duration, first int) phaseResult {
	n := int(rate * dur.Seconds())
	res := phaseResult{recs: make([]reqRecord, n)}
	var wg sync.WaitGroup
	var inflight atomic.Int64
	phase := r.spans.begin("serve.phase", 0, -1, true)
	defer phase.end()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) / rate * 1e9))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due); late > res.lateMax {
			res.lateMax = late
		}
		rec := &res.recs[i]
		rec.due = due
		rec.input = int(r.plan[(first+i)%len(r.plan)])
		rec.epochIn = r.swapsDone.Load()
		rec.stable = r.swapsStarted.Load() == rec.epochIn
		keep := rec.input < r.w.hot || i%sampleEvery == 0
		sp := r.spans.begin("request", phase.id, int64(first+i), false)
		ch, err := e.Submit(r.reqs[rec.input])
		if err != nil {
			rec.done = time.Now()
			sp.end()
			continue
		}
		if n := int(inflight.Add(1)); n > res.inflightMax {
			res.inflightMax = n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sp.end()
			var resp serve.Response
			select {
			case resp = <-ch:
			case <-e.Done():
				resp.Err = serve.ErrClosed
			}
			inflight.Add(-1)
			rec.done = time.Now()
			rec.epochOut = r.swapsStarted.Load()
			switch {
			case resp.Err != nil:
				return
			case !resp.Cached:
				rec.outcome = outForward
			case resp.BatchSize == 0:
				rec.outcome = outHit
			default:
				rec.outcome = outCoalesced
			}
			rec.queued = resp.Queued
			if keep {
				rec.out = resp.Output
			}
		}()
	}
	wg.Wait()
	return res
}

// swapper hot-swaps the engine between the two checkpoints every interval
// until stop is closed, reopening the checkpoint each time.
func (r *serveRun) swapper(e *serve.Engine, stop <-chan struct{}) error {
	tick := time.NewTicker(r.w.swap)
	defer tick.Stop()
	k := int(r.swapsDone.Load() % 2) // the checkpoint being served
	for {
		select {
		case <-stop:
			return nil
		case <-tick.C:
		}
		k = 1 - k
		r.swapsStarted.Add(1)
		sp := r.spans.begin("ckpt.Open", 0, -1, true)
		t0 := time.Now()
		src, err := serve.FromCheckpoint(r.dirs[k])
		open := time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
		sp = r.spans.begin("Engine.Swap", 0, -1, true)
		t1 := time.Now()
		err = e.Swap(src)
		swap := time.Since(t1)
		sp.end()
		if err != nil {
			return err
		}
		r.swapsDone.Add(1)
		r.swapMu.Lock()
		r.openMs = append(r.openMs, ms(open))
		r.swapMs = append(r.swapMs, ms(swap))
		r.swapMu.Unlock()
	}
}

// resetSwaps forgets the swaps of an engine that was closed, so the next
// engine, started on checkpoint 0, counts its swaps from 0.
func (r *serveRun) resetSwaps() {
	r.swapsStarted.Store(0)
	r.swapsDone.Store(0)
	r.swapMu.Lock()
	r.openMs, r.swapMs = nil, nil
	r.swapMu.Unlock()
}

// withSwaps runs fn while the swapper runs beside it.
func (r *serveRun) withSwaps(e *serve.Engine, fn func()) error {
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- r.swapper(e, stop) }()
	fn()
	close(stop)
	return <-errc
}

// reference computes checkpoint k's f64 serial-equivalent prediction for
// one input, as an image [C, H, W].
func (r *serveRun) reference(k int, x *tensor.Tensor) (*tensor.Tensor, error) {
	ck, err := ckpt.OpenLatest(r.dirs[k])
	if err != nil {
		return nil, err
	}
	a := r.w.arch
	m := model.NewSerialDCHAGEquivalent(a, ck.Manifest.Partitions)
	if err := ck.RestoreParams(m.Params()); err != nil {
		return nil, err
	}
	in := x.Reshape(append([]int{1}, x.Shape...)...)
	return model.Unpatchify(m.Infer(in, nil), a.Channels, a.ImgH, a.ImgW, a.Patch).Reshape(x.Shape...), nil
}

// withinF32 applies the f32 inference tolerance of DESIGN.md: 1e-4
// relative to the output scale.
func withinF32(got, want *tensor.Tensor) bool {
	scale := math.Max(want.Max(), -want.Min())
	tol := 1e-4 * math.Max(scale, 1)
	for i, v := range want.Data {
		if math.Abs(got.Data[i]-v) > tol {
			return false
		}
	}
	return true
}

func bitwiseEqual(a, b *tensor.Tensor) bool {
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// checkPhase verifies the responses kept under load: sampled forward-served
// outputs match one of the two checkpoints' f64 references, and within one
// model instance every cached answer is bitwise the forward-served one.
func (r *serveRun) checkPhase(p phaseResult) error {
	refs := map[[2]int]*tensor.Tensor{}
	ref := func(k, input int) (*tensor.Tensor, error) {
		key := [2]int{k, input}
		if t, ok := refs[key]; ok {
			return t, nil
		}
		t, err := r.reference(k, r.reqs[input].Input)
		refs[key] = t
		return t, err
	}
	type instKey struct {
		input int
		epoch int64
	}
	served := map[instKey]*tensor.Tensor{}
	for _, rec := range p.recs {
		if rec.outcome == outForward && rec.out != nil && rec.input >= r.w.hot {
			ok := false
			for k := range r.dirs {
				want, err := ref(k, rec.input)
				if err != nil {
					return err
				}
				ok = ok || withinF32(rec.out, want)
			}
			if !ok {
				return fmt.Errorf("served output for input %d matches neither checkpoint's f64 forward", rec.input)
			}
		}
		if rec.out == nil || !rec.stable || rec.epochOut != rec.epochIn || rec.input >= r.w.hot {
			continue
		}
		key := instKey{rec.input, rec.epochIn}
		if rec.outcome == outForward && served[key] == nil {
			served[key] = rec.out
		}
	}
	for _, rec := range p.recs {
		if rec.outcome != outHit && rec.outcome != outCoalesced {
			continue
		}
		if rec.out == nil || !rec.stable || rec.epochOut != rec.epochIn {
			continue
		}
		if fwd := served[instKey{rec.input, rec.epochIn}]; fwd != nil && !bitwiseEqual(rec.out, fwd) {
			return fmt.Errorf("cached answer for input %d differs from the forward-served one", rec.input)
		}
	}
	return nil
}

// checkQuiet runs the controlled checks with no swap in flight: inputs
// never sent before must be forward-served within the f32 tolerance of the
// active checkpoint's f64 forward, and sent again must come back from the
// cache bitwise equal.
func (r *serveRun) checkQuiet(e *serve.Engine) error {
	active := int(r.swapsDone.Load() % 2)
	for _, x := range r.checks[1:] {
		first, err := e.Do(context.Background(), &serve.Request{Input: x})
		if err != nil {
			return err
		}
		if first.Cached {
			return fmt.Errorf("a never-sent input was answered from the cache")
		}
		want, err := r.reference(active, x)
		if err != nil {
			return err
		}
		if !withinF32(first.Output, want) {
			return fmt.Errorf("served f32 output differs from the f64 serial-equivalent forward beyond 1e-4")
		}
		again, err := e.Do(context.Background(), &serve.Request{Input: x})
		if err != nil {
			return err
		}
		if !again.Cached || again.BatchSize != 0 {
			return fmt.Errorf("a repeated input was not answered from the cache")
		}
		if !bitwiseEqual(again.Output, first.Output) {
			return fmt.Errorf("cached answer differs bitwise from the forward-served one")
		}
	}
	return nil
}

// closed runs the closed-loop phase for dur: the generator keeps inFlight
// requests outstanding, waiting for the oldest before it sends the next. It
// returns the answered requests per second of each of serveWindows windows,
// and how many requests it sent and how many of them failed.
func (r *serveRun) closed(e *serve.Engine, dur time.Duration, first int) (rates []float64, sent, failed int) {
	var pending []<-chan serve.Response
	await := func(ch <-chan serve.Response) bool {
		select {
		case resp := <-ch:
			return resp.Err == nil
		case <-e.Done():
			return false
		}
	}
	for i := 0; i < serveWindows; i++ {
		t0 := time.Now()
		answered := 0
		for time.Since(t0) < dur/serveWindows {
			if len(pending) == r.w.inFlight {
				if await(pending[0]) {
					answered++
				} else {
					failed++
				}
				pending = pending[1:]
			}
			ch, err := e.Submit(r.reqs[r.plan[(first+sent)%len(r.plan)]])
			sent++
			if err != nil {
				failed++
				continue
			}
			pending = append(pending, ch)
		}
		rates = append(rates, float64(answered)/time.Since(t0).Seconds())
	}
	for _, ch := range pending {
		if !await(ch) {
			failed++
		}
	}
	return rates, sent, failed
}

func runServeWorkload(name string, w serveWorkload, cfg runConfig) (result, error) {
	res := result{Metrics: metricSet{}}
	fixed := cfg.seconds / 2
	// The plan covers the warm-ups and the fixed-rate phase; the
	// closed-loop phase continues through it and wraps around.
	maxReqs := 2 * int(w.rate*(fixed+2*w.warm).Seconds())
	workDir, err := os.MkdirTemp(cfg.outDir, "work-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(workDir)
	run, err := newServeRun(w, cfg.seed, workDir, maxReqs)
	if err != nil {
		return res, err
	}
	if cfg.trace {
		return traceServe(name, w, cfg, run, fixed)
	}

	var setups []float64
	var e *serve.Engine
	for i := 0; i < w.setups; i++ {
		eng, ready, err := run.start(0, nil)
		if err != nil {
			return res, err
		}
		setups = append(setups, ready.Seconds())
		if i < w.setups-1 {
			if err := eng.Close(); err != nil {
				return res, err
			}
			continue
		}
		e = eng
	}
	defer e.Close()
	loss, err := run.servedLoss(e)
	if err != nil {
		return res, err
	}
	sent := 0
	sent += run.warmUp(e, sent)
	heapMiB, err := run.engineHeapMiB(sent)
	if err != nil {
		return res, err
	}
	var m0, m1 runtime.MemStats
	liveHeap(&m0)
	var phase phaseResult
	if err := run.withSwaps(e, func() { phase = run.open(e, w.rate, fixed, sent) }); err != nil {
		return res, fmt.Errorf("hot swap: %w", err)
	}
	runtime.ReadMemStats(&m1)
	sent += len(phase.recs)
	res.Attempted, res.Failed = len(phase.recs), phase.failed()
	if run.swapsDone.Load() == 0 {
		return res, fmt.Errorf("no hot swap ran during the fixed-rate phase")
	}

	// The closed-loop phase measures how fast the engine answers when it
	// is never idle, with the same traffic mix but no swaps, which the
	// fixed-rate phase charges to latency. Each window yields its own rate
	// and the run reports their median.
	rates, closedSent, closedFailed := run.closed(e, cfg.seconds-fixed, sent)
	res.Attempted += closedSent
	res.Failed += closedFailed
	logf("%s: closed loop of %d: %.0f req/s per window %.0f", name, w.inFlight, median(rates), rates)
	if err := run.checkPhase(phase); err != nil {
		return res, err
	}
	if err := run.checkQuiet(e); err != nil {
		return res, err
	}

	// The fixed-rate phase is cut into windows by due time; each window
	// yields its own percentiles and the run reports their medians, so a
	// burst of contention from other tenants of a shared host that slows a
	// minority of windows does not move them.
	p50s, p90s, _ := phase.windowStats(w.limit)
	n := float64(len(phase.recs))
	m := res.Metrics
	m.set("setup_s", median(setups), "s")
	m.set("op_ms_p50", median(p50s), "ms")
	m.set("op_ms_p90", median(p90s), "ms")
	m.set("samples_per_s", median(rates), "samples/s")
	m.set("model_loss", loss, "loss")
	m.set("allocs_per_op", float64(m1.Mallocs-m0.Mallocs)/n, "count")
	m.set("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/n/1024, "KiB")
	m.set("mem_mb_per_rank", heapMiB, "MiB")
	res.Correct = true
	return res, nil
}

// traceServe is the traced invocation: an untraced engine and then a
// traced one each serve the fixed rate for half the time with hot swaps
// beside them, so only tracing differs between the halves and the tracing
// overhead shows from one process; the traced half gives the per-layer
// figures.
func traceServe(name string, w serveWorkload, cfg runConfig, run *serveRun, fixed time.Duration) (result, error) {
	res := result{Metrics: metricSet{}}
	half := fixed / 2
	plain, _, err := run.start(0, nil)
	if err != nil {
		return res, err
	}
	run.warmUp(plain, 0)
	var untraced phaseResult
	if err := run.withSwaps(plain, func() { untraced = run.open(plain, w.rate, half, 0) }); err != nil {
		return res, fmt.Errorf("hot swap: %w", err)
	}
	if err := plain.Close(); err != nil {
		return res, err
	}
	run.resetSwaps()

	world := w.cfg.Ranks * w.cfg.Replicas
	trEpoch := time.Now()
	tr := obs.NewTracer(world+2, 1<<17)
	tr.SetRowName(world, "engine")
	tr.SetRowName(world+1, "benchmark")
	run.spans = newSpanLog(trEpoch, tr.Rank(world+1))
	e, _, err := run.start(0, tr)
	if err != nil {
		return res, err
	}
	defer e.Close()
	run.warmUp(e, 0)
	s0 := e.Metrics().Snapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	lo := time.Since(trEpoch)
	var phase phaseResult
	if err := run.withSwaps(e, func() { phase = run.open(e, w.rate, half, 0) }); err != nil {
		return res, fmt.Errorf("hot swap: %w", err)
	}
	win := interval{lo, time.Since(trEpoch)}
	runtime.ReadMemStats(&m1)
	s1 := e.Metrics().Snapshot()
	if err := run.checkPhase(phase); err != nil {
		return res, err
	}
	if err := run.checkQuiet(e); err != nil {
		return res, err
	}
	res.Attempted = len(untraced.recs) + len(phase.recs)
	res.Failed = untraced.failed() + phase.failed()

	m := res.Metrics
	n := float64(len(phase.recs))
	batches := float64(s1.Batches - s0.Batches)
	var fwd, tpMs time.Duration
	var tpCalls int
	var tpBytes int64
	// Only the collectives inside a rank's infer spans count: the two
	// Broadcasts ahead of each batch (the control word and the input) are
	// where a follower rank waits for the next batch, so their time tracks
	// the arrival rate rather than the cost of communication.
	for r := 0; r < world; r++ {
		evs := tr.Events(r)
		var infers []interval
		for _, ev := range evs {
			if ev.Ph == 'X' && ev.Name == "infer" {
				infers = append(infers, interval{ev.Start, ev.Start + ev.Dur})
				if ev.Start >= win.lo && ev.Start < win.hi {
					fwd += ev.Dur
				}
			}
		}
		tpCat := obs.CommCat("tp")
		d, c, b := spanTotals(evs, win, func(ev obs.Event) bool {
			return ev.Cat == tpCat && startsIn(infers, ev.Start)
		})
		tpMs, tpCalls, tpBytes = tpMs+d, tpCalls+c, tpBytes+b
	}
	perBatch := batches * float64(world)
	batchMean := float64(s1.Completed-s0.Completed) / batches
	m.set("serve.forward_ms_per_batch", ms(fwd)/perBatch, "ms")
	m.set("model.forward_ms", ms(fwd)/perBatch, "ms")
	m.set("comm.tp.ms", ms(tpMs)/perBatch, "ms")
	m.set("comm.tp.calls", float64(tpCalls)/perBatch, "count")
	m.set("comm.tp.bytes", float64(tpBytes)/perBatch, "B")
	m.set("serve.batch_mean", batchMean, "count")
	m.set("serve.batch_fill", batchMean/float64(w.cfg.MaxBatch), "ratio")
	m.set("serve.queue_depth_max", float64(phase.inflightMax), "count")
	m.set("serve.rejected", float64(phase.failed()), "count")
	m.set("serve.cache_hit_ratio", float64(phase.count(outHit))/n, "ratio")
	m.set("serve.coalesced_ratio", float64(phase.count(outCoalesced))/n, "ratio")
	m.set("serve.hit_ms_p50", median(phase.latMs(func(r reqRecord) bool { return r.outcome == outHit })), "ms")
	var queued []float64
	for _, r := range phase.recs {
		if r.outcome == outForward {
			queued = append(queued, ms(r.queued))
		}
	}
	m.set("serve.queue_ms_p50", median(queued), "ms")
	m.set("serve.gen_late_ms_max", ms(phase.lateMax), "ms")
	_, _, goodput := phase.windowStats(w.limit)
	m.set("serve.goodput_rps", median(goodput), "req/s")
	run.swapMu.Lock()
	m.set("ckpt.open_ms", mean(run.openMs), "ms")
	m.set("serve.swap_ms", mean(run.swapMs), "ms")
	m.set("serve.swaps", float64(len(run.swapMs)), "count")
	run.swapMu.Unlock()
	m.set("runtime.gc_per_op", float64(m1.NumGC-m0.NumGC)/n, "count")
	m.set("runtime.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6/n, "ms")

	b := max(1, int(math.Round(batchMean)))
	var inputs []*tensor.Tensor
	for _, req := range run.reqs[w.hot : w.hot+b] {
		inputs = append(inputs, req.Input)
	}
	x := tensor.Stack(inputs...)
	rp, err := replay(w.cfg.Ranks, func(tpc *comm.Communicator) *model.FoundationModel {
		mdl := model.NewDistributed(w.arch, tpc, false)
		mdl.SetInferDType(w.cfg.DType)
		mdl.SetEval(true)
		return mdl
	}, x, nil, nil)
	if err != nil {
		return res, err
	}
	rp.into(m)
	useful := usefulFLOPsPerSample(w.arch) / 3 // forward only
	m.set("tensor.achieved_gflops", useful*batchMean/(ms(fwd)/perBatch/1e3)/1e9, "GFLOP/s")
	m.set("dist.ranks_failed", 0, "count")
	tracedLat, plainLat := median(phase.latMs(all)), median(untraced.latMs(all))
	m.set("trace.op_ms_p50", tracedLat, "ms")
	m.set("trace.op_ms_p50_untraced", plainLat, "ms")
	m.set("trace.overhead_pct", 100*(tracedLat/plainLat-1), "%")
	if err := exportTrace(cfg, name, tr, run.spans); err != nil {
		return res, err
	}
	res.Correct = true
	return res, nil
}
