// Command dchagbench is the repository's end-to-end benchmark: steady-state
// training steps and open-loop serving, measured from outside the program
// through its public entry points. See README.md for the workloads and the
// metrics.
//
//	dchagbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, which every workload reports; with --trace 1 they
// are the per-layer ones, and the run also writes a Chrome trace and the
// benchmark's own spans under --out.
// Any failed correctness check exits nonzero without printing a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/tensor"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }
func (m metricSet) get(name string) float64                 { return m[name].Value }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	outDir  string
	host    map[string]string
}

// endToEnd names the metrics of an untraced run with their units. Every
// workload reports all of them, and none may read 0: an operation is a
// training step or a served request, and a sample is one image.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"samples_per_s", "samples/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"model_loss", "loss"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"mem_mb_per_rank", "MiB"},
}

// perLayer names the metrics of a traced run with their units. Every traced
// run reports all of them; a layer that does no work on a workload reads 0.
var perLayer = []struct{ name, unit string }{
	{"data.wait_ms", "ms"},
	{"train.loop_self_ms", "ms"},
	{"model.forward_ms", "ms"},
	{"model.backward_ms", "ms"},
	{"model.vit_ms", "ms"},
	{"model.head_loss_ms", "ms"},
	{"model.glue_ms", "ms"},
	{"core.tokenize_ms", "ms"},
	{"core.agg_l0_ms", "ms"},
	{"core.agg_l1_ms", "ms"},
	{"core.final_ms", "ms"},
	{"core.stage_share", "ratio"},
	{"comm.tp.ms", "ms"},
	{"comm.tp.calls", "count"},
	{"comm.tp.bytes", "B"},
	{"comm.dp.ms", "ms"},
	{"comm.dp.calls", "count"},
	{"comm.dp.bytes", "B"},
	{"parallel.ddp_sync_ms", "ms"},
	{"comm.backward_bytes", "B"},
	{"optim.step_ms", "ms"},
	{"ckpt.save_ms", "ms"},
	{"ckpt.save_mb", "MiB"},
	{"ckpt.saves", "count"},
	{"ckpt.open_ms", "ms"},
	{"serve.swap_ms", "ms"},
	{"serve.swaps", "count"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.forward_ms_per_batch", "ms"},
	{"serve.batch_mean", "count"},
	{"serve.batch_fill", "ratio"},
	{"serve.queue_depth_max", "count"},
	{"serve.rejected", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.gen_late_ms_max", "ms"},
	{"serve.goodput_rps", "req/s"},
	{"tensor.achieved_gflops", "GFLOP/s"},
	{"dist.setup_ms", "ms"},
	{"dist.ranks_failed", "count"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.op_ms_p50", "ms"},
	{"trace.op_ms_p50_untraced", "ms"},
	{"trace.overhead_pct", "%"},
}

func layerUnit(name string) string {
	for _, l := range perLayer {
		if l.name == name {
			return l.unit
		}
	}
	return ""
}

// hostShape records what the figures depend on besides the code.
func hostShape() map[string]string {
	bi := buildinfo.Get()
	commit := bi.Revision
	if commit == "" {
		commit = "unknown"
	} else if bi.Modified {
		commit += "+modified"
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"simd":       strconv.FormatBool(tensor.SIMDEnabled()),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

var startTime = time.Now()

// logf prints a progress line to standard error, stamped with the time
// since the run began.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "[%6.2fs] %s\n", time.Since(startTime).Seconds(), fmt.Sprintf(format, args...))
}

func run(workload string, cfg runConfig) (result, error) {
	if w, ok := trainWorkloads(cfg.seed)[workload]; ok {
		return runTrainWorkload(workload, w, cfg)
	}
	if workload == "serve-mixed" {
		return runServeWorkload(workload, serveMixed(), cfg)
	}
	return result{}, fmt.Errorf("unknown workload %q (want hyper-serial, hyper-dchag, weather-hybrid or serve-mixed)", workload)
}

// finish checks the metric names and units against the declared lists. An
// untraced run must report every end-to-end metric, none of them 0; a traced
// run reports every per-layer metric, and a layer that did no work reads 0.
func finish(res *result, trace bool) error {
	declared := endToEnd
	if trace {
		declared = perLayer
	}
	known := map[string]bool{}
	for _, d := range declared {
		known[d.name] = true
		v, ok := res.Metrics[d.name]
		switch {
		case !ok && trace:
			res.Metrics.set(d.name, 0, d.unit)
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case v.Unit != d.unit:
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, v.Unit, d.unit)
		case !trace && v.Value == 0:
			return fmt.Errorf("metric %s is 0", d.name)
		}
	}
	var unknown []string
	for n, v := range res.Metrics {
		if !known[n] {
			unknown = append(unknown, n)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, v.Value)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return fmt.Errorf("undeclared metrics %v", unknown)
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/out", "directory for traces and scratch files")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "dchagbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		outDir:  *out,
		host:    hostShape(),
	}
	start := time.Now()
	res, err := run(*workload, cfg)
	if err == nil {
		err = finish(&res, cfg.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dchagbench:", err)
		os.Exit(1)
	}
	info, _ := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "trace": cfg.trace,
		"host": cfg.host, "wall_s": time.Since(start).Seconds(),
	})
	fmt.Println(string(info))
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}
