package repro

import (
	"fmt"
	"testing"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/train"
)

// benchFig runs a registered figure reproduction once per iteration. The
// analytic figures (6-9, 13-16) are microsecond-scale; the training figures
// (11, 12) run real reduced-scale training and take seconds per iteration.
func benchFig(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.Find(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := e.Run()
		if len(res.Tables) == 0 {
			b.Fatal("experiment produced no tables")
		}
	}
}

// One benchmark per paper figure (see DESIGN.md experiment index).

func BenchmarkFig06SingleGPU(b *testing.B)   { benchFig(b, "fig06") }
func BenchmarkFig07TPBaseline(b *testing.B)  { benchFig(b, "fig07") }
func BenchmarkFig08DistTok(b *testing.B)     { benchFig(b, "fig08") }
func BenchmarkFig09TreeConfigs(b *testing.B) { benchFig(b, "fig09") }
func BenchmarkFig11MAELoss(b *testing.B)     { benchFig(b, "fig11") }
func BenchmarkFig12WeatherLoss(b *testing.B) { benchFig(b, "fig12") }
func BenchmarkFig13ModelScale(b *testing.B)  { benchFig(b, "fig13") }
func BenchmarkFig14LargeModel(b *testing.B)  { benchFig(b, "fig14") }
func BenchmarkFig15Hybrid(b *testing.B)      { benchFig(b, "fig15") }
func BenchmarkFig16BatchScale(b *testing.B)  { benchFig(b, "fig16") }
func BenchmarkSweepStepTime(b *testing.B)    { benchFig(b, "sweep") }
func BenchmarkServeThroughput(b *testing.B)  { benchFig(b, "serve") }

// Micro-benchmarks of the substrates the figures run on.

func BenchmarkTensorMatMul(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := tensor.NewRNG(1)
			x := tensor.Randn(rng, n, n)
			y := tensor.Randn(rng, n, n)
			b.SetBytes(int64(8 * n * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tensor.MatMul(x, y)
			}
		})
	}
}

func BenchmarkSelfAttentionForwardBackward(b *testing.B) {
	attn := nn.NewSelfAttention("a", 64, 4, 1)
	rng := tensor.NewRNG(2)
	x := tensor.Randn(rng, 2, 32, 64)
	up := tensor.Randn(rng, 2, 32, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		attn.Forward(x)
		attn.Backward(up)
	}
}

func BenchmarkPatchEmbedTokenize(b *testing.B) {
	tok := nn.NewPatchEmbed("t", 64, 16, 16, 4, 32, 3)
	x := tensor.Randn(tensor.NewRNG(3), 2, 64, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tok.Forward(x)
	}
}

func BenchmarkHierarchicalAggregator(b *testing.B) {
	for _, kind := range []core.LayerKind{core.KindCross, core.KindLinear} {
		for _, tree := range []int{0, 4} {
			b.Run(fmt.Sprintf("kind=%s/tree=%d", kind, tree), func(b *testing.B) {
				h := core.NewHierarchicalAggregator("h", core.BuildTreePlan(64, tree), kind, 16, 2, 4)
				x := tensor.Randn(tensor.NewRNG(4), 2, 64, 8, 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.Forward(x)
				}
			})
		}
	}
}

func BenchmarkCollectives(b *testing.B) {
	for _, op := range []string{"allreduce", "allgather", "reducescatter"} {
		b.Run(op, func(b *testing.B) {
			_, err := comm.Run(4, func(c *comm.Communicator) error {
				x := tensor.Randn(tensor.NewRNG(int64(c.Rank())), 4096)
				for i := 0; i < b.N; i++ {
					switch op {
					case "allreduce":
						c.AllReduceSum(x)
					case "allgather":
						c.AllGather(x)
					case "reducescatter":
						c.ReduceScatterSum(x, 0)
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDCHAGForwardBackward times one D-CHAG forward+backward on a
// 2-rank TP group; each rank builds its module once, outside the timer.
// kind=C is the hyper-dchag benchmark workload's stage: 64 channels, TP=2,
// an 8x8 image with patch 2, E=32, 2 heads, a 2-level tree, batch 8.
func BenchmarkDCHAGForwardBackward(b *testing.B) {
	for _, bc := range []struct {
		name  string
		cfg   core.Config
		batch int
	}{
		{"kind=L", core.Config{
			Channels: 32, ImgH: 8, ImgW: 8, Patch: 2,
			Embed: 16, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 5,
		}, 2},
		{"kind=C", core.Config{
			Channels: 64, ImgH: 8, ImgW: 8, Patch: 2,
			Embed: 32, Heads: 2, Tree: 2, Kind: core.KindCross, Seed: 5,
		}, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := bc.cfg
			rng := tensor.NewRNG(6)
			x := tensor.Randn(rng, bc.batch, cfg.Channels, cfg.ImgH, cfg.ImgW)
			up := tensor.Randn(rng, bc.batch, cfg.Tokens(), cfg.Embed)
			b.ReportAllocs()
			_, err := comm.Run(2, func(c *comm.Communicator) error {
				d := core.NewDCHAG(cfg, c)
				xs := tensor.SliceAxis(x, 1, d.ChLo, d.ChHi)
				c.Barrier()
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				c.Barrier()
				for i := 0; i < b.N; i++ {
					d.Forward(xs)
					d.Backward(up)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCrossAttnAggregator times one cross-attention group aggregator
// forward+backward at the hyper-dchag level-0 shape: N=128 locations (batch
// 8 x 16 patches), a group of 16 channel tokens, E=32, 2 heads.
func BenchmarkCrossAttnAggregator(b *testing.B) {
	a := core.NewCrossAttnAggregator("agg", 16, 32, 2, 1)
	rng := tensor.NewRNG(2)
	x := tensor.Randn(rng, 128, 16, 32)
	up := tensor.Randn(rng, 128, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Forward(x)
		a.Backward(up)
	}
}

func BenchmarkTrainingStepSerialVsDistributed(b *testing.B) {
	arch := model.Arch{
		Config: core.Config{
			Channels: 16, ImgH: 8, ImgW: 8, Patch: 2,
			Embed: 16, Heads: 2, Tree: 0, Kind: core.KindLinear, Seed: 7,
		},
		Depth: 2, MetaTokens: 1,
	}
	gen := data.NewHyperspectral(data.HyperspectralConfig{
		Images: 16, Channels: 16, ImgH: 8, ImgW: 8, Endmembers: 2, Noise: 0.01, Seed: 8,
	})
	x := gen.Batch(0, 2)
	batch := func(int) (*tensor.Tensor, *tensor.Tensor) { return x, x }
	opts := train.Options{Steps: 1, Batch: 2, LR: 1e-3, MaskRatio: 0.5, Seed: 9}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			train.Serial(model.NewSerial(arch), opts, batch)
		}
	})
	b.Run("dchag-2ranks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := train.Distributed(arch, 2, false, opts, batch); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWeatherGeneration(b *testing.B) {
	w := data.NewWeather(data.WeatherConfig{NativeH: 32, NativeW: 64, Steps: 64, DtHours: 6, Seed: 10})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.SnapshotAt(i%32, 8, 16)
	}
}

func BenchmarkRegridBilinear(b *testing.B) {
	f := tensor.Randn(tensor.NewRNG(11), 128, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data.RegridBilinear(f, 32, 64)
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationPartialKind compares the three partial-layer kinds of the
// D-CHAG module — the paper's -C and -L variants plus the Perceiver
// extension (Sec. 3.5) — at identical shapes.
func BenchmarkAblationPartialKind(b *testing.B) {
	for _, kind := range []core.LayerKind{core.KindCross, core.KindLinear, core.KindPerceiver} {
		b.Run("kind="+kind.String(), func(b *testing.B) {
			cfg := core.Config{
				Channels: 64, ImgH: 8, ImgW: 8, Patch: 2,
				Embed: 16, Heads: 2, Tree: 0, Kind: kind, Seed: 21,
			}
			rng := tensor.NewRNG(22)
			x := tensor.Randn(rng, 1, cfg.Channels, cfg.ImgH, cfg.ImgW)
			up := tensor.Randn(rng, 1, cfg.Tokens(), cfg.Embed)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := comm.Run(2, func(c *comm.Communicator) error {
					d := core.NewDCHAG(cfg, c)
					d.Forward(tensor.SliceAxis(x, 1, d.ChLo, d.ChHi))
					d.Backward(up)
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationTreeDepth measures the serial hierarchical aggregator as
// the tree deepens (paper Fig. 3 / Sec. 3.2): deeper trees shrink the
// largest attention group at the cost of more layers.
func BenchmarkAblationTreeDepth(b *testing.B) {
	for _, tree := range []int{0, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("tree=%d", tree), func(b *testing.B) {
			h := core.NewHierarchicalAggregator("h", core.BuildTreePlan(64, tree), core.KindCross, 16, 2, 23)
			x := tensor.Randn(tensor.NewRNG(24), 1, 64, 16, 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				y := h.Forward(x)
				h.Backward(y)
			}
		})
	}
}

// BenchmarkAblationSPvsTPBlock compares the two model-parallel ViT blocks
// the paper discusses (TP in Sec. 4.3, SP in Sec. 3.5) at the same shape.
func BenchmarkAblationSPvsTPBlock(b *testing.B) {
	const embed, heads, tokens = 16, 2, 16
	rng := tensor.NewRNG(25)
	x := tensor.Randn(rng, 2, tokens, embed)
	up := tensor.Randn(rng, 2, tokens, embed)
	b.Run("tp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := comm.Run(2, func(c *comm.Communicator) error {
				blk := parallel.NewParallelTransformerBlock("blk", embed, heads, 26, c)
				blk.Forward(x)
				blk.Backward(up)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := comm.Run(2, func(c *comm.Communicator) error {
				blk := parallel.NewSPTransformerBlock("blk", embed, heads, 26, c)
				blk.Forward(parallel.ScatterTokens(x, c))
				blk.Backward(parallel.ScatterTokens(up, c))
				blk.SyncGradients()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSwinVsViT compares windowed (Swin-style, Sec. 3.5) and
// dense self-attention ViT blocks at the same grid size.
func BenchmarkAblationSwinVsViT(b *testing.B) {
	const embed, heads, grid = 16, 2, 8 // 64 tokens
	rng := tensor.NewRNG(27)
	x := tensor.Randn(rng, 2, grid*grid, embed)
	up := tensor.Randn(rng, 2, grid*grid, embed)
	b.Run("vit", func(b *testing.B) {
		blk := nn.NewTransformerBlock("blk", embed, heads, 28)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk.Forward(x)
			blk.Backward(up)
		}
	})
	b.Run("swin", func(b *testing.B) {
		blk := nn.NewSwinBlock("blk", embed, heads, grid, grid, 4, true, 28)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			blk.Forward(x)
			blk.Backward(up)
		}
	})
}
