package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// maxAbs returns the largest |v| in t.
func maxAbs(t *tensor.Tensor) float64 {
	m := 0.0
	for _, v := range t.Data {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// unpooledCrossAttn is the aggregator's formula evaluated in the order it
// is written, mean_q(Wo·softmax(q_q·Kᵀ/√Dh)·V + bo): a full
// nn.CrossAttention over the group followed by a mean over the query axis.
// It returns the output, the input gradient for upstream d, and the
// attention layer whose parameter gradients it accumulated.
func unpooledCrossAttn(g, embed, heads int, seed int64, x, d *tensor.Tensor) (out, dx *tensor.Tensor, attn *nn.CrossAttention) {
	attn = nn.NewCrossAttention("agg", embed, heads, seed)
	out = tensor.MeanAxis(attn.Forward(x, x), 1)
	n := x.Shape[0]
	dy := tensor.New(n, g, embed)
	for i := 0; i < n; i++ {
		for q := 0; q < g; q++ {
			for c := 0; c < embed; c++ {
				dy.Data[(i*g+q)*embed+c] = d.Data[i*embed+c] / float64(g)
			}
		}
	}
	dq, dkv := attn.Backward(dy)
	return out, tensor.Add(dq, dkv), attn
}

// TestCrossAttnAggregatorMatchesUnpooled pins the mean-pooled evaluation
// order against the unpooled formula: output, input gradient and all eight
// parameter gradients agree to 1e-12 relative, across the group sizes the
// model builds (g=1: EvenSplit singletons and the final layer at TP=1; g=2:
// the final layer at TP=2) and several head counts.
func TestCrossAttnAggregatorMatchesUnpooled(t *testing.T) {
	const embed, n, tol = 8, 5, 1e-12
	for _, g := range []int{1, 2, 3, 16} {
		for _, heads := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("g=%d/heads=%d", g, heads), func(t *testing.T) {
				seed := int64(100*g + heads)
				rng := tensor.NewRNG(seed)
				x := tensor.Randn(rng, n, g, embed)
				d := tensor.Randn(rng, n, embed)
				wantOut, wantDx, ref := unpooledCrossAttn(g, embed, heads, seed, x, d)

				a := NewCrossAttnAggregator("agg", g, embed, heads, seed)
				out := a.Forward(x)
				dx := a.Backward(d)
				check := func(name string, got, want *tensor.Tensor, scale float64) {
					t.Helper()
					if diff := tensor.MaxAbsDiff(got, want); diff > tol*scale {
						t.Errorf("%s: max diff %g exceeds %g relative to scale %g", name, diff, tol, scale)
					}
				}
				check("output", out, wantOut, maxAbs(wantOut))
				check("dx", dx, wantDx, maxAbs(wantDx))

				ps, refPs := a.Params(), ref.Params()
				if len(ps) != 8 || len(refPs) != 8 {
					t.Fatalf("want 8 parameters, got %d and %d", len(ps), len(refPs))
				}
				gradScale := 0.0
				for _, p := range refPs {
					gradScale = math.Max(gradScale, maxAbs(p.Grad))
				}
				for i, p := range ps {
					if p.Name != refPs[i].Name {
						t.Fatalf("param %d named %q, reference %q", i, p.Name, refPs[i].Name)
					}
					scale := maxAbs(refPs[i].Grad)
					if p.Name == "agg.wk.bias" {
						// The key bias adds a constant to every score of a
						// softmax row, so its true gradient is exactly zero
						// and both sides hold round-off; compare at the
						// layer's gradient scale.
						scale = gradScale
					}
					check(p.Name+" grad", p.Grad, refPs[i].Grad, scale)
				}
			})
		}
	}
}

// TestCrossAttnAggregatorInfer pins the no-grad path: under F64 Infer runs
// Forward's kernel and is bitwise equal to it, under F32 it stays within the
// DESIGN.md tolerance (1e-4 of the output scale).
func TestCrossAttnAggregatorInfer(t *testing.T) {
	for _, g := range []int{1, 2, 16} {
		rng := tensor.NewRNG(int64(g))
		a := NewCrossAttnAggregator("agg", g, 32, 2, 7)
		x := tensor.Randn(rng, 12, g, 32)
		want := a.Forward(x).Clone()
		got := a.Infer(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("g=%d: f64 Infer[%d] = %v, Forward %v", g, i, got.Data[i], want.Data[i])
			}
		}
		a.SetInferDType(tensor.F32)
		got = a.Infer(x)
		if diff, lim := tensor.MaxAbsDiff(got, want), 1e-4*maxAbs(want); diff > lim || diff == 0 {
			t.Fatalf("g=%d: f32 Infer differs from Forward by %g, want (0, %g]", g, diff, lim)
		}
	}
}
