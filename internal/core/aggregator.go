// Package core implements the paper's primary contribution: Distributed
// Cross-Channel Hierarchical Aggregation (D-CHAG, Sec. 3).
//
// The package provides, bottom-up:
//
//   - group aggregators (cross-attention and lightweight linear) that reduce
//     a group of channel tokens to a single token (Sec. 3.2, Fig. 3);
//   - the serial HierarchicalAggregator, a tree of group aggregators that
//     turns the quadratic-in-channels memory of single-layer cross-attention
//     into linear (Sec. 3.2);
//   - DistTokenizer, distributed tokenization alone (Sec. 3.1), which
//     AllGathers every channel's tokens and is the strawman the paper shows
//     does not pay off (Fig. 8);
//   - DCHAG, the full method (Sec. 3.3, Fig. 4): per-rank tokenization of a
//     channel shard, a per-rank partial-channel aggregation module, an
//     AllGather of exactly one token per rank, and a final cross-attention
//     layer whose parameters are replicated so the backward pass needs no
//     communication at all;
//   - Reference, the mathematically identical single-process model used by
//     the tests to prove distributed == serial to float64 round-off.
package core

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// LayerKind selects the layer type used inside the partial-channel
// aggregation module: the paper's D-CHAG-C uses cross-attention layers,
// D-CHAG-L replaces them with lightweight linear layers (Sec. 3.3). The
// final, shared aggregation layer is always cross-attention.
type LayerKind int

// Partial-layer kinds.
const (
	// KindCross uses cross-attention group aggregators (D-CHAG-C).
	KindCross LayerKind = iota
	// KindLinear uses learned linear channel mixing (D-CHAG-L).
	KindLinear
	// KindPerceiver uses Perceiver-style latent-query fusion, the module the
	// paper's Sec. 3.5 discusses via Aurora. An extension beyond the paper's
	// -C/-L variants; DefaultPerceiverLatents latent tokens per group.
	KindPerceiver
)

// DefaultPerceiverLatents is the latent-token count of KindPerceiver
// partial layers.
const DefaultPerceiverLatents = 4

// String returns the paper's suffix for the kind ("-C" / "-L").
func (k LayerKind) String() string {
	switch k {
	case KindCross:
		return "C"
	case KindLinear:
		return "L"
	case KindPerceiver:
		return "P"
	default:
		return fmt.Sprintf("LayerKind(%d)", int(k))
	}
}

// GroupAggregator reduces a group of g channel tokens [N, g, E] to one token
// [N, E]. N is the folded batch*spatial dimension: aggregation is
// independent per spatial location, exactly like the paper's channel
// aggregation module.
type GroupAggregator interface {
	// GroupSize returns g, the number of channel tokens consumed.
	GroupSize() int
	// Forward reduces x [N, g, E] to [N, E].
	Forward(x *tensor.Tensor) *tensor.Tensor
	// Backward maps d [N, E] back to [N, g, E], accumulating parameter
	// gradients.
	Backward(d *tensor.Tensor) *tensor.Tensor
	// Params returns the aggregator's learnable parameters.
	Params() []*nn.Param
}

// CrossAttnAggregator reduces a channel group with one cross-attention layer
// in which the channel tokens attend to each other (queries = keys = values
// = the group's tokens, a g x g attention map — the quadratic memory the
// paper attributes to the channel aggregation module) followed by a mean
// over the group.
//
// The mean is linear, so it is taken inside the attention instead of after
// it: with ā the column mean of the softmax map, Wo·(ā·V) + bo equals
// mean_q(Wo·softmax(q_q·Kᵀ/√Dh)·V + bo) (DESIGN.md, "Cross-attention
// aggregator: evaluation order"). The Q/K/V projections and the g x g map
// stay as they are; the attention-weighted sum, Wo and their gradients run
// on one row per location instead of g. Attn holds the four projections and their
// parameters; its own Forward and Backward are not used.
type CrossAttnAggregator struct {
	Group int
	Attn  *nn.CrossAttention

	dtype tensor.DType // arithmetic of the no-grad Infer scores

	q, k, v    *tensor.Tensor // [N,g,E] projections cached for backward
	attn, abar *tensor.Tensor // softmax map [N,H,g,g] and its column mean [N,H,g]
	ctx        *tensor.Tensor // pooled context ā·V [N,E]

	iattn, iabar, ictx *tensor.Tensor // Infer scratch, separate from the caches

	dabar      *tensor.Tensor // Backward dā scratch [N,H,g]
	dq, dk, dv *tensor.Tensor // Backward projection-output gradients [N,g,E]
	dx         *tensor.Tensor
}

// NewCrossAttnAggregator builds a cross-attention aggregator over a group of
// the given size.
func NewCrossAttnAggregator(name string, group, embed, heads int, seed int64) *CrossAttnAggregator {
	return &CrossAttnAggregator{
		Group: group,
		Attn:  nn.NewCrossAttention(name, embed, heads, seed),
	}
}

// GroupSize returns the group size.
func (a *CrossAttnAggregator) GroupSize() int { return a.Group }

// Forward reduces x [N, g, E] to [N, E].
//
// dchag:hotpath — per-step; every buffer is layer-owned scratch.
func (a *CrossAttnAggregator) Forward(x *tensor.Tensor) *tensor.Tensor {
	a.checkInput("Forward", x)
	n, e := x.Shape[0], x.Shape[2]
	a.q, a.k, a.v = a.Attn.Wq.Forward(x), a.Attn.Wk.Forward(x), a.Attn.Wv.Forward(x)
	a.attn = tensor.EnsureShape(a.attn, n, a.Attn.Heads, a.Group, a.Group)
	a.abar = tensor.EnsureShape(a.abar, n, a.Attn.Heads, a.Group)
	a.ctx = tensor.EnsureShape(a.ctx, n, e)
	a.pool(a.attn, a.abar, a.ctx, a.q, a.k, a.v, false)
	return a.Attn.Wo.Forward(a.ctx)
}

// Infer reduces x [N, g, E] to [N, E] without caching activations for
// backward. Under F64 it runs Forward's kernel and is bitwise equal to it;
// under F32 the projections use the prepacked float32 weights and the score
// dot products run in float32.
//
// dchag:hotpath — the serve dispatch loop runs this once per group per
// micro-batch.
func (a *CrossAttnAggregator) Infer(x *tensor.Tensor) *tensor.Tensor {
	a.checkInput("Infer", x)
	n, e := x.Shape[0], x.Shape[2]
	q, k, v := a.Attn.Wq.Infer(x), a.Attn.Wk.Infer(x), a.Attn.Wv.Infer(x)
	a.iattn = tensor.EnsureShape(a.iattn, n, a.Attn.Heads, a.Group, a.Group)
	a.iabar = tensor.EnsureShape(a.iabar, n, a.Attn.Heads, a.Group)
	a.ictx = tensor.EnsureShape(a.ictx, n, e)
	a.pool(a.iattn, a.iabar, a.ictx, q, k, v, a.dtype == tensor.F32)
	return a.Attn.Wo.Infer(a.ictx)
}

func (a *CrossAttnAggregator) checkInput(op string, x *tensor.Tensor) {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group || x.Shape[2] != a.Attn.Embed {
		panic(fmt.Sprintf("core: CrossAttnAggregator.%s want [N,%d,%d], got %v", op, a.Group, a.Attn.Embed, x.Shape))
	}
}

// pool computes the pooled context of every location, split across
// tensor.ParallelRows workers. With f32 the score dot products run on
// float32 copies of q and k.
//
// dchag:hotpath — the float32 copies come from the tensor pool.
func (a *CrossAttnAggregator) pool(attn, abar, ctx, q, k, v *tensor.Tensor, f32 bool) {
	p := a.dims()
	n := ctx.Shape[0]
	if !f32 {
		tensor.ParallelRows(n, p.work(n), func(lo, hi int) {
			scores(p, attn.Data, q.Data, k.Data, lo, hi)
			p.poolRows(attn.Data, abar.Data, ctx.Data, v.Data, lo, hi)
		})
		return
	}
	q32, k32 := tensor.DefaultPool.Get32(len(q.Data)), tensor.DefaultPool.Get32(len(k.Data))
	for i, x := range q.Data {
		q32[i] = float32(x)
	}
	for i, x := range k.Data {
		k32[i] = float32(x)
	}
	tensor.ParallelRows(n, p.work(n), func(lo, hi int) {
		scores(p, attn.Data, q32, k32, lo, hi)
		p.poolRows(attn.Data, abar.Data, ctx.Data, v.Data, lo, hi)
	})
	tensor.DefaultPool.Put32(q32)
	tensor.DefaultPool.Put32(k32)
}

// Backward maps d [N, E] to the group input gradient [N, g, E].
//
// dchag:hotpath — per-step; the dS scratch comes from the tensor pool.
func (a *CrossAttnAggregator) Backward(d *tensor.Tensor) *tensor.Tensor {
	if a.attn == nil {
		panic("core: CrossAttnAggregator.Backward before Forward")
	}
	dctx := a.Attn.Wo.Backward(d) // [N, E]
	n := dctx.Shape[0]
	a.dabar = tensor.EnsureShape(a.dabar, a.abar.Shape...)
	a.dq = tensor.EnsureShape(a.dq, a.q.Shape...)
	a.dk = tensor.EnsureShape(a.dk, a.k.Shape...)
	a.dv = tensor.EnsureShape(a.dv, a.v.Shape...)
	p := a.dims()
	tensor.ParallelRows(n, 2*p.work(n), func(lo, hi int) {
		ds := tensor.DefaultPool.GetTensor(a.Group * a.Group)
		p.gradRows(ds.Data, a.dabar.Data, a.dq.Data, a.dk.Data, a.dv.Data, dctx.Data,
			a.attn.Data, a.abar.Data, a.q.Data, a.k.Data, a.v.Data, lo, hi)
		tensor.DefaultPool.PutTensor(ds)
	})
	dx := a.Attn.Wq.Backward(a.dq)
	a.dx = tensor.EnsureShape(a.dx, dx.Shape...)
	tensor.AddInto(a.dx, dx, a.Attn.Wk.Backward(a.dk))
	tensor.AddInPlace(a.dx, a.Attn.Wv.Backward(a.dv))
	return a.dx
}

// SetInferDType selects the arithmetic of the no-grad Infer path: the four
// projections and the attention scores.
func (a *CrossAttnAggregator) SetInferDType(dt tensor.DType) {
	a.dtype = dt
	a.Attn.SetInferDType(dt)
}

// Params returns the attention parameters.
func (a *CrossAttnAggregator) Params() []*nn.Param { return a.Attn.Params() }

func (a *CrossAttnAggregator) dims() poolDims {
	dh := a.Attn.Embed / a.Attn.Heads
	return poolDims{g: a.Group, heads: a.Attn.Heads, dh: dh, scale: 1 / math.Sqrt(float64(dh))}
}

// poolDims describes the mean-pooled attention of one group: g channel
// tokens per location, heads heads of width dh, score scale 1/√dh. Every
// buffer is row-major with the location outermost: q, k, v and their
// gradients [N,g,E], the map [N,H,g,g], ā and dā [N,H,g], the context and
// its gradient [N,E], where E = heads·dh and head h owns columns
// [h·dh, (h+1)·dh) of an E-row.
type poolDims struct {
	g, heads, dh int
	scale        float64
}

// work is the multiply-add count of the score products over n locations,
// the dispatch estimate for tensor.ParallelRows.
func (p poolDims) work(n int) int { return n * p.heads * p.g * p.g * p.dh }

// scores sets attn[i,j] = q_i·k_j·scale for locations [lo,hi) and every
// head, with the dot products in the arithmetic of T (four interleaved
// partial sums, as in dot).
//
// dchag:hotpath — the score product of every cross-attention aggregator,
// training and serving; it writes only into caller-owned buffers.
func scores[T float32 | float64](p poolDims, attn []float64, q, k []T, lo, hi int) {
	g, dh := p.g, p.dh
	e := p.heads * dh
	for n := lo; n < hi; n++ {
		qn, kn := q[n*g*e:(n+1)*g*e], k[n*g*e:(n+1)*g*e]
		for h := 0; h < p.heads; h++ {
			amap := attn[(n*p.heads+h)*g*g : (n*p.heads+h+1)*g*g]
			for i := 0; i < g; i++ {
				qi := qn[i*e+h*dh : i*e+(h+1)*dh]
				row := amap[i*g : (i+1)*g]
				for j := range row {
					kj := kn[j*e+h*dh : j*e+(h+1)*dh][:len(qi)]
					var s0, s1, s2, s3 T
					d := 0
					for ; d+4 <= len(qi); d += 4 {
						x, y := qi[d:d+4:d+4], kj[d:d+4:d+4]
						s0 += x[0] * y[0]
						s1 += x[1] * y[1]
						s2 += x[2] * y[2]
						s3 += x[3] * y[3]
					}
					for ; d < len(qi); d++ {
						s0 += qi[d] * kj[d]
					}
					row[j] = float64((s0+s1)+(s2+s3)) * p.scale
				}
			}
		}
	}
}

// poolRows turns the scores in attn into the softmax map, row by row, for
// locations [lo,hi) and every head, then writes its column mean abar[j] =
// (1/g)·Σ_i attn[i,j] and the pooled context ctx = Σ_j abar[j]·v_j.
//
// dchag:hotpath — the forward kernel of every cross-attention aggregator,
// training and serving; it writes only into caller-owned buffers.
func (p poolDims) poolRows(attn, abar, ctx, v []float64, lo, hi int) {
	g, dh := p.g, p.dh
	e := p.heads * dh
	inv := 1 / float64(g)
	for n := lo; n < hi; n++ {
		vn := v[n*g*e : (n+1)*g*e]
		for h := 0; h < p.heads; h++ {
			nh := n*p.heads + h
			amap := attn[nh*g*g : (nh+1)*g*g]
			mean := abar[nh*g : (nh+1)*g]
			clear(mean)
			for i := 0; i < g; i++ {
				row := amap[i*g : (i+1)*g]
				tensor.SoftmaxRowInto(row, row)
				for j, w := range row {
					mean[j] += w
				}
			}
			for j := range mean {
				mean[j] *= inv
			}
			combine(ctx[n*e+h*dh:n*e+(h+1)*dh], mean, 1, vn[h*dh:], e, g)
		}
	}
}

// gradRows back-propagates poolRows for locations [lo,hi): given the
// context gradient dctx it writes dā, dv = ā ⊗ dctx, and the score
// gradient's products dq = dS·k and dk = dSᵀ·q, where dS[i,j] =
// attn[i,j]·(dā[j] − Σ_j' attn[i,j']·dā[j'])·scale/g — every query row of
// the map receives the same upstream dā/g. ds is g·g scratch for dS.
//
// dchag:hotpath — the backward kernel of every cross-attention aggregator;
// it writes only into caller-owned buffers.
func (p poolDims) gradRows(ds, dabar, dq, dk, dv, dctx, attn, abar, q, k, v []float64, lo, hi int) {
	g, dh := p.g, p.dh
	e := p.heads * dh
	sc := p.scale / float64(g)
	for n := lo; n < hi; n++ {
		qn, kn, vn := q[n*g*e:(n+1)*g*e], k[n*g*e:(n+1)*g*e], v[n*g*e:(n+1)*g*e]
		dqn, dkn, dvn := dq[n*g*e:(n+1)*g*e], dk[n*g*e:(n+1)*g*e], dv[n*g*e:(n+1)*g*e]
		for h := 0; h < p.heads; h++ {
			nh := n*p.heads + h
			amap := attn[nh*g*g : (nh+1)*g*g]
			mean := abar[nh*g : (nh+1)*g]
			dmean := dabar[nh*g : (nh+1)*g]
			dc := dctx[n*e+h*dh : n*e+(h+1)*dh]
			for j := range dmean {
				dmean[j] = dot(dc, vn[j*e+h*dh:j*e+(h+1)*dh])
				dvj := dvn[j*e+h*dh : j*e+(h+1)*dh]
				w := mean[j]
				for d, x := range dc {
					dvj[d] = w * x
				}
			}
			for i := 0; i < g; i++ {
				row := amap[i*g : (i+1)*g]
				r := dot(row, dmean)
				dsi := ds[i*g : (i+1)*g]
				for j, w := range row {
					dsi[j] = w * (dmean[j] - r) * sc
				}
			}
			for i := 0; i < g; i++ {
				combine(dqn[i*e+h*dh:i*e+(h+1)*dh], ds[i*g:], 1, kn[h*dh:], e, g)
				combine(dkn[i*e+h*dh:i*e+(h+1)*dh], ds[i:], g, qn[h*dh:], e, g)
			}
		}
	}
}

// combine sets out[d] = Σ_t w[t·ws]·x[t·xs+d] for t < n: a weighted sum of
// n strided rows, summed in t order, eight output columns at a time in
// registers.
//
// dchag:hotpath — inner loop of the pooled-attention kernels.
func combine(out, w []float64, ws int, x []float64, xs, n int) {
	d := 0
	for ; d+8 <= len(out); d += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for t := 0; t < n; t++ {
			wt := w[t*ws]
			r := x[t*xs+d : t*xs+d+8 : t*xs+d+8]
			s0 += wt * r[0]
			s1 += wt * r[1]
			s2 += wt * r[2]
			s3 += wt * r[3]
			s4 += wt * r[4]
			s5 += wt * r[5]
			s6 += wt * r[6]
			s7 += wt * r[7]
		}
		o := out[d : d+8 : d+8]
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	for ; d < len(out); d++ {
		s := 0.0
		for t := 0; t < n; t++ {
			s += w[t*ws] * x[t*xs+d]
		}
		out[d] = s
	}
}

// dot returns Σ a[i]·b[i] over len(a), in four interleaved partial sums.
//
// dchag:hotpath — inner loop of the pooled-attention backward.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += x[0] * y[0]
		s1 += x[1] * y[1]
		s2 += x[2] * y[2]
		s3 += x[3] * y[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// LinearAggregator reduces a channel group with a learned linear combination
// across the channel axis: out[n,e] = sum_g w[g] * x[n,g,e] + b[e]. This is
// the "lightweight linear layer" of D-CHAG-L: g+E parameters instead of the
// 4E^2 of a cross-attention layer, and O(g) instead of O(g^2) activation
// memory.
type LinearAggregator struct {
	Group  int
	Weight *nn.Param // [g]
	Bias   *nn.Param // [E]

	x *tensor.Tensor

	out, iout *tensor.Tensor // Forward / Infer output scratch
	dx        *tensor.Tensor // Backward scratch
}

// NewLinearAggregator builds a linear aggregator initialized near the mean
// (w = 1/g plus small seeded noise) with zero bias.
func NewLinearAggregator(name string, group, embed int, seed int64) *LinearAggregator {
	rng := tensor.NewRNG(seed)
	w := tensor.New(group)
	for i := range w.Data {
		w.Data[i] = 1/float64(group) + 0.01*rng.NormFloat64()
	}
	return &LinearAggregator{
		Group:  group,
		Weight: nn.NewParam(name+".weight", w),
		Bias:   nn.NewParam(name+".bias", tensor.New(embed)),
	}
}

// GroupSize returns the group size.
func (a *LinearAggregator) GroupSize() int { return a.Group }

// Forward reduces x [N, g, E] to [N, E].
func (a *LinearAggregator) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group {
		panic(fmt.Sprintf("core: LinearAggregator.Forward want [N,%d,E], got %v", a.Group, x.Shape))
	}
	a.x = x
	a.out = tensor.EnsureShape(a.out, x.Shape[0], x.Shape[2])
	return a.reduce(a.out, x)
}

// Infer reduces x [N, g, E] to [N, E] without caching the input for
// backward.
func (a *LinearAggregator) Infer(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[1] != a.Group {
		panic(fmt.Sprintf("core: LinearAggregator.Infer want [N,%d,E], got %v", a.Group, x.Shape))
	}
	a.iout = tensor.EnsureShape(a.iout, x.Shape[0], x.Shape[2])
	return a.reduce(a.iout, x)
}

// reduce applies the learned linear combination across the channel axis,
// writing into out.
//
// dchag:hotpath — per-step channel mixing; out is layer-owned scratch.
func (a *LinearAggregator) reduce(out, x *tensor.Tensor) *tensor.Tensor {
	n, e := x.Shape[0], x.Shape[2]
	for ni := 0; ni < n; ni++ {
		dst := out.Data[ni*e : (ni+1)*e]
		copy(dst, a.Bias.W.Data)
		for g := 0; g < a.Group; g++ {
			w := a.Weight.W.Data[g]
			src := x.Data[(ni*a.Group+g)*e : (ni*a.Group+g+1)*e]
			for i, v := range src {
				dst[i] += w * v
			}
		}
	}
	return out
}

// Backward maps d [N, E] to [N, g, E] and accumulates dWeight and dBias.
//
// dchag:hotpath — per-step channel-mixing backward; dx is layer-owned
// scratch.
func (a *LinearAggregator) Backward(d *tensor.Tensor) *tensor.Tensor {
	if a.x == nil {
		panic("core: LinearAggregator.Backward before Forward")
	}
	n, e := a.x.Shape[0], a.x.Shape[2]
	a.dx = tensor.EnsureShape(a.dx, n, a.Group, e)
	dx := a.dx
	for ni := 0; ni < n; ni++ {
		src := d.Data[ni*e : (ni+1)*e]
		for i, v := range src {
			a.Bias.Grad.Data[i] += v
		}
		for g := 0; g < a.Group; g++ {
			w := a.Weight.W.Data[g]
			xrow := a.x.Data[(ni*a.Group+g)*e : (ni*a.Group+g+1)*e]
			drow := dx.Data[(ni*a.Group+g)*e : (ni*a.Group+g+1)*e]
			s := 0.0
			for i, v := range src {
				drow[i] = w * v
				s += v * xrow[i]
			}
			a.Weight.Grad.Data[g] += s
		}
	}
	return dx
}

// Params returns the weight and bias.
func (a *LinearAggregator) Params() []*nn.Param { return []*nn.Param{a.Weight, a.Bias} }

// newGroupAggregator dispatches on kind.
func newGroupAggregator(name string, kind LayerKind, group, embed, heads int, seed int64) GroupAggregator {
	switch kind {
	case KindCross:
		return NewCrossAttnAggregator(name, group, embed, heads, seed)
	case KindLinear:
		return NewLinearAggregator(name, group, embed, seed)
	case KindPerceiver:
		return NewPerceiverAggregator(name, group, DefaultPerceiverLatents, embed, heads, seed)
	default:
		panic(fmt.Sprintf("core: unknown LayerKind %d", kind))
	}
}
