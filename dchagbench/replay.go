package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// replayIters is how many timed passes the layer replay makes after one
// untimed warm-up pass; each figure is the median over them.
const replayIters = 9

// layerTimes is one rank's replay of the model's exported sub-layers on the
// workload's shapes: each layer's forward and, when training, its backward.
type layerTimes struct {
	full, stage, tokenize, final, vit, headLoss time.Duration
	agg                                         []time.Duration // per aggregation-tree level
}

// replayResult is the replay averaged over ranks.
type replayResult struct {
	full, stage, tokenize, final, vit, headLoss float64 // ms
	agg                                         []float64
	distSetup                                   float64 // ms from RunMesh to the last rank running
}

// into sets the replay's metrics. model.glue_ms is whatever the timed
// sub-layers leave of the whole model: positional and metadata tokens,
// mask-token substitution, and inside the stage the channel slicing,
// folding and AllGather.
func (r replayResult) into(m metricSet) {
	m.set("model.vit_ms", r.vit, "ms")
	m.set("model.head_loss_ms", r.headLoss, "ms")
	m.set("core.tokenize_ms", r.tokenize, "ms")
	glue := r.full - r.tokenize - r.final - r.vit - r.headLoss
	for l, v := range r.agg {
		m.set(fmt.Sprintf("core.agg_l%d_ms", l), v, "ms")
		glue -= v
	}
	m.set("model.glue_ms", glue, "ms")
	m.set("core.final_ms", r.final, "ms")
	m.set("core.stage_share", r.stage/r.full, "ratio")
	m.set("dist.setup_ms", r.distSetup, "ms")
}

// replayer times single layers. Inputs and gradients are random tensors
// made once per shape outside the timed calls.
type replayer struct {
	infer bool
	mask  *tensor.Tensor // MAE mask [B, T]; nil for forecasting and serving
	rng   *rand.Rand
	bufs  map[string]*tensor.Tensor
}

func (r *replayer) like(shape ...int) *tensor.Tensor {
	return r.cached("x", shape, func(t *tensor.Tensor) {})
}

// stageGrad is a gradient for a channel-stage layer output whose rows at
// masked token positions are zero, as the model's backward delivers them:
// masked positions fed the mask token, not the stage. The matrix kernels
// skip zero operands, so the zeros change the cost. The tensor is read as
// [B, C, T, E]: stage outputs are [B, T, E], tokenizer outputs
// [B, C, T, E] and aggregator outputs [B*T, E].
func (r *replayer) stageGrad(shape ...int) *tensor.Tensor {
	return r.cached("g", shape, func(g *tensor.Tensor) {
		if r.mask == nil {
			return
		}
		b, t, e := r.mask.Shape[0], r.mask.Shape[1], shape[len(shape)-1]
		c := len(g.Data) / (b * t * e)
		for bi := 0; bi < b; bi++ {
			for ci := 0; ci < c; ci++ {
				for ti := 0; ti < t; ti++ {
					if r.mask.At(bi, ti) != 0 {
						row := ((bi*c+ci)*t + ti) * e
						clear(g.Data[row : row+e])
					}
				}
			}
		}
	})
}

func (r *replayer) cached(kind string, shape []int, prep func(*tensor.Tensor)) *tensor.Tensor {
	key := kind + fmt.Sprint(shape)
	t, ok := r.bufs[key]
	if !ok {
		t = tensor.RandnScaled(r.rng, 1e-2, shape...)
		prep(t)
		r.bufs[key] = t
	}
	return t
}

// layer times l's forward on x and, when training, its backward fed a
// channel-stage gradient shaped like the output. It returns the output.
func (r *replayer) layer(l nn.Layer, x *tensor.Tensor) (time.Duration, *tensor.Tensor) {
	if r.infer {
		t := time.Now()
		y := nn.Infer(l, x)
		return time.Since(t), y
	}
	t := time.Now()
	y := l.Forward(x)
	d := time.Since(t)
	g := r.stageGrad(y.Shape...)
	t = time.Now()
	l.Backward(g)
	return d + time.Since(t), y
}

// lossFn returns the loss gradient of a prediction, or nil for serving.
type lossFn func(pred *tensor.Tensor) *tensor.Tensor

// model times the whole model the way the training loop or the serving
// worker calls it.
func (r *replayer) model(m *model.FoundationModel, x *tensor.Tensor, loss lossFn) time.Duration {
	t := time.Now()
	if r.infer {
		m.Infer(x, nil)
		return time.Since(t)
	}
	m.Backward(loss(m.Forward(x, r.mask)))
	return time.Since(t)
}

// vitHead runs the transformer blocks, the final norm, the head and the
// loss as one chain from a random block input, so every backward gets the
// gradient the model would give it. It returns the blocks' time and the
// norm, head and loss time.
func (r *replayer) vitHead(m *model.FoundationModel, h *tensor.Tensor, loss lossFn) (vit, head time.Duration) {
	a := m.Arch
	for _, blk := range m.Blocks {
		t := time.Now()
		if r.infer {
			h = nn.Infer(blk, h)
		} else {
			h = blk.Forward(h)
		}
		vit += time.Since(t)
	}
	t := time.Now()
	var z *tensor.Tensor
	if r.infer {
		z = m.Norm.Infer(h)
	} else {
		z = m.Norm.Forward(h)
	}
	zt := z
	if a.MetaTokens > 0 {
		zt = tensor.SliceAxis(z, 1, a.MetaTokens, a.MetaTokens+a.Tokens())
	}
	if r.infer {
		m.Head.Infer(zt)
		return vit, time.Since(t)
	}
	dzt := m.Head.Backward(loss(m.Head.Forward(zt)))
	dz := dzt
	if a.MetaTokens > 0 {
		// Metadata rows get no head gradient, as in model.Backward.
		dz = r.cached("meta", z.Shape, func(t *tensor.Tensor) { t.Zero() })
		te := a.Tokens() * a.Embed
		for bi := 0; bi < z.Shape[0]; bi++ {
			copy(dz.Data[(bi*z.Shape[1]+a.MetaTokens)*a.Embed:], dzt.Data[bi*te:(bi+1)*te])
		}
	}
	d := m.Norm.Backward(dz)
	head = time.Since(t)
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		t := time.Now()
		d = m.Blocks[i].Backward(d)
		vit += time.Since(t)
	}
	return vit, head
}

// stageParts times the channel stage's sub-layers: tokenizer and channel
// embedding, every aggregation-tree group by level, and for D-CHAG the
// final shared layer.
func (r *replayer) stageParts(s model.ChannelStage, x *tensor.Tensor, lt *layerTimes) {
	var tok *nn.PatchEmbed
	var chEmb *nn.ChannelEmbed
	var trees []*core.HierarchicalAggregator
	var final *core.CrossAttnAggregator
	switch st := s.(type) {
	case *model.DCHAGStage:
		tok, chEmb, trees, final = st.D.Tok, st.D.ChEmb, st.D.Partials, st.D.Final
	case *model.SerialStage:
		tok, chEmb, trees = st.Tok, st.ChEmb, []*core.HierarchicalAggregator{st.Agg}
	default:
		panic(fmt.Sprintf("dchagbench: no replay for stage %T", s))
	}
	d, y := r.layer(tok, x)
	lt.tokenize += d
	d, _ = r.layer(chEmb, y)
	lt.tokenize += d
	n := x.Shape[0] * tok.Tokens()
	e := y.Shape[3]
	for _, tree := range trees {
		for l, level := range tree.Levels {
			for len(lt.agg) <= l {
				lt.agg = append(lt.agg, 0)
			}
			for _, agg := range level {
				d, _ := r.layer(agg, r.like(n, agg.GroupSize(), e))
				lt.agg[l] += d
			}
		}
	}
	if final != nil {
		d, _ := r.layer(final, r.like(n, final.GroupSize(), e))
		lt.final += d
	}
}

// replay runs the layer replay inside dist.RunMesh on a TP group of tp
// ranks; build makes each rank's model. x is one replica's batch; target
// and mask are nil when serving.
func replay(tp int, build func(tpc *comm.Communicator) *model.FoundationModel, x, target, mask *tensor.Tensor) (replayResult, error) {
	infer := target == nil
	per := make([][]layerTimes, tp)
	var mu sync.Mutex
	var lastStart time.Time
	t0 := time.Now()
	_, err := dist.RunMesh(dist.MeshSpec{TP: tp, FSDP: 1, DP: 1}, dist.Topology{Nodes: 1, GPUsPerNode: tp},
		func(rank int, mesh *dist.Mesh) error {
			now := time.Now()
			mu.Lock()
			if now.After(lastStart) {
				lastStart = now
			}
			mu.Unlock()
			tpc := mesh.TPComm(rank)
			m := build(tpc)
			xs := x
			if st, ok := m.Stage.(*model.DCHAGStage); ok {
				lo, hi := st.ChannelBounds()
				xs = tensor.SliceAxis(x, 1, lo, hi)
			}
			var loss lossFn
			if !infer {
				mse, mmse := nn.NewMSELoss(), nn.NewMaskedMSELoss()
				loss = func(pred *tensor.Tensor) *tensor.Tensor {
					if mask != nil {
						mmse.Forward(pred, target, mask)
						return mmse.Backward()
					}
					mse.Forward(pred, target)
					return mse.Backward()
				}
			}
			r := &replayer{infer: infer, mask: mask, rng: tensor.NewRNG(int64(rank)), bufs: map[string]*tensor.Tensor{}}
			a := m.Arch
			h := r.like(x.Shape[0], a.MetaTokens+a.Tokens(), a.Embed)
			// The group meets at a barrier before each timed segment, so
			// one rank's wait for a slower peer at a collective is charged
			// to the segment that caused it and not to the next one.
			for it := 0; it <= replayIters; it++ {
				var lt layerTimes
				tpc.Barrier()
				lt.full = r.model(m, xs, loss)
				tpc.Barrier()
				lt.stage, _ = r.layer(m.Stage, xs)
				tpc.Barrier()
				r.stageParts(m.Stage, xs, &lt)
				tpc.Barrier()
				lt.vit, lt.headLoss = r.vitHead(m, h, loss)
				if it > 0 {
					per[rank] = append(per[rank], lt)
				}
			}
			return nil
		})
	if err != nil {
		return replayResult{}, fmt.Errorf("layer replay: %w", err)
	}
	res := replayResult{distSetup: ms(lastStart.Sub(t0))}
	med := func(get func(layerTimes) time.Duration) float64 {
		total := 0.0
		for _, runs := range per {
			var xs []float64
			for _, lt := range runs {
				xs = append(xs, ms(get(lt)))
			}
			total += median(xs)
		}
		return total / float64(tp)
	}
	res.full = med(func(lt layerTimes) time.Duration { return lt.full })
	res.stage = med(func(lt layerTimes) time.Duration { return lt.stage })
	res.tokenize = med(func(lt layerTimes) time.Duration { return lt.tokenize })
	res.final = med(func(lt layerTimes) time.Duration { return lt.final })
	res.vit = med(func(lt layerTimes) time.Duration { return lt.vit })
	res.headLoss = med(func(lt layerTimes) time.Duration { return lt.headLoss })
	for l := range per[0][0].agg {
		res.agg = append(res.agg, med(func(lt layerTimes) time.Duration { return lt.agg[l] }))
	}
	logf("layer replay (ms per rank): full %.2f = stage %.2f [tokenize %.2f, levels %.2f, final %.2f] + vit %.2f + head/loss %.2f + glue",
		res.full, res.stage, res.tokenize, res.agg, res.final, res.vit, res.headLoss)
	return res, nil
}

// replayTrain replays a training workload's layers on one replica's batch
// rows of its first batch.
func replayTrain(w trainWorkload, x, y *tensor.Tensor, seed int64) (replayResult, error) {
	b := w.opts.Batch / max(w.dp, 1)
	x = tensor.SliceAxis(x, 0, 0, b)
	target := model.Patchify(tensor.SliceAxis(y, 0, 0, b), w.arch.Patch)
	var mask *tensor.Tensor
	if w.opts.MaskRatio > 0 {
		mask = data.RandomMask(tensor.NewRNG(seed), b, w.arch.Tokens(), w.opts.MaskRatio)
	}
	build := func(tpc *comm.Communicator) *model.FoundationModel {
		if w.tp == 0 {
			return model.NewSerial(w.arch)
		}
		return model.NewDistributed(w.arch, tpc, w.tpViT)
	}
	return replay(max(w.tp, 1), build, x, target, mask)
}
