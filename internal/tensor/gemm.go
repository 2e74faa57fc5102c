package tensor

// Cache-blocked, register-tiled GEMM (GEBP / BLIS structure). The driver
// splits C = A@B into mc x kc x nc cache blocks, packs the current A and B
// blocks into contiguous micro-panels drawn from the DefaultPool, and walks
// mr x nr register tiles with a micro-kernel (AVX2+FMA assembly when the CPU
// has it, pure Go otherwise). The kernel writes each tile to a contiguous
// scratch array; the driver adds the valid region into the strided
// destination, which gives uniform edge handling and free accumulate
// variants (dst += A^T@B for weight gradients).
//
// Summation order per output element is p ascending within each kc block,
// kc blocks ascending — independent of worker count and of the m/n blocking,
// so results are bitwise reproducible across GOMAXPROCS settings.

const (
	gemmMC   = 128 // rows of A packed per block
	gemmKC   = 256 // depth of one packed block
	gemmNC   = 512 // columns of B packed per block
	gemmMR   = 4   // micro-tile rows
	gemmNR   = 8   // micro-tile columns (f64); f32 uses 2x
	gemmNR32 = 16
)

// directMaxWork is the m*k*n product below which the unpacked direct loops
// beat the pack-and-tile driver.
const directMaxWork = 1 << 15

// gemm2D computes dst = A@B (rank-2, row-major, contiguous) with optional
// transposed operands: at means a holds A^T ([k,m] storage), bt means b
// holds B^T ([n,k] storage). With accum, dst is accumulated into instead of
// overwritten.
//
// dchag:hotpath — the funnel for every matrix product in the repository; it
// must not allocate (panel scratch comes from the pool).
func gemm2D(dst, a, b []float64, m, k, n int, at, bt, accum bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accum {
			for i := range dst[:m*n] {
				dst[i] = 0
			}
		}
		return
	}
	lda, ldb := k, n
	if at {
		lda = m
	}
	if bt {
		ldb = k
	}
	work := m * k * n
	useBlocked := work >= directMaxWork || (at && bt)
	if serialDispatch(m, work) {
		if useBlocked {
			gemmRowsF64(dst, a, b, 0, m, k, n, lda, ldb, at, bt, accum)
		} else {
			directRowsF64(dst, a, b, 0, m, k, n, lda, ldb, at, bt, accum)
		}
		return
	}
	ParallelRows(m, work, func(lo, hi int) {
		if useBlocked {
			gemmRowsF64(dst, a, b, lo, hi, k, n, lda, ldb, at, bt, accum)
		} else {
			directRowsF64(dst, a, b, lo, hi, k, n, lda, ldb, at, bt, accum)
		}
	})
}

// gemm2DSerial is gemm2D without the goroutine dispatch, for callers that
// already parallelize over batches.
//
// dchag:hotpath — per-batch kernel; it must not allocate.
func gemm2DSerial(dst, a, b []float64, m, k, n int, at, bt, accum bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if !accum {
			for i := range dst[:m*n] {
				dst[i] = 0
			}
		}
		return
	}
	lda, ldb := k, n
	if at {
		lda = m
	}
	if bt {
		ldb = k
	}
	if m*k*n >= directMaxWork || (at && bt) {
		gemmRowsF64(dst, a, b, 0, m, k, n, lda, ldb, at, bt, accum)
	} else {
		directRowsF64(dst, a, b, 0, m, k, n, lda, ldb, at, bt, accum)
	}
}

// gemmRowsF64 runs the blocked driver for destination rows [lo,hi).
//
// dchag:hotpath — panel scratch comes from the pool, the tile lives on the
// stack; steady state performs no heap allocation.
//
// Without accum, the first kc block stores its tiles instead of adding them
// to a zeroed destination. Every destination element gets exactly one tile
// per block, and a tile never holds -0 (its sums start from +0), so the
// store is bitwise the same as 0 + tile.
func gemmRowsF64(dst, a, b []float64, lo, hi, k, n, lda, ldb int, at, bt, accum bool) {
	apanel := DefaultPool.GetTensor((gemmMC + gemmMR) * gemmKC)
	bpanel := DefaultPool.GetTensor((gemmNC + gemmNR) * gemmKC)
	ap, bp := apanel.Data, bpanel.Data
	var tile [gemmMR * gemmNR]float64
	for p0 := 0; p0 < k; p0 += gemmKC {
		kb := min(gemmKC, k-p0)
		store := !accum && p0 == 0
		for j0 := 0; j0 < n; j0 += gemmNC {
			nb := min(gemmNC, n-j0)
			packBF64(bp, b, ldb, p0, j0, kb, nb, bt)
			for i0 := lo; i0 < hi; i0 += gemmMC {
				mb := min(gemmMC, hi-i0)
				packAF64(ap, a, lda, i0, p0, mb, kb, at)
				for jr := 0; jr < nb; jr += gemmNR {
					jb := min(gemmNR, nb-jr)
					bpp := bp[(jr/gemmNR)*kb*gemmNR:]
					for ir := 0; ir < mb; ir += gemmMR {
						ib := min(gemmMR, mb-ir)
						app := ap[(ir/gemmMR)*kb*gemmMR:]
						if simdGEMM {
							kern4x8F64(kb, &app[0], &bpp[0], &tile[0])
						} else {
							kern4x8F64Generic(kb, app, bpp, &tile)
						}
						for r := 0; r < ib; r++ {
							off := (i0+ir+r)*n + j0 + jr
							drow := dst[off : off+jb : off+jb]
							trow := tile[r*gemmNR : r*gemmNR+jb]
							if store {
								for c, v := range trow {
									drow[c] = v
								}
								continue
							}
							for c, v := range trow {
								drow[c] += v
							}
						}
					}
				}
			}
		}
	}
	DefaultPool.PutTensor(apanel)
	DefaultPool.PutTensor(bpanel)
}

// packAF64 packs A[i0:i0+mb, p0:p0+kb] into mr-row micro-panels: panel r of
// ceil(mb/mr), laid out as kb groups of mr values with zero-padded edge
// rows. With trans, A is stored transposed (A[i,p] = src[p*lda+i]).
func packAF64(dst, src []float64, lda, i0, p0, mb, kb int, trans bool) {
	idx := 0
	for i := 0; i < mb; i += gemmMR {
		ib := min(gemmMR, mb-i)
		if trans && ib == gemmMR {
			for p := 0; p < kb; p++ {
				off := (p0+p)*lda + i0 + i
				s4 := src[off : off+gemmMR : off+gemmMR]
				d4 := dst[idx : idx+gemmMR : idx+gemmMR]
				d4[0], d4[1], d4[2], d4[3] = s4[0], s4[1], s4[2], s4[3]
				idx += gemmMR
			}
		} else if trans {
			for p := 0; p < kb; p++ {
				srow := src[(p0+p)*lda+i0+i:]
				for r := 0; r < gemmMR; r++ {
					if r < ib {
						dst[idx+r] = srow[r]
					} else {
						dst[idx+r] = 0
					}
				}
				idx += gemmMR
			}
		} else if ib == gemmMR {
			// Full panel: interleave four contiguous row slices.
			base := (i0+i)*lda + p0
			r0 := src[base : base+kb]
			r1 := src[base+lda : base+lda+kb][:len(r0)]
			r2 := src[base+2*lda : base+2*lda+kb][:len(r0)]
			r3 := src[base+3*lda : base+3*lda+kb][:len(r0)]
			d := dst[idx : idx+gemmMR*kb]
			for p, v := range r0 {
				q := d[gemmMR*p : gemmMR*p+gemmMR : gemmMR*p+gemmMR]
				q[0], q[1], q[2], q[3] = v, r1[p], r2[p], r3[p]
			}
			idx += gemmMR * kb
		} else {
			for p := 0; p < kb; p++ {
				for r := 0; r < gemmMR; r++ {
					if r < ib {
						dst[idx+r] = src[(i0+i+r)*lda+p0+p]
					} else {
						dst[idx+r] = 0
					}
				}
				idx += gemmMR
			}
		}
	}
}

// packBF64 packs B[p0:p0+kb, j0:j0+nb] into nr-column micro-panels laid out
// as kb groups of nr values with zero-padded edge columns. With trans, B is
// stored transposed (B[p,j] = src[j*ldb+p]).
func packBF64(dst, src []float64, ldb, p0, j0, kb, nb int, trans bool) {
	idx := 0
	for j := 0; j < nb; j += gemmNR {
		jb := min(gemmNR, nb-j)
		if trans {
			for p := 0; p < kb; p++ {
				for c := 0; c < gemmNR; c++ {
					if c < jb {
						dst[idx+c] = src[(j0+j+c)*ldb+p0+p]
					} else {
						dst[idx+c] = 0
					}
				}
				idx += gemmNR
			}
		} else {
			for p := 0; p < kb; p++ {
				base := (p0+p)*ldb + j0 + j
				if jb == gemmNR {
					d8 := dst[idx : idx+gemmNR : idx+gemmNR]
					s8 := src[base : base+gemmNR : base+gemmNR]
					d8[0], d8[1], d8[2], d8[3] = s8[0], s8[1], s8[2], s8[3]
					d8[4], d8[5], d8[6], d8[7] = s8[4], s8[5], s8[6], s8[7]
				} else {
					for c := 0; c < gemmNR; c++ {
						if c < jb {
							dst[idx+c] = src[base+c]
						} else {
							dst[idx+c] = 0
						}
					}
				}
				idx += gemmNR
			}
		}
	}
}

// kern4x8F64Generic is the pure-Go twin of the AVX2 micro-kernel; it keeps
// non-amd64 builds (and CPUs without AVX2) on the same packed-panel driver.
func kern4x8F64Generic(kb int, a, b []float64, c *[gemmMR * gemmNR]float64) {
	for i := range c {
		c[i] = 0
	}
	for p := 0; p < kb; p++ {
		bp := b[p*gemmNR : p*gemmNR+gemmNR]
		ap := a[p*gemmMR : p*gemmMR+gemmMR]
		for r := 0; r < gemmMR; r++ {
			av := ap[r]
			cr := c[r*gemmNR : r*gemmNR+gemmNR]
			for j, bv := range bp {
				cr[j] += av * bv
			}
		}
	}
}

// directRowsF64 computes destination rows [lo,hi) with unpacked loops — the
// small-product path where packing overhead would dominate.
//
// dchag:hotpath — the small-matrix kernel; it must not allocate.
func directRowsF64(dst, a, b []float64, lo, hi, k, n, lda, ldb int, at, bt, accum bool) {
	switch {
	case !at && !bt:
		for i := lo; i < hi; i++ {
			drow := dst[i*n : (i+1)*n]
			if !accum {
				for x := range drow {
					drow[x] = 0
				}
			}
			arow := a[i*lda : i*lda+k]
			for p, av := range arow {
				if av == 0 {
					continue
				}
				brow := b[p*ldb : p*ldb+n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	case !at && bt:
		for i := lo; i < hi; i++ {
			arow := a[i*lda : i*lda+k]
			drow := dst[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b[j*ldb : j*ldb+k]
				s := 0.0
				for p := range arow {
					s += arow[p] * brow[p]
				}
				if accum {
					drow[j] += s
				} else {
					drow[j] = s
				}
			}
		}
	default: // at && !bt
		if !accum {
			for i := lo; i < hi; i++ {
				drow := dst[i*n : (i+1)*n]
				for x := range drow {
					drow[x] = 0
				}
			}
		}
		for p := 0; p < k; p++ {
			arow := a[p*lda : p*lda+lda]
			brow := b[p*ldb : p*ldb+n]
			for i := lo; i < hi; i++ {
				av := arow[i]
				if av == 0 {
					continue
				}
				drow := dst[i*n : (i+1)*n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	}
}

// --- float32 compute path ---------------------------------------------------

// gemmRowsF32 is the float32-compute twin of gemmRowsF64: float64 operands
// and destination, with the f64->f32 conversion fused into panel packing and
// the f32->f64 conversion fused into the tile accumulate. When pb is
// non-nil, B comes from prepacked panels (weights packed once at
// SetInferDType time) and the b slice is ignored.
//
// dchag:hotpath — panel scratch comes from the pool; it must not allocate.
func gemmRowsF32(dst, a, b []float64, pb *PackedB32, lo, hi, k, n, lda, ldb int, at, bt, accum bool) {
	ap := DefaultPool.Get32((gemmMC + gemmMR) * gemmKC)
	var bp []float32
	if pb == nil {
		bp = DefaultPool.Get32((gemmNC + gemmNR32) * gemmKC)
	}
	var tile [gemmMR * gemmNR32]float32
	for p0 := 0; p0 < k; p0 += gemmKC {
		kb := min(gemmKC, k-p0)
		store := !accum && p0 == 0 // see gemmRowsF64
		for j0 := 0; j0 < n; j0 += gemmNC {
			nb := min(gemmNC, n-j0)
			if pb == nil {
				packBF32(bp, b, ldb, p0, j0, kb, nb, bt)
			}
			for i0 := lo; i0 < hi; i0 += gemmMC {
				mb := min(gemmMC, hi-i0)
				packAF32(ap, a, lda, i0, p0, mb, kb, at)
				for jr := 0; jr < nb; jr += gemmNR32 {
					jb := min(gemmNR32, nb-jr)
					var bpp []float32
					if pb != nil {
						bpp = pb.panels[pb.blockOff[p0/gemmKC]+((j0+jr)/gemmNR32)*kb*gemmNR32:]
					} else {
						bpp = bp[(jr/gemmNR32)*kb*gemmNR32:]
					}
					for ir := 0; ir < mb; ir += gemmMR {
						ib := min(gemmMR, mb-ir)
						app := ap[(ir/gemmMR)*kb*gemmMR:]
						if simdGEMM {
							kern4x16F32(kb, &app[0], &bpp[0], &tile[0])
						} else {
							kern4x16F32Generic(kb, app, bpp, &tile)
						}
						for r := 0; r < ib; r++ {
							off := (i0+ir+r)*n + j0 + jr
							drow := dst[off : off+jb : off+jb]
							trow := tile[r*gemmNR32 : r*gemmNR32+jb]
							if store {
								for c, v := range trow {
									drow[c] = float64(v)
								}
								continue
							}
							for c, v := range trow {
								drow[c] += float64(v)
							}
						}
					}
				}
			}
		}
	}
	DefaultPool.Put32(ap)
	if pb == nil {
		DefaultPool.Put32(bp)
	}
}

// packAF32 is packAF64 with the f64->f32 conversion fused in.
func packAF32(dst []float32, src []float64, lda, i0, p0, mb, kb int, trans bool) {
	idx := 0
	for i := 0; i < mb; i += gemmMR {
		ib := min(gemmMR, mb-i)
		if trans {
			for p := 0; p < kb; p++ {
				srow := src[(p0+p)*lda+i0+i:]
				for r := 0; r < gemmMR; r++ {
					if r < ib {
						dst[idx+r] = float32(srow[r])
					} else {
						dst[idx+r] = 0
					}
				}
				idx += gemmMR
			}
		} else if ib == gemmMR {
			base := (i0+i)*lda + p0
			r0 := src[base : base+kb]
			r1 := src[base+lda : base+lda+kb][:len(r0)]
			r2 := src[base+2*lda : base+2*lda+kb][:len(r0)]
			r3 := src[base+3*lda : base+3*lda+kb][:len(r0)]
			d := dst[idx : idx+gemmMR*kb]
			for p, v := range r0 {
				q := d[gemmMR*p : gemmMR*p+gemmMR : gemmMR*p+gemmMR]
				q[0], q[1], q[2], q[3] = float32(v), float32(r1[p]), float32(r2[p]), float32(r3[p])
			}
			idx += gemmMR * kb
		} else {
			for p := 0; p < kb; p++ {
				for r := 0; r < gemmMR; r++ {
					if r < ib {
						dst[idx+r] = float32(src[(i0+i+r)*lda+p0+p])
					} else {
						dst[idx+r] = 0
					}
				}
				idx += gemmMR
			}
		}
	}
}

// packBF32 is packBF64 with the f64->f32 conversion fused in and nr=16.
func packBF32(dst []float32, src []float64, ldb, p0, j0, kb, nb int, trans bool) {
	idx := 0
	for j := 0; j < nb; j += gemmNR32 {
		jb := min(gemmNR32, nb-j)
		if trans {
			for p := 0; p < kb; p++ {
				for c := 0; c < gemmNR32; c++ {
					if c < jb {
						dst[idx+c] = float32(src[(j0+j+c)*ldb+p0+p])
					} else {
						dst[idx+c] = 0
					}
				}
				idx += gemmNR32
			}
		} else {
			for p := 0; p < kb; p++ {
				base := (p0+p)*ldb + j0 + j
				for c := 0; c < gemmNR32; c++ {
					if c < jb {
						dst[idx+c] = float32(src[base+c])
					} else {
						dst[idx+c] = 0
					}
				}
				idx += gemmNR32
			}
		}
	}
}

// kern4x16F32Generic is the pure-Go twin of the AVX2 f32 micro-kernel.
func kern4x16F32Generic(kb int, a, b []float32, c *[gemmMR * gemmNR32]float32) {
	for i := range c {
		c[i] = 0
	}
	for p := 0; p < kb; p++ {
		bp := b[p*gemmNR32 : p*gemmNR32+gemmNR32]
		ap := a[p*gemmMR : p*gemmMR+gemmMR]
		for r := 0; r < gemmMR; r++ {
			av := ap[r]
			cr := c[r*gemmNR32 : r*gemmNR32+gemmNR32]
			for j, bv := range bp {
				cr[j] += av * bv
			}
		}
	}
}

// SIMDEnabled reports whether the AVX2+FMA micro-kernels are active on this
// machine. The compute benchmark records it so artifact gates can tell a
// kernel regression from a machine without the vector units.
func SIMDEnabled() bool { return simdGEMM }
