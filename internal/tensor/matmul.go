package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// parallelThreshold is the number of multiply-adds below which matrix
// products run serially; spawning goroutines for tiny products costs more
// than it saves.
const parallelThreshold = 1 << 16

// This file is the destination-passing ("Into") matrix-product API. Every
// XInto(dst, ...) accepts dst == nil (allocate a fresh result) or a tensor of
// exactly the result shape (reuse it; prior contents are overwritten, and dst
// must not alias an operand). The classic allocating functions remain as thin
// XInto(nil, ...) wrappers so call sites migrate incrementally. All variants
// funnel into the blocked, packed, register-tiled driver in gemm.go.

// ensureDst validates or allocates the destination of an Into kernel.
func ensureDst(op string, dst *Tensor, shape ...int) *Tensor {
	if dst == nil {
		return New(shape...)
	}
	if len(dst.Shape) != len(shape) {
		// Copy shape into the panic message: boxing the parameter itself
		// would make every happy-path call heap-allocate the variadic slice.
		panic(fmt.Sprintf("tensor: %s dst rank %v, want %v", op, dst.Shape, append([]int(nil), shape...)))
	}
	for i, d := range shape {
		if dst.Shape[i] != d {
			panic(fmt.Sprintf("tensor: %s dst shape %v, want %v", op, dst.Shape, append([]int(nil), shape...)))
		}
	}
	return dst
}

// ensureDstBatched is ensureDst for batched products whose result shape is
// lead... + [m, n]; it avoids materializing the combined shape slice unless
// dst must actually be allocated.
func ensureDstBatched(op string, dst *Tensor, lead []int, m, n int) *Tensor {
	if dst == nil {
		shape := append(append(make([]int, 0, len(lead)+2), lead...), m, n)
		return New(shape...)
	}
	ok := len(dst.Shape) == len(lead)+2 &&
		dst.Shape[len(lead)] == m && dst.Shape[len(lead)+1] == n
	if ok {
		for i, d := range lead {
			if dst.Shape[i] != d {
				ok = false
				break
			}
		}
	}
	if !ok {
		panic(fmt.Sprintf("tensor: %s dst shape %v, want %v x [%d %d]", op, dst.Shape, append([]int(nil), lead...), m, n))
	}
	return dst
}

// mustNotAlias panics when dst shares a backing array with an operand that
// the kernel reads while writing dst.
func mustNotAlias(op string, dst *Tensor, srcs ...*Tensor) {
	if dst == nil || len(dst.Data) == 0 {
		return
	}
	for _, s := range srcs {
		if s != nil && len(s.Data) > 0 && &dst.Data[0] == &s.Data[0] {
			panic("tensor: " + op + " dst aliases an operand")
		}
	}
}

// MatMulInto computes dst = a@b for rank-2 tensors: a is [M,K], b is [K,N],
// dst is [M,N] (allocated when nil). It returns dst.
//
// dchag:hotpath — the busiest op in the repository; with a non-nil dst it
// performs no heap allocation.
func MatMulInto(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires rank-2 operands, got %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	dst = ensureDst("MatMulInto", dst, m, n)
	mustNotAlias("MatMulInto", dst, a, b)
	gemm2D(dst.Data, a.Data, b.Data, m, k, n, false, false, false)
	return dst
}

// MatMul returns the matrix product a@b for rank-2 tensors. It is the
// allocating convenience wrapper over MatMulInto.
func MatMul(a, b *Tensor) *Tensor { return MatMulInto(nil, a, b) }

// MatMulTInto computes dst = a @ b^T: a is [M,K], b is [N,K], dst is [M,N].
// This avoids materializing the transpose. It returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func MatMulTInto(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulT requires rank-2 operands, got %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulT inner dimension mismatch %v x %v^T", a.Shape, b.Shape))
	}
	dst = ensureDst("MatMulTInto", dst, m, n)
	mustNotAlias("MatMulTInto", dst, a, b)
	gemm2D(dst.Data, a.Data, b.Data, m, k, n, false, true, false)
	return dst
}

// MatMulT returns a @ b^T; the allocating wrapper over MatMulTInto.
func MatMulT(a, b *Tensor) *Tensor { return MatMulTInto(nil, a, b) }

// TMatMulInto computes dst = a^T @ b: a is [K,M], b is [K,N], dst is [M,N].
// Used for weight gradients (x^T @ dy) without an explicit transpose. It
// returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func TMatMulInto(dst, a, b *Tensor) *Tensor {
	dst = tmatmulDst("TMatMulInto", dst, a, b)
	gemm2D(dst.Data, a.Data, b.Data, dst.Shape[0], a.Shape[0], dst.Shape[1], true, false, false)
	return dst
}

// TMatMul returns a^T @ b; the allocating wrapper over TMatMulInto.
func TMatMul(a, b *Tensor) *Tensor { return TMatMulInto(nil, a, b) }

// TMatMulAccInto accumulates dst += a^T @ b with a non-nil dst — the shape
// of a weight-gradient update, writing straight into the gradient buffer.
//
// dchag:hotpath — it performs no heap allocation.
func TMatMulAccInto(dst, a, b *Tensor) {
	if dst == nil {
		panic("tensor: TMatMulAccInto requires a non-nil dst")
	}
	dst = tmatmulDst("TMatMulAccInto", dst, a, b)
	gemm2D(dst.Data, a.Data, b.Data, dst.Shape[0], a.Shape[0], dst.Shape[1], true, false, true)
}

func tmatmulDst(op string, dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: %s requires rank-2 operands, got %v x %v", op, a.Shape, b.Shape))
	}
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %v^T x %v", op, a.Shape, b.Shape))
	}
	dst = ensureDst(op, dst, m, n)
	mustNotAlias(op, dst, a, b)
	return dst
}

// serialDispatch reports whether a row-parallel op should run on the calling
// goroutine. Callers branch on it BEFORE building the dispatch closure, so
// the serial path allocates nothing at all.
//
// dchag:hotpath — it must not allocate.
func serialDispatch(m, work int) bool {
	return work < parallelThreshold || m == 1 || runtime.GOMAXPROCS(0) == 1
}

// ParallelRows splits [0,m) into GOMAXPROCS contiguous blocks and runs
// fn on each concurrently when the work estimate (multiply-adds) is large
// enough, and fn(0, m) on the calling goroutine otherwise. It is the row
// dispatch of every kernel here, exported for fused kernels elsewhere.
//
// dchag:hotpath — dispatch overhead only; allocation belongs to callers.
func ParallelRows(m, work int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if work < parallelThreshold || m == 1 || workers == 1 {
		fn(0, m)
		return
	}
	if workers > m {
		workers = m
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > m {
			hi = m
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// MatMulNaiveInto is the pre-blocking reference kernel (parallel ikj with no
// packing or tiling). It is kept as the baseline the compute benchmark and
// the kernel-equivalence tests measure the blocked driver against.
func MatMulNaiveInto(dst, a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulNaiveInto requires rank-2 operands, got %v x %v", a.Shape, b.Shape))
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulNaiveInto inner dimension mismatch %v x %v", a.Shape, b.Shape))
	}
	dst = ensureDst("MatMulNaiveInto", dst, m, n)
	mustNotAlias("MatMulNaiveInto", dst, a, b)
	ParallelRows(m, m*k*n, func(lo, hi int) {
		matmulRows(dst.Data, a.Data, b.Data, lo, hi, k, n)
	})
	return dst
}

// matmulRows computes rows [lo,hi) of dst = A@B with the naive ikj loop.
//
// dchag:hotpath — the baseline inner kernel; it must not allocate.
func matmulRows(dst, a, b []float64, lo, hi, k, n int) {
	for i := lo; i < hi; i++ {
		drow := dst[i*n : (i+1)*n]
		for x := range drow {
			drow[x] = 0
		}
		arow := a[i*k : (i+1)*k]
		for p, av := range arow {
			if av == 0 {
				continue
			}
			brow := b[p*n : (p+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// Transpose2DInto computes dst = t^T for a rank-2 tensor; dst is [N,M]
// (allocated when nil). It returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func Transpose2DInto(dst, t *Tensor) *Tensor {
	if len(t.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D requires rank 2, got %v", t.Shape))
	}
	m, n := t.Shape[0], t.Shape[1]
	dst = ensureDst("Transpose2DInto", dst, n, m)
	mustNotAlias("Transpose2DInto", dst, t)
	for i := 0; i < m; i++ {
		row := t.Data[i*n : (i+1)*n]
		for j, v := range row {
			dst.Data[j*m+i] = v
		}
	}
	return dst
}

// Transpose2D returns the transpose of a rank-2 tensor; the allocating
// wrapper over Transpose2DInto.
func Transpose2D(t *Tensor) *Tensor { return Transpose2DInto(nil, t) }

// batchedShapes validates the leading dims of a batched product and returns
// (batch, leading shape).
func batchedShapes(op string, a, b *Tensor) (int, []int) {
	ra, rb := len(a.Shape), len(b.Shape)
	if ra < 2 || rb < 2 || ra != rb {
		panic(fmt.Sprintf("tensor: %s rank mismatch %v x %v", op, a.Shape, b.Shape))
	}
	batch := 1
	for i := 0; i < ra-2; i++ {
		if a.Shape[i] != b.Shape[i] {
			panic(fmt.Sprintf("tensor: %s batch mismatch %v x %v", op, a.Shape, b.Shape))
		}
		batch *= a.Shape[i]
	}
	return batch, a.Shape[:ra-2]
}

// BatchedMatMulInto computes dst = a@b per batch: a is [B...,M,K], b is
// [B...,K,N] with identical leading dims, dst is [B...,M,N]. It returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func BatchedMatMulInto(dst, a, b *Tensor) *Tensor {
	batch, lead := batchedShapes("BatchedMatMul", a, b)
	ra := len(a.Shape)
	m, k := a.Shape[ra-2], a.Shape[ra-1]
	k2, n := b.Shape[ra-2], b.Shape[ra-1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: BatchedMatMul inner mismatch %v x %v", a.Shape, b.Shape))
	}
	dst = ensureDstBatched("BatchedMatMulInto", dst, lead, m, n)
	mustNotAlias("BatchedMatMulInto", dst, a, b)
	if serialDispatch(batch, batch*m*k*n) {
		for bi := 0; bi < batch; bi++ {
			gemm2DSerial(dst.Data[bi*m*n:(bi+1)*m*n], a.Data[bi*m*k:(bi+1)*m*k], b.Data[bi*k*n:(bi+1)*k*n], m, k, n, false, false, false)
		}
		return dst
	}
	ParallelRows(batch, batch*m*k*n, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			gemm2DSerial(dst.Data[bi*m*n:(bi+1)*m*n], a.Data[bi*m*k:(bi+1)*m*k], b.Data[bi*k*n:(bi+1)*k*n], m, k, n, false, false, false)
		}
	})
	return dst
}

// BatchedMatMul multiplies matching leading-batch matrices; the allocating
// wrapper over BatchedMatMulInto.
func BatchedMatMul(a, b *Tensor) *Tensor { return BatchedMatMulInto(nil, a, b) }

// BatchedMatMulTInto computes dst = a @ b^T per batch: a is [B...,M,K], b is
// [B...,N,K], dst is [B...,M,N]. This is the attention score product Q @ K^T.
// It returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func BatchedMatMulTInto(dst, a, b *Tensor) *Tensor {
	batch, lead := batchedShapes("BatchedMatMulT", a, b)
	ra := len(a.Shape)
	m, k := a.Shape[ra-2], a.Shape[ra-1]
	n, k2 := b.Shape[ra-2], b.Shape[ra-1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: BatchedMatMulT inner mismatch %v x %v^T", a.Shape, b.Shape))
	}
	dst = ensureDstBatched("BatchedMatMulTInto", dst, lead, m, n)
	mustNotAlias("BatchedMatMulTInto", dst, a, b)
	if serialDispatch(batch, batch*m*k*n) {
		for bi := 0; bi < batch; bi++ {
			gemm2DSerial(dst.Data[bi*m*n:(bi+1)*m*n], a.Data[bi*m*k:(bi+1)*m*k], b.Data[bi*n*k:(bi+1)*n*k], m, k, n, false, true, false)
		}
		return dst
	}
	ParallelRows(batch, batch*m*k*n, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			gemm2DSerial(dst.Data[bi*m*n:(bi+1)*m*n], a.Data[bi*m*k:(bi+1)*m*k], b.Data[bi*n*k:(bi+1)*n*k], m, k, n, false, true, false)
		}
	})
	return dst
}

// BatchedMatMulT multiplies a by the transpose of b per batch; the
// allocating wrapper over BatchedMatMulTInto.
func BatchedMatMulT(a, b *Tensor) *Tensor { return BatchedMatMulTInto(nil, a, b) }

// BatchedTMatMulInto computes dst = a^T @ b per batch: a is [B...,K,M], b is
// [B...,K,N], dst is [B...,M,N]. This is the gradient product scores^T @
// dOut used in attention backward passes. It returns dst.
//
// dchag:hotpath — with a non-nil dst it performs no heap allocation.
func BatchedTMatMulInto(dst, a, b *Tensor) *Tensor {
	batch, lead := batchedShapes("BatchedTMatMul", a, b)
	ra := len(a.Shape)
	k, m := a.Shape[ra-2], a.Shape[ra-1]
	k2, n := b.Shape[ra-2], b.Shape[ra-1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: BatchedTMatMul inner mismatch %v^T x %v", a.Shape, b.Shape))
	}
	dst = ensureDstBatched("BatchedTMatMulInto", dst, lead, m, n)
	mustNotAlias("BatchedTMatMulInto", dst, a, b)
	if serialDispatch(batch, batch*m*k*n) {
		for bi := 0; bi < batch; bi++ {
			gemm2DSerial(dst.Data[bi*m*n:(bi+1)*m*n], a.Data[bi*k*m:(bi+1)*k*m], b.Data[bi*k*n:(bi+1)*k*n], m, k, n, true, false, false)
		}
		return dst
	}
	ParallelRows(batch, batch*m*k*n, func(lo, hi int) {
		for bi := lo; bi < hi; bi++ {
			gemm2DSerial(dst.Data[bi*m*n:(bi+1)*m*n], a.Data[bi*k*m:(bi+1)*k*m], b.Data[bi*k*n:(bi+1)*k*n], m, k, n, true, false, false)
		}
	})
	return dst
}

// BatchedTMatMul multiplies the transpose of a by b per batch; the
// allocating wrapper over BatchedTMatMulInto.
func BatchedTMatMul(a, b *Tensor) *Tensor { return BatchedTMatMulInto(nil, a, b) }
