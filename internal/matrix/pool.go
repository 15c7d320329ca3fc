package matrix

import (
	"runtime"
	"sync"
)

// workerPool is a persistent, package-wide pool of compute goroutines. The
// row-parallel helpers used to spawn one goroutine per chunk on every call;
// at streaming-tile granularity (thousands of kernel invocations per match)
// the spawn/exit churn becomes measurable, so chunks are now dispatched onto
// long-lived workers instead. The pool is sized to GOMAXPROCS at first use
// and lives for the process lifetime.
//
// Deadlock safety: submit never blocks. If the queue is full (all workers
// busy and the buffer exhausted), the chunk runs inline on the submitting
// goroutine. Pool tasks are always leaf work — they never submit to the pool
// themselves — so a task can never wait on queue capacity held by its own
// group. Everything built on parallelChunks (ConsumeTile of the in-tree
// consumers, the dense selectors, Finalize, graphFromHeaps) waits on its
// chunks and must therefore be called from a non-pool goroutine.
type workerPool struct {
	once  sync.Once
	tasks chan func()
}

// defaultPool is the shared process-wide pool.
var defaultPool workerPool

func (p *workerPool) start() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	p.tasks = make(chan func(), 4*n)
	for i := 0; i < n; i++ {
		go func() {
			for task := range p.tasks {
				task()
			}
		}()
	}
}

// submit enqueues task on a pool worker, or runs it inline when the pool is
// saturated. It never blocks.
func (p *workerPool) submit(task func()) {
	p.once.Do(p.start)
	select {
	case p.tasks <- task:
	default:
		task()
	}
}

// parallelChunks splits [0, n) into one contiguous chunk per worker and runs
// fn(lo, hi) for each chunk on the pool, waiting for all chunks to finish.
// When n is too small to amortize dispatch (or there is a single CPU) it
// runs fn(0, n) inline.
func parallelChunks(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || n < 2*workers {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		wg.Add(1)
		defaultPool.submit(func() {
			defer wg.Done()
			fn(lo, hi)
		})
	}
	wg.Wait()
}

// tileBufPool recycles the float64 scratch buffers behind streaming tiles.
// Tiles are all the same nominal size within one streaming pass, so the pool
// hands back ready-to-use slices and the per-tile allocation cost drops to
// zero after warm-up.
var tileBufPool sync.Pool

// getTileBuf returns a zeroed-length-n buffer with at least n capacity.
// Contents are unspecified; callers must overwrite every element they read.
func getTileBuf(n int) []float64 {
	if v := tileBufPool.Get(); v != nil {
		buf := v.([]float64)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// putTileBuf returns a buffer to the pool for reuse.
func putTileBuf(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	tileBufPool.Put(buf[:cap(buf)]) //nolint:staticcheck // slice header boxing is fine here
}

// GetTileBuf hands out a recycled scratch buffer of length n for streaming
// tiles. Contents are unspecified.
func GetTileBuf(n int) []float64 { return getTileBuf(n) }

// PutTileBuf returns a buffer obtained from GetTileBuf to the pool.
func PutTileBuf(buf []float64) { putTileBuf(buf) }

// heapBackingPool recycles the flat backing arrays behind the streaming
// accumulators' per-row/per-column heaps (one float64 and one int array per
// accumulator, sliced into k-capacity sub-slices). Before pooling, every
// accumulator construction cost 2 allocations per row, which is why
// allocs/op in BenchmarkStream* grew linearly with n.
var (
	heapValsPool sync.Pool
	heapIdxPool  sync.Pool
)

// getHeapVals returns a float64 backing array with length and capacity n.
// Contents are unspecified.
func getHeapVals(n int) []float64 {
	if v := heapValsPool.Get(); v != nil {
		buf := v.([]float64)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// putHeapVals returns a backing array to the pool.
func putHeapVals(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	heapValsPool.Put(buf[:cap(buf)]) //nolint:staticcheck // slice header boxing is fine here
}

// getHeapIdx returns an int backing array with length and capacity n.
// Contents are unspecified.
func getHeapIdx(n int) []int {
	if v := heapIdxPool.Get(); v != nil {
		buf := v.([]int)
		if cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]int, n)
}

// putHeapIdx returns a backing array to the pool.
func putHeapIdx(buf []int) {
	if cap(buf) == 0 {
		return
	}
	heapIdxPool.Put(buf[:cap(buf)]) //nolint:staticcheck // slice header boxing is fine here
}
