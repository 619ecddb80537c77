package main

import (
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// The sandbox this benchmark runs in shares its CPUs with other
// machines' work, and its speed drifts by a quarter within minutes: the
// same compile measured ten times over ten minutes spreads by 15-30%, far
// beyond any bound worth setting. So every run also times a fixed
// reference kernel, interleaved with the workload, and the end-to-end
// times are reported at the reference speed: wall-clock times
// referenceMS divided by the run's median kernel time. The kernel is
// benchmark code, not program code, so a change to the program cannot
// speed it up; the raw median kernel time is the per-layer metric
// calib.ref_ms.
const referenceMS = 10.0

// refEvery spaces the reference kernel's runs: about a tenth of the
// measuring time goes to the kernel.
const refEvery = 100 * time.Millisecond

// calibrator collects the reference kernel's timings during one run.
type calibrator struct {
	kernel referenceKernel
	ms     []float64
	last   time.Time // end of the latest kernel run
}

// tick runs the reference kernel when refEvery has passed since its
// previous run. The workloads call it between operations.
func (c *calibrator) tick() {
	if time.Since(c.last) < refEvery {
		return
	}
	t0 := time.Now()
	c.kernel.run()
	c.last = time.Now()
	c.ms = append(c.ms, ms(c.last.Sub(t0)))
}

// scale converts a wall-clock time measured in this run to the
// reference speed.
func (c *calibrator) scale(wall float64) float64 {
	return wall * referenceMS / median(c.ms)
}

// referenceKernel is a fixed mix of the work the pipeline does most:
// sorting, hashing, and chasing pointers through a tree. It works in
// buffers it allocates once, so the garbage collector, whose pace
// depends on what the workload allocated before, does not enter its
// time. It takes about referenceMS on the machine the benchmark was
// written on.
type referenceKernel struct {
	xs    []float64
	table []uint64
	nodes []refNode
	sink  uint64
}

type refNode struct {
	left, right int32
	v           uint64
}

const (
	refSortN   = 80_000
	refHashN   = 40_000
	refTreeN   = 20_000
	refTableSz = 1 << 17
)

func (k *referenceKernel) run() {
	if k.xs == nil {
		k.xs = make([]float64, refSortN)
		k.table = make([]uint64, refTableSz)
		k.nodes = make([]refNode, 0, refTreeN)
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // xorshift64*
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		return x * 0x2545f4914f6cdd1d
	}
	for i := range k.xs {
		k.xs[i] = float64(next()>>11) / (1 << 53)
	}
	slices.Sort(k.xs)

	clear(k.table)
	for i := 0; i < refHashN; i++ {
		key := next() | 1
		for j := key; ; j++ {
			slot := &k.table[j&(refTableSz-1)]
			if *slot == 0 || *slot == key {
				*slot = key
				break
			}
		}
	}

	k.nodes = k.nodes[:0]
	for i := 0; i < refTreeN; i++ {
		v := next()
		k.nodes = append(k.nodes, refNode{left: -1, right: -1, v: v})
		if i == 0 {
			continue
		}
		at := int32(0)
		for {
			n := &k.nodes[at]
			child := &n.right
			if v < n.v {
				child = &n.left
			}
			if *child < 0 {
				*child = int32(i)
				break
			}
			at = *child
		}
	}
	k.sink += uint64(k.xs[refSortN/2]*1e9) + k.table[1] + k.nodes[refTreeN-1].v
}

// memSampler records the Go runtime's in-use memory (mapped and not
// released to the operating system) every few milliseconds. Its 90th
// percentile is the memory metric: the process's high-water mark from
// getrusage swings by a third from run to run with the timing of
// garbage-collection cycles, while this percentile repeats.
type memSampler struct {
	mu      sync.Mutex
	samples []float64 // MiB; guarded by mu
	once    sync.Once
	stop    chan struct{}
	done    chan struct{}
}

const memSampleEvery = 5 * time.Millisecond

func startMemSampler() *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				v := inUseMiB()
				s.mu.Lock()
				s.samples = append(s.samples, v)
				s.mu.Unlock()
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it, and returns the 90th
// percentile in MiB. Calling it again returns the same value.
func (s *memSampler) finish() float64 {
	s.once.Do(func() {
		close(s.stop)
		<-s.done
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return inUseMiB()
	}
	return quantile(s.samples, 0.9)
}

func inUseMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}
