package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bolted/internal/ima"
)

// This file is the Figure-6 experiment: Linux kernel compile time with
// and without IMA, across thread counts. Unlike the macro models it is
// a REAL workload: a synthetic source tree is generated, a worker pool
// "compiles" each translation unit (reads it, does CPU work over it,
// emits an object), and when IMA is enabled every file access is
// actually measured — real SHA-256 into a real software TPM, exactly
// the work the kernel's IMA performs. The paper's result (negligible
// overhead even under a stress policy) emerges because hashing a file
// once is small next to compiling it.

// CompileSpec configures a kernel-compile run.
type CompileSpec struct {
	// Files is the number of translation units (the 4.16 kernel builds
	// a few thousand objects for a defconfig).
	Files int
	// FileBytes is the average source file size.
	FileBytes int
	// Threads is the make -j parallelism.
	Threads int
	// IMA, when non-nil, measures every source read (run-as-root under
	// the paper's stress policy measures everything).
	IMA *ima.Collector
	// WorkFactor scales the per-file compile CPU work (hash rounds).
	WorkFactor int
}

// sourceTree generates the deterministic synthetic source files.
func sourceTree(spec CompileSpec) [][]byte {
	rng := rand.New(rand.NewSource(416)) // kernel 4.16
	files := make([][]byte, spec.Files)
	for i := range files {
		f := make([]byte, spec.FileBytes)
		rng.Read(f)
		files[i] = f
	}
	return files
}

// compileUnit does the CPU work standing in for cc1: repeated hashing
// over the source (parse+optimize are similarly memory-bound passes).
func compileUnit(src []byte, rounds int) [32]byte {
	var digest [32]byte
	h := sha256.New()
	for r := 0; r < rounds; r++ {
		h.Reset()
		var seed [8]byte
		binary.BigEndian.PutUint64(seed[:], uint64(r))
		h.Write(seed[:])
		h.Write(src)
		h.Write(digest[:])
		h.Sum(digest[:0])
	}
	return digest
}

// CompileResult reports a run.
type CompileResult struct {
	Wall     time.Duration
	Files    int
	Measured int // IMA measurements actually taken
}

// RunKernelCompile executes the build and returns its wall time.
func RunKernelCompile(spec CompileSpec) CompileResult {
	if spec.Threads < 1 {
		spec.Threads = 1
	}
	if spec.WorkFactor < 1 {
		spec.WorkFactor = 1
	}
	files := sourceTree(spec)
	var measured int64
	var mu sync.Mutex

	start := time.Now()
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < spec.Threads; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			local := 0
			for i := range work {
				path := fmt.Sprintf("/usr/src/linux/kernel/file%04d.c", i)
				if spec.IMA != nil {
					// The build runs as root under the stress policy:
					// every source read is measured.
					if spec.IMA.Measure(path, files[i], ima.HookRead, 0) {
						local++
					}
				}
				compileUnit(files[i], spec.WorkFactor)
			}
			mu.Lock()
			measured += int64(local)
			mu.Unlock()
		}()
	}
	for i := range files {
		work <- i
	}
	close(work)
	wg.Wait()

	return CompileResult{
		Wall:     time.Since(start),
		Files:    len(files),
		Measured: int(measured),
	}
}
