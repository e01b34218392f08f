package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"
)

// llcBytes reads the size of the highest-level CPU cache from sysfs. It
// returns 0 when sysfs does not say.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var bestLevel int
	var best int64
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil {
			continue
		}
		b, ok := parseCacheSize(strings.TrimSpace(string(sz)))
		if ok && (level > bestLevel || level == bestLevel && b > best) {
			bestLevel, best = level, b
		}
	}
	return best
}

// parseCacheSize parses sysfs cache sizes such as "107520K" or "2M".
func parseCacheSize(s string) (int64, bool) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil || v <= 0 {
		return 0, false
	}
	return v * mult, true
}

// streamTriad measures memory bandwidth in this process with the STREAM
// triad a[i] = b[i] + s·c[i] over arrays of arrayBytes each, split across
// workers goroutines. It counts 24 bytes per element (STREAM's convention:
// two reads and one write, no write-allocate traffic), repeats the pass
// and reports the best GB/s. The arrays are released before it returns.
func streamTriad(arrayBytes int64, workers, reps int) float64 {
	n := int(arrayBytes / 8)
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	parallel := func(body func(lo, hi int)) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(lo, hi)
			}()
		}
		wg.Wait()
	}
	parallel(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i], b[i], c[i] = 1, 2, 0.5
		}
	})
	const s = 3.0
	best := 0.0
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		parallel(func(lo, hi int) {
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + s*cc[i]
			}
		})
		if gbs := 24 * float64(n) / time.Since(t0).Seconds() / 1e9; gbs > best {
			best = gbs
		}
	}
	if a[n/2] != 2+s*0.5 {
		panic(fmt.Sprintf("stream triad computed %g", a[n/2]))
	}
	a, b, c = nil, nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	return best
}
