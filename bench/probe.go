package main

import (
	"math/bits"
	"runtime"
	"time"
)

// The benchmark shares a virtual machine's host with other tenants, and the
// speed the host gives it drifts with their load: within a quarter of an
// hour, explore's CPU time per request rose by a third and fell back. The
// host-speed probe tracks that drift with a fixed kernel of the
// benchmark's own, which no change to the program under test can touch,
// timed while no daemon runs. Each run scales its gated timings by the
// probe, reporting them at the speed of a reference host on which the
// kernel takes refProbeUS microseconds.
const refProbeUS = 50

// probeWords is the kernel's working set: 32 KB, an L1 data cache.
const probeWords = 4096

var (
	probeBuf  = make([]uint64, probeWords)
	probeSink uint64
)

// probeKernel is integer work in the mix the miners run: shifts, masks,
// popcounts and data-dependent branches over a cache-resident buffer.
func probeKernel() {
	x := uint64(88172645463325252)
	var acc uint64
	for r := 0; r < 8; r++ {
		for i := range probeBuf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v := probeBuf[i]&x | x>>3
			probeBuf[i] = v
			acc += uint64(bits.OnesCount64(v))
			if v&1 == 0 {
				acc ^= v >> 5
			}
		}
	}
	probeSink += acc
}

// probeHost returns the kernel's current time per call in microseconds:
// the median of 15 batches of 20 calls, about 20 ms in all. It collects the
// benchmark's garbage first, so no background collection shares the probe's
// core.
func probeHost() float64 {
	runtime.GC()
	perCall := make([]float64, 15)
	for b := range perCall {
		t0 := time.Now()
		for k := 0; k < 20; k++ {
			probeKernel()
		}
		perCall[b] = float64(time.Since(t0).Nanoseconds()) / 20 / 1e3
	}
	return percentile(perCall, 50)
}
