package main

import (
	"runtime"
	"time"
)

// The machine this benchmark runs on is shared: for minutes at a time the
// host runs every process 20-30 % slower, and a run that lands in such a
// stretch would read as a regression. So each untraced rep is bracketed by
// two runs of hostRef, a fixed job that does not use pmemaccel, and the
// rep's times are reported at nominal host speed: multiplied by
// refNominal over the mean of the two hostRef times. hostRef must stay the
// same across commits, or reported times stop being comparable. README.md,
// "Host speed", records how its shape was chosen.

// refNominal is about hostRef's median time in seconds on the host
// recorded in README.md.
const refNominal = 0.18

type refNode struct {
	next *refNode
	v    [3]uint64
}

var (
	refSinkNode *refNode
	refSinkMaps []map[uint64]uint64
)

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// hostRef mirrors the host work of a Run on a small scale, in two parts.
// The first inserts into one map whose working set fits the caches and
// chains small pointer-holding nodes; the second builds many small maps
// and short-lived nodes, so allocation and GC dominate.
func hostRef() {
	m := make(map[uint64]uint64)
	var head *refNode
	x := uint64(88172645463325252)
	for i := 0; i < 3<<20; i++ {
		x = xorshift(x)
		m[x&(1<<16-1)] += x
		if i&7 == 0 {
			head = &refNode{next: head, v: [3]uint64{x}}
		}
	}
	var sum uint64
	for n := head; n != nil; n = n.next {
		sum += n.v[0]
	}
	m[0] = sum
	refSinkNode = head

	var maps []map[uint64]uint64
	for i := 0; i < 40000; i++ {
		m := make(map[uint64]uint64)
		for j := 0; j < 24; j++ {
			x = xorshift(x)
			m[x&1023] = x
		}
		if i%8 == 0 {
			maps = append(maps, m)
		}
		var head *refNode
		for j := 0; j < 8; j++ {
			head = &refNode{next: head, v: [3]uint64{x}}
		}
		refSinkNode = head
	}
	refSinkMaps = maps
}

// probeHost runs hostRef after a GC and returns its time in seconds.
func probeHost() float64 {
	runtime.GC()
	start := time.Now()
	hostRef()
	d := time.Since(start).Seconds()
	refSinkNode, refSinkMaps = nil, nil
	return d
}
