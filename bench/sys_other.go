//go:build !linux

package main

import (
	"runtime"
	"time"
)

// The CPU, memory and neighbour metrics come from Linux interfaces
// (getrusage, the per-thread CPU clock, /proc). Elsewhere the benchmark
// still builds and its tests run, but these read zero and every run is
// marked invalid.
const hostSupported = false

func processCPUus() int64 { return 0 }
func threadCPUus() int64  { return 0 }
func rssPeakMiB() float64 { return 0 }
func hostBusyUs() int64   { return 0 }
func nap(d time.Duration) { time.Sleep(d) }

// cpuSplit pins nothing here: the generator keeps its thread and shares the
// cores with the program.
type cpuSplit struct{}

func (*cpuSplit) split() (sutCPUs int, err error) { runtime.LockOSThread(); return 0, nil }
func (*cpuSplit) undo()                           { runtime.UnlockOSThread() }
