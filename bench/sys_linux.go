package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostSupported: this file has what the CPU, memory and neighbour metrics
// need (sys_other.go has not, and marks every run invalid).
const hostSupported = true

// processCPUus is the process's user+system CPU time in microseconds.
func processCPUus() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec) + int64(ru.Stime.Usec)
}

// threadCPUus is the CPU time of the calling thread in microseconds, from
// the scheduler's own nanosecond account (no tick sampling). The generator
// is locked to its thread, so this is the generator's CPU.
func threadCPUus() int64 {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, e := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return ts.Nano() / 1e3
}

// nap blocks the calling thread in nanosleep(2). time.Sleep will not do: an
// idle Go runtime waits for its next timer in epoll_wait, whose timeout
// counts whole milliseconds, so a 100 µs sleep returns after about 1 ms.
func nap(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil)
}

// rssPeakMiB reads VmHWM, the process's peak resident set.
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// hostBusyUs is the CPU time of every process on the host plus what the
// hypervisor stole, in microseconds, from the first line of /proc/stat
// (USER_HZ is 100 on every Linux the Go runtime supports). Interrupt time is
// left out: loopback traffic is served in softirqs no process is charged
// for. Minus the process's own CPU it is what the neighbours used.
func hostBusyUs() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var busy int64
	for _, i := range []int{1, 2, 3, 8} { // user, nice, system, steal
		v, _ := strconv.ParseInt(f[i], 10, 64)
		busy += v
	}
	return busy * 10000
}

// cpuMask is a sched_setaffinity bit set over the first 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

func setAffinity(tid int, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

func getAffinity(tid int) (m cpuMask, err error) {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

// cpuSplit gives the load generator a core of its own, as a device or a
// remote client would have, and the program under test the rest (the socket
// workload's receiving goroutines stay with the program: locked to threads
// of their own they wait out the runtime's 10 ms netpoll backstop). Left to
// itself the kernel moves three busy threads over two cores as it pleases,
// the generator's speed follows what shares its core, and over ten seeds the
// same commit's metrics spread 5 to 50 % (README, "Placement"); fixing the
// placement is what makes two runs comparable. The price on a 2-CPU host is
// that the program under test has one core: split reports how many it has.
//
// It also cuts every thread's timer slack from the default 50 µs to 1 µs.
// The Go scheduler sleeps 3 µs (usleep) before it steals a goroutine its
// waker's P has not run yet, which is how every wake-up by the polling
// generator reaches a worker; with 50 µs of slack that sleep takes 3 to 60 µs
// as the kernel pleases, and one instance's median latency came out at 95 µs
// or at 130 µs. With 1 µs it is 88 µs, every time.
type cpuSplit struct {
	all, gen, sut cpuMask
	slack         []byte // the process's original timer slack, in ns
	done          bool
}

const benchSlackNs = "1000"

// eachThread calls f with the id of every thread of the process, twice over
// so that threads born during the first pass are not missed.
func eachThread(f func(tid int)) error {
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			if tid, err := strconv.Atoi(t.Name()); err == nil {
				f(tid)
			}
		}
	}
	return nil
}

// setSlack sets one thread's timer slack; threads it creates inherit it. A
// thread that has just exited, or a kernel without the file, is not an error.
func setSlack(tid int, ns []byte) {
	os.WriteFile("/proc/"+strconv.Itoa(tid)+"/timerslack_ns", ns, 0)
}

// split locks the calling goroutine (the generator) to its thread, confines
// it to the last allowed CPU and every other thread of the process, present
// and future, to the others, and returns how many those are. With fewer than
// two CPUs it only locks the thread and returns 0: nothing is pinned.
func (s *cpuSplit) split() (sutCPUs int, err error) {
	// Locking first starts the runtime's template thread, from which
	// threads are cloned on behalf of a locked one; it must get the
	// program's mask below, not the generator's.
	runtime.LockOSThread()
	all, err := getAffinity(0)
	if err != nil {
		return 0, err
	}
	s.all = all
	last, n := -1, 0
	for cpu := 0; cpu < len(all)*64; cpu++ {
		if all.has(cpu) {
			last = cpu
			n++
		}
	}
	if n < 2 {
		return 0, nil
	}
	s.sut = all
	s.sut[last/64] &^= 1 << (last % 64)
	s.gen.set(last)
	self := syscall.Gettid()
	s.slack, _ = os.ReadFile("/proc/self/timerslack_ns")
	err = eachThread(func(tid int) {
		setSlack(tid, []byte(benchSlackNs))
		if tid != self {
			setAffinity(tid, &s.sut) // a thread that just exited is not an error
		}
	})
	if err != nil {
		return 0, err
	}
	s.done = true
	return n - 1, setAffinity(self, &s.gen)
}

// undo gives every thread its original mask and slack back; the generator
// calls it.
func (s *cpuSplit) undo() {
	if s.done {
		eachThread(func(tid int) {
			setAffinity(tid, &s.all)
			if len(s.slack) > 0 {
				setSlack(tid, s.slack)
			}
		})
		s.done = false
	}
	runtime.UnlockOSThread()
}
