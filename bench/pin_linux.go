package main

import (
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a scheduler affinity mask of 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU restricts the whole process to a single CPU and returns its
// number (-1 if pinning failed, or the process was started to run unpinned,
// and the run proceeds on every CPU).
//
// Why: on the host this benchmark was defined on, the second vCPU comes and
// goes for minutes at a time — two busy threads take 2.0× as long as one,
// then for a few minutes 1.0× — so anything that runs on both (the native
// worker pool, the simulated GPU's workers, GC) swings 1.4–1.5× between
// whole runs, and no estimator inside a run can tell. One CPU's worth of
// work is what the host reliably gives. Every knob of the program stays at
// its default; the defaults just see a one-CPU machine. The price is that
// the gated metrics cannot see the program's parallel paths; a traced run
// reports the same window unpinned beside them (runUnpinned).
func pinToOneCPU() int {
	if v, ok := os.LookupEnv(pinnedEnv); ok {
		cpu, err := strconv.Atoi(v)
		if err != nil {
			return -1
		}
		return cpu
	}
	runtime.LockOSThread()
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return -1
	}
	// The highest allowed CPU: CPU 0 tends to take the interrupts.
	cpu := -1
	for i := len(mask)*64 - 1; i >= 0; i-- {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
			break
		}
	}
	if cpu < 0 {
		return -1
	}
	mask = cpuMask{}
	mask[cpu/64] = 1 << (cpu % 64)
	reexecConfinedTo(mask, pinnedEnv+"="+strconv.Itoa(cpu), hostCPUsEnv+"="+strconv.Itoa(runtime.NumCPU()))
	return -1
}

// releaseCPUs undoes, for this process, the pinning it inherited from the
// benchmark process that started it: the process gets back every CPU the
// host allows and is marked as not to pin itself again.
func releaseCPUs() {
	if os.Getenv(pinnedEnv) == notPinned {
		return
	}
	runtime.LockOSThread()
	var all cpuMask
	for i := range all {
		all[i] = ^uint64(0) // the kernel keeps the CPUs the process may use
	}
	os.Unsetenv(pinnedEnv)
	reexecConfinedTo(all, pinnedEnv+"="+notPinned)
}

// reexecConfinedTo sets the affinity mask and re-executes the binary with
// env added. The mask is per thread and inherited, so it is set on the
// (locked) main thread and the new image's runtime starts with every
// thread under it and runtime.NumCPU() counting its CPUs. It only returns
// on failure; the run then proceeds in this process as it was.
func reexecConfinedTo(mask cpuMask, env ...string) {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return
	}
	exe, err := os.Executable()
	if err != nil {
		return
	}
	_ = syscall.Exec(exe, os.Args, append(os.Environ(), env...))
}
