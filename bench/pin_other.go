//go:build !linux

package main

// pinToOneCPU is a no-op where the scheduler affinity calls do not exist.
func pinToOneCPU() int { return -1 }

// releaseCPUs has nothing to undo where nothing was pinned.
func releaseCPUs() {}
