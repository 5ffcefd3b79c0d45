//go:build !linux

package main

import "time"

// cpuTicks reports no steal where /proc/stat is absent.
func cpuTicks() (steal, total uint64) { return 0, 0 }

// processCPU is the process's CPU time where the platform can tell.
func processCPU() time.Duration { return 0 }

// fsType names the filesystem behind dir where the platform can tell.
func fsType(string) string { return "unknown" }
