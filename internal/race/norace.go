//go:build !race

// Package race reports whether the binary was built with the race
// detector — for tests that count allocations, which it changes: under
// it sync.Pool drops a quarter of what is Put and instrumentation
// allocates, so allocation counts say nothing about the code.
package race

// Enabled reports that the race detector is on.
const Enabled = false
