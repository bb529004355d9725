//go:build race

package store

// raceDetector reports that the tests run under the race detector, where
// sync.Pool drops a quarter of what is Put — so allocation counts say
// nothing about the code.
const raceDetector = true
