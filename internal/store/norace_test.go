//go:build !race

package store

const raceDetector = false
