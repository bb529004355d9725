package analyzers_test

import (
	"testing"

	"ldpjoin/internal/tools/analyzers"
	"ldpjoin/internal/tools/analyzers/analysistest"
)

func TestLockIO(t *testing.T) {
	analysistest.Run(t, analyzers.LockIO, "lockio")
}

func TestAtomicCounter(t *testing.T) {
	analysistest.Run(t, analyzers.AtomicCounter, "atomiccounter")
}

func TestPoolOwn(t *testing.T) {
	analysistest.Run(t, analyzers.PoolOwn, "poolown")
}

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, analyzers.LockOrder, "lockorder")
}

// TestWaiverHygiene needs a suite: a waiver is dead only relative to
// analyzers that actually ran alongside waiverhygiene.
func TestWaiverHygiene(t *testing.T) {
	analysistest.RunSuite(t, []*analyzers.Analyzer{
		analyzers.AtomicCounter, analyzers.LockIO, analyzers.WaiverHygiene,
	}, "waiverhygiene")
}
