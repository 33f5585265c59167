package lockorder_test

import (
	"testing"

	"pvfsib/internal/analysis/analysistest"
	"pvfsib/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "a")
}

func TestBlockingUnderHold(t *testing.T) {
	analysistest.Run(t, "testdata", lockorder.Analyzer, "b")
}
