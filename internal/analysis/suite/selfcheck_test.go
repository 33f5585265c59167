package suite

import (
	"os"
	"path/filepath"
	"testing"

	"pvfsib/internal/analysis/load"
)

// TestRepositoryIsClean runs the whole pvfslint suite over this
// repository's non-test files and fails on any finding, so that a library
// panic, or a suppression that names no analyzer or gives no reason, fails
// `go test ./...`, not just the lint step.
func TestRepositoryIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to the go command")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	findings, _, err := load.Packages(root, []string{"./..."}, All())
	if err != nil {
		t.Fatalf("loading repository: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}

// moduleRoot walks up from the test's working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
