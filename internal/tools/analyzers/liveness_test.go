package analyzers_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldpjoin/internal/tools/analyzers"
)

// A mutation is one named bug planted in a copy of the real tree: the
// unique text old in file becomes new.
type mutation struct {
	analyzer string
	file     string
	old, new string
}

// liveMutations plants, in internal/service, one bug of each class an
// analyzer catches and no tier-1 test does: with any of them applied,
// `go test ./...` still passes. The race detector sees the atomiccounter
// and poolown bugs only in the runs where the racing accesses happen to
// interleave; the analyzers see them on every run.
var liveMutations = []mutation{
	{
		// CheckpointNow takes s.mu under opMu; handleSnapshot, opMu
		// under s.mu.
		analyzer: "lockorder",
		file:     "internal/service/service.go",
		old:      "\tcol.opMu.Lock()\n\tcovered, err := s.st.Rotate(name)\n",
		new:      "\tcol.opMu.Lock()\n\ts.mu.Lock()\n\ts.mu.Unlock()\n\tcovered, err := s.st.Rotate(name)\n",
	},
	{
		analyzer: "lockorder",
		file:     "internal/service/service.go",
		old:      "\t\tcol.opMu.Lock()\n\t\tsnap, err := col.state.capture()\n\t\tcol.opMu.Unlock()\n",
		new:      "\t\ts.mu.Lock()\n\t\tcol.opMu.Lock()\n\t\tsnap, err := col.state.capture()\n\t\tcol.opMu.Unlock()\n\t\ts.mu.Unlock()\n",
	},
	{
		analyzer: "lockio",
		file:     "internal/service/metrics.go",
		old:      "\tp := &promWriter{}\n",
		new:      "\tp := &promWriter{}\n\ts.mu.Lock()\n\tfmt.Fprint(w, \"\")\n\ts.mu.Unlock()\n",
	},
	{
		analyzer: "atomiccounter",
		file:     "internal/service/service.go",
		old:      "type Server struct {\n",
		new:      "type Server struct {\n\tchainCalls int64\n",
	},
	{
		analyzer: "atomiccounter",
		file:     "internal/service/queries.go",
		old:      "func (s *Server) joinChain(names []string) (chainEstimate, error) {\n",
		new:      "func (s *Server) joinChain(names []string) (chainEstimate, error) {\n\ts.chainCalls++\n",
	},
	{
		analyzer: "poolown",
		file:     "internal/service/join.go",
		old:      "\treturn c.EnqueueAllPooled(b.(joinBatches).batches)\n",
		new:      "\tbatches := b.(joinBatches).batches\n\terr := c.EnqueueAllPooled(batches)\n\t_ = batches[0][0]\n\treturn err\n",
	},
}

// TestAnalyzersCatchLiveMutations is the reason each analyzer in the
// suite is kept: on a copy of the module with liveMutations applied,
// every analyzer named there reports a finding. A mutation whose site
// has moved fails the test, so the planted bugs follow the code rather
// than silently testing nothing.
func TestAnalyzersCatchLiveMutations(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyModule(t, root, dir)

	for _, m := range liveMutations {
		path := filepath.Join(dir, m.file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(string(src), m.old); n != 1 {
			t.Fatalf("%s mutation: %q occurs %d times in %s, want 1; move the mutation to the code's new shape", m.analyzer, m.old, n, m.file)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	pkgs, err := analyzers.Load(dir, "./internal/service")
	if err != nil {
		t.Fatalf("loading the mutated service package: %v", err)
	}
	res, err := analyzers.Run(pkgs, []*analyzers.Analyzer{
		analyzers.LockIO, analyzers.LockOrder, analyzers.AtomicCounter, analyzers.PoolOwn,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range liveMutations {
		if res.Findings[m.analyzer] == 0 {
			t.Errorf("%s reports nothing on its mutation in %s", m.analyzer, m.file)
		}
	}
}

// copyModule copies the module at root into dir, leaving out what
// loading internal/service does not need: .git, the bench module and
// every testdata directory.
func copyModule(t *testing.T, root, dir string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == ".git" || rel == "bench" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying the module: %v", err)
	}
}
