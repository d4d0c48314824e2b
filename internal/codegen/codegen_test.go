package codegen_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"graphpi/internal/codegen"
	"graphpi/internal/core"
	"graphpi/internal/graph"
	"graphpi/internal/pattern"
	"graphpi/internal/restrict"
	"graphpi/internal/schedule"
)

func configFor(t *testing.T, p *pattern.Pattern) *core.Config {
	t.Helper()
	sres := schedule.Generate(p, schedule.Options{})
	sets, err := restrict.Generate(p, restrict.Options{MaxSets: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := core.NewConfig(p, sres.Efficient[0], sets[0])
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestGenerateSourceShape(t *testing.T) {
	cfg := configFor(t, pattern.House())
	src, err := codegen.GenerateSource(cfg.SourceSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"package main",
		"func countEmbeddings(g *csr) int64",
		"func intersect(", // hoisted intersections present
		"break // id(",    // restriction turned into a sorted-scan break
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
	if !strings.Contains(src, "count++") && !strings.Contains(src, "count += int64(len(") {
		t.Error("generated source has no counting leaf")
	}
}

func TestLowerShape(t *testing.T) {
	cfg := configFor(t, pattern.House())
	prog, err := codegen.Lower(cfg.SourceSpec())
	if err != nil {
		t.Fatal(err)
	}
	if prog.N != cfg.N() || len(prog.Levels) != cfg.N() {
		t.Fatalf("lowered %d levels, want %d", len(prog.Levels), cfg.N())
	}
	if !prog.Levels[cfg.N()-1].IsLeaf {
		t.Error("last level not marked leaf")
	}
	for d, lv := range prog.Levels {
		if lv.Depth != d {
			t.Errorf("level %d records depth %d", d, lv.Depth)
		}
	}
}

// TestGeneratedProgramMatchesEngine compiles the generated program with the
// host toolchain and compares its output with the interpreted engine — the
// full Figure-3 pipeline (configuration → code generation → compilation →
// execution).
func TestGeneratedProgramMatchesEngine(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles with the host go toolchain")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	g := graph.BarabasiAlbert(400, 5, 77)
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.txt")
	f, err := os.Create(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	for _, p := range []*pattern.Pattern{pattern.Triangle(), pattern.House(), pattern.Rectangle()} {
		cfg := configFor(t, p)
		want := cfg.Count(g, core.RunOptions{Workers: 1})

		src, err := codegen.GenerateSource(cfg.SourceSpec())
		if err != nil {
			t.Fatal(err)
		}
		pkgDir := filepath.Join(dir, "gen-"+p.Name())
		if err := os.MkdirAll(pkgDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkgDir, "main.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pkgDir, "go.mod"),
			[]byte("module genpattern\n\ngo 1.24\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		bin := filepath.Join(pkgDir, "matcher")
		build := exec.Command(goBin, "build", "-o", bin, ".")
		build.Dir = pkgDir
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("%s: generated code does not compile: %v\n%s\n--- source ---\n%s",
				p, err, out, src)
		}
		out, err := exec.Command(bin, graphPath).Output()
		if err != nil {
			t.Fatalf("%s: generated binary failed: %v", p, err)
		}
		got, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			t.Fatalf("%s: bad output %q", p, out)
		}
		if got != want {
			t.Errorf("%s: generated binary counted %d, engine %d", p, got, want)
		}
	}
}
