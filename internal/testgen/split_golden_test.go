package testgen

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dyncc/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestAfterSplitGolden pins the splitter's output, and through it the
// run-time constants and reachability analyses, across a wide corpus: the
// repository's testdata programs, 64 tenants, and corpus seeds 0–149 both
// plain and WithCalls. Each line is one function's SHA-256 of its IR dump
// after split under the default (Dynamic+Optimize) configuration. A diff
// means some region's set-up/template partition or its emitted
// reachability code changed.
func TestAfterSplitGolden(t *testing.T) {
	type subject struct{ label, src string }
	var subjects []subject
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.mc"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		subjects = append(subjects, subject{"testdata/" + filepath.Base(path), string(src)})
	}
	for seed := int64(0); seed < 64; seed++ {
		subjects = append(subjects, subject{fmt.Sprintf("tenant/%d", seed), Tenant(seed)})
	}
	for seed := int64(0); seed < 150; seed++ {
		subjects = append(subjects,
			subject{fmt.Sprintf("gen/%d", seed), GenWith(rand.New(rand.NewSource(seed)), GenOpts{})},
			subject{fmt.Sprintf("calls/%d", seed), GenWith(rand.New(rand.NewSource(seed)), GenOpts{WithCalls: true})})
	}

	var b strings.Builder
	for _, s := range subjects {
		cfg := core.DefaultConfig()
		cfg.DumpIR = func(pass, fn, text string) {
			if pass == "split" {
				fmt.Fprintf(&b, "%s %s %x\n", s.label, fn, sha256.Sum256([]byte(text)))
			}
		}
		if _, err := core.Compile(s.src, cfg); err != nil {
			t.Fatalf("%s: %v\n%s", s.label, err, s.src)
		}
	}
	got := b.String()

	golden := filepath.Join("testdata", "after_split.golden")
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("after-split dump differs from %s at line %d (run with -update to regenerate)\n got: %s\nwant: %s",
				golden, i+1, g, w)
		}
	}
}
