package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// goTool returns the go command that built this test, or skips the
// test when there is none.
func goTool(t *testing.T) string {
	t.Helper()
	if p, err := exec.LookPath("go"); err == nil {
		return p
	}
	p := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(p); err != nil {
		t.Skip("no go command to build the binaries with")
	}
	return p
}

// TestPersistedSpanRoundTrip drives the built commands end to end: a
// span file hybridsim writes must diff against a live run and against
// itself through tracediff. The inline diff's determinism, sections
// and JSON keys are pinned by TestInlineDiffDeterministicAndAttributed.
func TestPersistedSpanRoundTrip(t *testing.T) {
	gotool := goTool(t)
	dir := t.TempDir()
	build := func(pkg string) string {
		bin := filepath.Join(dir, filepath.Base(pkg))
		if out, err := exec.Command(gotool, "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
		return bin
	}
	hybridsim := build("codesign/cmd/hybridsim")
	tracediff := build("codesign/cmd/tracediff")
	run := func(bin string, args ...string) string {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.Output()
		if err != nil {
			msg := err.Error()
			if ee, ok := err.(*exec.ExitError); ok {
				msg += "\n" + string(ee.Stderr)
			}
			t.Fatalf("%s %s: %s", filepath.Base(bin), strings.Join(args, " "), msg)
		}
		return string(out)
	}

	run(hybridsim, "-app", "lu", "-n", "3000", "-b", "600", "-spans-json", "base.spans")
	if st, err := os.Stat(filepath.Join(dir, "base.spans")); err != nil || st.Size() == 0 {
		t.Fatalf("hybridsim -spans-json wrote no span file: %v", err)
	}
	live := run(hybridsim, "-app", "lu", "-n", "3000", "-b", "600", "-pes", "4", "-diff-against", "base.spans")
	if !strings.Contains(live, "differential analysis") {
		t.Fatalf("-diff-against printed no differential analysis:\n%s", live)
	}
	self := run(tracediff, "-out", "self.json", "base.spans", "base.spans")
	if !strings.Contains(self, "delta +0 s") {
		t.Fatalf("tracediff self-diff is not zero:\n%s", self)
	}
}
