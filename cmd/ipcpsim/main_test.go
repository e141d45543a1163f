package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestInterruptedRunKeepsCPUProfile: a run interrupted before it starts
// still exits 130 with a complete CPU profile on disk — the deferred
// profile flush runs before the exit status is returned.
func TestInterruptedRunKeepsCPUProfile(t *testing.T) {
	prof := filepath.Join(t.TempDir(), "cpu.pprof")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	code := run(ctx, []string{
		"-workload", "lbm-94", "-warmup", "1000", "-measure", "1000",
		"-cpuprofile", prof,
	})
	if code != 130 {
		t.Fatalf("exit status %d, want 130", code)
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	// runtime/pprof writes gzip-compressed protobuf.
	if len(data) == 0 || !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Fatalf("profile is not a non-empty gzip stream (%d bytes)", len(data))
	}
}
