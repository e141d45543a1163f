package sim

import (
	"strings"
	"testing"

	"ipcp/internal/cpu"
)

// TestScanFinishedSentinel pins the explicit finished flag: a core
// whose finish cycle is recorded as 0 (legitimate — the scan runs at
// whatever cycle the loop is at) must not be re-counted on later
// scans, which the old `finish[i] == 0` encoding could not guarantee.
func TestScanFinishedSentinel(t *testing.T) {
	cores := []*cpu.Core{{}, {}}
	cores[0].Stats.Retired = 10

	finish := make([]int64, 2)
	finished := make([]bool, 2)

	if n := scanFinished(cores, 0, 10, finish, finished); n != 1 {
		t.Fatalf("first scan counted %d cores, want 1", n)
	}
	if !finished[0] || finish[0] != 0 {
		t.Fatalf("core 0 should be finished at cycle 0: finished=%v finish=%d", finished[0], finish[0])
	}
	// Core 0's recorded cycle is 0 — the exact value the old sentinel
	// used for "not yet finished". It must not be counted again.
	if n := scanFinished(cores, 7, 10, finish, finished); n != 0 {
		t.Fatalf("rescan re-counted an already finished core (%d)", n)
	}
	if finish[0] != 0 {
		t.Fatalf("rescan moved core 0's finish cycle to %d", finish[0])
	}

	cores[1].Stats.Retired = 12
	if n := scanFinished(cores, 9, 10, finish, finished); n != 1 {
		t.Fatalf("core 1 scan counted %d cores, want 1", n)
	}
	if finish[1] != 9 || !finished[1] {
		t.Fatalf("core 1 finish not recorded: finished=%v finish=%d", finished[1], finish[1])
	}
}

// TestAdvanceHonorsMaxCycles pins Advance's cycle bound: it comes from
// Config.MaxCycles like every other run path's, and the error names
// that bound rather than the (non-positive) cycles left before it.
func TestAdvanceHonorsMaxCycles(t *testing.T) {
	cfg := PaperConfig(1)
	cfg.MaxCycles = 10
	sys, err := Build(cfg, streamsFor(t, []string{"mcf-1536"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	err = sys.Advance(1_000_000)
	if err == nil {
		t.Fatal("Advance(1_000_000) under MaxCycles 10 returned nil")
	}
	if !strings.Contains(err.Error(), "exceeded 10 cycles") {
		t.Fatalf("error %q does not name the 10-cycle bound", err)
	}
	if c := sys.CurrentCycle(); c != 10 {
		t.Fatalf("Advance stopped at cycle %d, want 10", c)
	}
}
