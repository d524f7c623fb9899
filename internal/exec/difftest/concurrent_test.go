package difftest

import (
	"testing"
	"time"
)

// TestConcurrentSessionsQuick: the CI-speed concurrent-session
// differential — 4 clients × 8 queries over a tiny TPC-H instance,
// serial vs concurrent vs log-replay all bit-identical. Run with
// -race; the schedule is recorded, so a failure report names the seed
// and the interleaving depth that broke.
func TestConcurrentSessionsQuick(t *testing.T) {
	rep, err := RunConcurrent(ConcurrentConfig{
		Seed: 1, SF: 0.002, Clients: 4, QueriesPerClient: 8,
		MemBudget: 32 << 20, SpillDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Log) != 4*8 {
		t.Fatalf("interleaving log has %d steps, want %d", len(rep.Log), 4*8)
	}
}

// TestConcurrentSessionsDistributed: the same oracle with per-node
// executors and exchanges under the service.
func TestConcurrentSessionsDistributed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := RunConcurrent(ConcurrentConfig{
		Seed: 2, SF: 0.002, Clients: 3, QueriesPerClient: 6,
		MemBudget: 32 << 20, SpillDir: t.TempDir(), Distributed: true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSessionsUnbudgeted: no admission pool — every query
// admitted instantly, maximal overlap.
func TestConcurrentSessionsUnbudgeted(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if _, err := RunConcurrent(ConcurrentConfig{
		Seed: 3, SF: 0.002, Clients: 4, QueriesPerClient: 6,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSoak is the -long mode concurrency oracle the nightly
// soak runs: random seeds at a larger scale until the time budget
// (a third of -soak, leaving the rest for the join-path soak) runs
// out. Every seed is fully replayable on failure.
func TestConcurrentSoak(t *testing.T) {
	if !*long {
		t.Skip("quick mode; run with -long for the concurrency soak")
	}
	deadline := time.Now().Add(*soakTime / 3)
	seed := int64(1000)
	cases := 0
	for time.Now().Before(deadline) {
		cfg := ConcurrentConfig{
			Seed: seed, SF: 0.005, Clients: 6, QueriesPerClient: 12,
			MemBudget: 48 << 20, SpillDir: t.TempDir(), Distributed: seed%2 == 0,
		}
		if _, err := RunConcurrent(cfg); err != nil {
			t.Fatal(err)
		}
		seed++
		cases++
	}
	t.Logf("concurrency soak: %d cases clean", cases)
}
