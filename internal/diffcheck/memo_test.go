package diffcheck

import (
	"os"
	"strconv"
	"testing"
)

// memoCampaignSeeds returns how many seeds the memoization campaign
// covers: MEMO_CAMPAIGN_RUNS when set (CI runs 1000+), a moderate default
// otherwise, and a handful under -short.
func memoCampaignSeeds(t *testing.T) int {
	if s := os.Getenv("MEMO_CAMPAIGN_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("bad MEMO_CAMPAIGN_RUNS=%q: %v", s, err)
		}
		return n
	}
	if testing.Short() {
		return 8
	}
	return 48
}

// TestMemoCampaign is the memoization oracle's seeded campaign: every
// generated program runs cold and warm (fresh cache handle) against one
// shared fact DB, plus a budget-limited partial leg,
// and must be byte-identical with zero KindMemoDiverge findings. Seeds
// fan out across the campaign pool, so under -race this also hammers the
// shared on-disk DB from many goroutines.
func TestMemoCampaign(t *testing.T) {
	seeds := memoCampaignSeeds(t)
	dir := t.TempDir()
	rep := Run(Config{
		Seeds:        seeds,
		Resolutions:  1,
		FactCacheDir: dir,
	})
	if want := 2 * seeds; rep.MemoChecks != want {
		t.Errorf("memo checks = %d, want %d", rep.MemoChecks, want)
	}
	for i := range rep.Failures {
		f := &rep.Failures[i]
		t.Errorf("failure %d: %s\nprogram:\n%s", i+1, f.String(), f.Program)
		if i >= 4 {
			t.Fatalf("more failures elided (%d total)", len(rep.Failures))
		}
	}
}

// TestMemoSeedDirect pins a handful of specific seeds through
// CheckMemoSeed, independent of the campaign plumbing.
func TestMemoSeedDirect(t *testing.T) {
	dir := t.TempDir()
	for seed := uint64(100); seed < 106; seed++ {
		if f := CheckMemoSeed(seed, dir); f != nil {
			t.Fatalf("seed %d: %s\nprogram:\n%s", seed, f.String(), f.Program)
		}
	}
}
