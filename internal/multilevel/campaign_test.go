package multilevel

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func testSimulator(t testing.TB) *Simulator {
	t.Helper()
	c := heraCosts()
	lf, ls := heraRates(512)
	s, err := NewSimulator(c, Pattern{T: 6000, K: 3}, lf, ls)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCampaignWorkerCountIndependent pins the bit-independence contract:
// per-run Split(i) streams make the campaign statistics identical at any
// worker count (run under -race, this also exercises concurrent Split on
// the shared master).
func TestCampaignWorkerCountIndependent(t *testing.T) {
	s := testSimulator(t)
	base := CampaignConfig{Runs: 64, Patterns: 40, Seed: 11, HOfP: 0.1}
	var (
		mu      sync.Mutex
		results []CampaignResult
		wg      sync.WaitGroup
	)
	for _, workers := range []int{1, 2, 5, 16} {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cfg := base
			cfg.Workers = w
			res, err := s.SimulateContext(context.Background(), cfg)
			if err != nil {
				t.Errorf("workers=%d: %v", w, err)
				return
			}
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		}(workers)
	}
	wg.Wait()
	if len(results) < 4 {
		t.Fatal("missing results")
	}
	ref := results[0]
	for _, res := range results[1:] {
		if res.Overhead != ref.Overhead {
			t.Errorf("overhead summary differs across worker counts: %+v vs %+v",
				res.Overhead, ref.Overhead)
		}
		if res.FailStops != ref.FailStops || res.SilentDetections != ref.SilentDetections ||
			res.DiskRecoveries != ref.DiskRecoveries || res.MemRecoveries != ref.MemRecoveries {
			t.Errorf("event totals differ across worker counts")
		}
	}
}

// TestCampaignMatchesLegacySimulate: a sequential single-worker campaign
// and a parallel one must summarize the identical sample.
func TestCampaignMatchesLegacySimulate(t *testing.T) {
	s := testSimulator(t)
	cfg := CampaignConfig{Runs: 40, Patterns: 30, Seed: 7, Workers: 1, HOfP: 0.1}
	seq, err := s.SimulateContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	res, err := s.SimulateContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Overhead != seq.Overhead {
		t.Errorf("parallel campaign %+v differs from sequential %+v", res.Overhead, seq.Overhead)
	}
}

// TestCampaignCancellation: a pre-cancelled context must abort without
// running the campaign, and a cancellation mid-campaign must surface
// ctx.Err() promptly.
func TestCampaignCancellation(t *testing.T) {
	s := testSimulator(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SimulateContext(ctx, CampaignConfig{Runs: 8, Patterns: 8, Seed: 1, HOfP: 0.1}); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled campaign returned %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.SimulateContext(ctx2, CampaignConfig{
			Runs: 1 << 20, Patterns: 200, Seed: 1, Workers: 2, HOfP: 0.1,
		})
		done <- err
	}()
	cancel2()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled campaign returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled campaign did not return")
	}
}

func TestCampaignValidation(t *testing.T) {
	s := testSimulator(t)
	bg := context.Background()
	if _, err := s.SimulateContext(bg, CampaignConfig{Runs: -1, Patterns: 10, Seed: 1, HOfP: 0.1}); err == nil {
		t.Error("negative runs accepted")
	}
	// The hOfP regression: a NaN, zero or infinite H(P) used to flow
	// straight into the summary as NaN instead of erroring.
	for _, h := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := s.SimulateContext(bg, CampaignConfig{Runs: 4, Patterns: 4, Seed: 1, HOfP: h}); err == nil {
			t.Errorf("H(P) = %g accepted", h)
		}
	}
}
