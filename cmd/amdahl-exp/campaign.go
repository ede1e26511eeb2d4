package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"amdahlyd/internal/campaign"
	"amdahlyd/internal/experiments"
)

// runCampaign drives the crash-safe campaign orchestrator: a manifest
// (file or preset) expands into a deterministic cell grid, every
// completed cell is banked as an atomic artifact, and -resume finishes
// an interrupted campaign to the byte-identical aggregate report
// (DESIGN.md, "Campaign orchestrator & fault injection").
func runCampaign(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("amdahl-exp campaign", flag.ContinueOnError)
	manifestPath := fs.String("manifest", "", "campaign manifest JSON (or use -preset)")
	preset := fs.String("preset", "", "built-in manifest: one of the study presets (see -list)")
	list := fs.Bool("list", false, "list built-in presets and exit")
	outDir := fs.String("out", "", "campaign directory (manifest, journal, cell artifacts, report)")
	resume := fs.Bool("resume", false, "resume an interrupted campaign: verify banked cells by checksum, run only the rest")
	seed := fs.Uint64("seed", 0, "override the manifest's master seed")
	runs := fs.Int("runs", 0, "override Monte-Carlo runs per cell")
	patterns := fs.Int("patterns", 0, "override patterns per run")
	quick := fs.Bool("quick", false, "reduced Monte-Carlo budget (40×60 per cell)")
	workers := fs.Int("workers", 0, "chain-level parallelism (default GOMAXPROCS; never changes results)")
	retries := fs.Int("retries", 0, "attempts per cell before a permanent failure (default 3)")
	timeout := fs.Duration("timeout", 0, "per-attempt cell timeout (0 = none); a deadline hit retries")
	budget := fs.Int("budget", 0, "permanent cell failures tolerated before the campaign aborts fast")
	faultsPath := fs.String("faults", "", "fault-injection plan JSON (testing: fail/panic/delay named cells)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := nonNegative(fs, "workers", "retries", "budget", "timeout"); err != nil {
		return err
	}
	if *list {
		for _, name := range campaign.PresetNames() {
			fmt.Println(name)
		}
		return nil
	}

	var man campaign.Manifest
	switch {
	case *manifestPath != "" && *preset != "":
		return fmt.Errorf("-manifest and -preset are mutually exclusive")
	case *manifestPath != "":
		f, err := os.Open(*manifestPath)
		if err != nil {
			return err
		}
		man, err = campaign.ReadManifest(f)
		f.Close()
		if err != nil {
			return err
		}
	case *preset != "":
		var err error
		man, err = campaign.Preset(*preset)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("one of -manifest or -preset is required (or -list)")
	}
	if *outDir == "" {
		return fmt.Errorf("-out is required")
	}
	// Budget overrides rewrite the manifest before it is pinned to the
	// output directory, so a resume must repeat them — the directory
	// never silently mixes budgets.
	if *quick {
		q := experiments.Quick()
		man.Runs, man.Patterns = q.Runs, q.Patterns
	}
	if *seed != 0 {
		man.Seed = *seed
	}
	if *runs != 0 {
		man.Runs = *runs
	}
	if *patterns != 0 {
		man.Patterns = *patterns
	}
	// A bad override must fail before the run summary prints: a summary
	// of zero cells reads like a campaign that ran and found nothing.
	if err := man.Validate(); err != nil {
		return err
	}

	var faults campaign.FaultPlan
	if *faultsPath != "" {
		f, err := os.Open(*faultsPath)
		if err != nil {
			return err
		}
		faults, err = campaign.ReadFaultPlan(f)
		f.Close()
		if err != nil {
			return err
		}
	}

	//lint:allow walltime CLI progress timing printed to the operator; artifacts carry no wall-clock
	start := time.Now()
	sum, err := campaign.Run(ctx, man, campaign.Options{
		OutDir:        *outDir,
		Resume:        *resume,
		Workers:       *workers,
		MaxAttempts:   *retries,
		CellTimeout:   *timeout,
		FailureBudget: *budget,
		Faults:        faults,
	})
	//lint:allow walltime CLI progress timing printed to the operator; artifacts carry no wall-clock
	elapsed := time.Since(start)
	fmt.Printf("campaign %s: %d cells planned, %d skipped, %d executed, %d retries, %d failed (%.1fs)\n",
		man.Name, sum.Planned, sum.Skipped, sum.Executed, sum.Retries, sum.Failed,
		elapsed.Seconds())
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s\nwrote %s\n", sum.ReportText, sum.ReportCSV)
	return nil
}
