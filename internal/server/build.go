package server

import (
	"fmt"
	"os"
	"time"

	naru "repro"
	"repro/internal/table"
)

// BuildTenant loads one tenant from disk per its config: table from CSV,
// estimator from the model artifact, lifecycle enabled when any budget is
// configured, fallback built over the table's 1D statistics. reg is the
// registry view the tenant's families land in — pass a tenant-labelled view
// for multi-tenant exposition or the root registry for the legacy unlabelled
// names (nil disables collection). logf receives boot-time notes (lifecycle
// enablement, registry self-healing); nil discards them.
func BuildTenant(tc TenantConfig, reg *naru.Metrics, logf func(format string, args ...any)) (*Tenant, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	t, err := loadTable(tc.CSV)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", tc.Name, err)
	}
	cfg := naru.DefaultConfig()
	if tc.Samples > 0 {
		cfg.Samples = tc.Samples
	}
	cfg.Metrics = reg
	est, err := openModel(tc.Model, cfg)
	if err != nil {
		return nil, fmt.Errorf("tenant %q: %w", tc.Name, err)
	}
	if tc.lifecycleEnabled() {
		err := est.EnableLifecycle(t, naru.LifecycleConfig{
			NLLThreshold:   tc.DriftThreshold,
			TVDThreshold:   tc.TVDThreshold,
			RefreshAfter:   tc.RefreshAfter,
			RefreshEpochs:  tc.RefreshEpochs,
			CheckpointPath: tc.LifecycleCheckpoint,
			RegistryDir:    tc.RegistryDir,
			AdoptRegistry:  tc.RegistryDir != "",
		})
		if err != nil {
			return nil, fmt.Errorf("tenant %q: %w", tc.Name, err)
		}
		logf("lifecycle[%s]: ingestion enabled (version %d)", tc.Name, est.ModelVersion())
		if rep := est.Lifecycle().Recovery(); rep.Dirty() {
			logf("registry[%s]: self-healed: %d temp files swept, %d artifacts quarantined, manifest rebuilt=%v, active %d -> %d",
				tc.Name, rep.TempFilesRemoved, rep.Quarantined, rep.ManifestRebuilt, rep.ActiveBefore, rep.ActiveAfter)
		}
	}
	opts := TenantOptions{
		Serve:       naru.ServeOptions{Deadline: time.Duration(tc.Timeout), TargetRelStdErr: tc.TargetStdErr},
		MaxInFlight: tc.MaxInFlight,
		CacheSize:   tc.CacheSize,
		Metrics:     reg,
	}
	if tc.BreakerThreshold > 0 {
		opts.Breaker = &naru.BreakerOptions{Threshold: tc.BreakerThreshold, ProbeInterval: time.Duration(tc.ProbeInterval)}
	}
	if tc.Fallback {
		opts.Serve.Fallback = naru.FallbackObserved(t, reg)
	}
	tn := NewTenant(tc.Name, est, t, opts)
	if tn.brk != nil {
		logf("circuit breaker[%s]: threshold %d, probe interval %v", tc.Name, tc.BreakerThreshold, time.Duration(tc.ProbeInterval))
	}
	return tn, nil
}

// loadTable opens and dictionary-encodes the CSV, wrapping failures with the
// offending path.
func loadTable(path string) (*table.Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("csv file: %w", err)
	}
	defer f.Close()
	t, err := naru.LoadCSV(f, path)
	if err != nil {
		return nil, fmt.Errorf("csv file %q: %w", path, err)
	}
	return t, nil
}

// openModel loads a saved estimator, distinguishing a missing model file
// from a present-but-corrupt one: the two need different operator responses
// (fix the path vs. retrain or restore the artifact).
func openModel(path string, cfg naru.Config) (*naru.Estimator, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("model file: %w", err)
	}
	defer f.Close()
	est, err := naru.LoadEstimator(f, cfg)
	if err != nil {
		return nil, fmt.Errorf("model file %q is corrupt or not a naru model: %w", path, err)
	}
	return est, nil
}
