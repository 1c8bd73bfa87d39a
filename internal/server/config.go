// Package server is the reusable multi-tenant serving engine behind
// `naru serve`: one process hosts many tables/models, each a named tenant
// with its own estimator, admission gate, circuit breaker, lifecycle
// manager, result cache, and metrics namespace (naru_* families labelled
// tenant="..." in one shared registry).
//
// Routing is path-based: /v1/{tenant}/estimate|append|drift|models plus
// per-tenant health probes, with the legacy single-tenant routes (/estimate,
// /append, ...) kept as aliases to a designated default tenant so existing
// clients keep working unchanged. The process-level /readyz aggregates every
// tenant's degradation state; /livez stays pure process liveness.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Duration is a time.Duration that unmarshals from JSON as either a Go
// duration string ("50ms", "2s") or a number of nanoseconds, so tenants.json
// reads like the serve flags it replaces.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	switch x := v.(type) {
	case string:
		parsed, err := time.ParseDuration(x)
		if err != nil {
			return fmt.Errorf("duration %q: %w", x, err)
		}
		*d = Duration(parsed)
	case float64:
		*d = Duration(time.Duration(x))
	default:
		return fmt.Errorf("duration must be a string or nanosecond number, got %T", v)
	}
	return nil
}

// MarshalJSON implements json.Marshaler (the duration-string form).
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// TenantConfig is one tenant's serving configuration — the JSON shape of a
// tenants.json entry, mirroring the single-tenant serve flags field for
// field. Only Name, CSV, and Model are required.
type TenantConfig struct {
	// Name is the tenant's routing key: /v1/<name>/estimate. Must be unique
	// within the server and non-empty.
	Name string `json:"name"`
	// CSV is the tenant's table (schema + fallback statistics + lifecycle
	// snapshot seed).
	CSV string `json:"csv"`
	// Model is the tenant's trained model artifact.
	Model string `json:"model"`
	// Samples is the progressive-sample budget per query (default 2000).
	Samples int `json:"samples,omitempty"`
	// Timeout is the per-query deadline (0 = none); expiring degrades the
	// sample budget.
	Timeout Duration `json:"timeout,omitempty"`
	// Fallback answers failed queries from 1D statistics.
	Fallback bool `json:"fallback,omitempty"`
	// TargetStdErr stops sampling early at this relative standard error.
	TargetStdErr float64 `json:"target_stderr,omitempty"`
	// MaxInFlight caps the tenant's queries walking at once, each on one
	// core (0 = GOMAXPROCS). An estimate waits for a slot; past 256 waiting
	// estimates a new one is shed.
	MaxInFlight int `json:"max_inflight,omitempty"`
	// CacheSize bounds the tenant's predicate-fingerprint result cache
	// (entries). 0 uses the default (1024); negative disables the cache.
	CacheSize int `json:"cache_size,omitempty"`

	// Lifecycle budgets (any non-zero field, or RegistryDir, enables online
	// ingestion for the tenant; each tenant drifts and refreshes on its own
	// budget).
	RefreshAfter        int     `json:"refresh_after,omitempty"`
	DriftThreshold      float64 `json:"drift_threshold,omitempty"`
	TVDThreshold        float64 `json:"tvd_threshold,omitempty"`
	RefreshEpochs       int     `json:"refresh_epochs,omitempty"`
	RegistryDir         string  `json:"registry,omitempty"`
	LifecycleCheckpoint string  `json:"lifecycle_checkpoint,omitempty"`

	// Circuit breaker (BreakerThreshold > 0 arms it).
	BreakerThreshold int      `json:"breaker_threshold,omitempty"`
	ProbeInterval    Duration `json:"probe_interval,omitempty"`
}

// lifecycleEnabled reports whether any lifecycle budget is configured — the
// same rule the single-tenant serve flags used.
func (c TenantConfig) lifecycleEnabled() bool {
	return c.RefreshAfter > 0 || c.DriftThreshold > 0 || c.TVDThreshold > 0 || c.RegistryDir != ""
}

// tenantsFile is the on-disk shape of -tenants: a default-tenant designation
// plus the tenant list. A bare JSON array of TenantConfig is also accepted.
type tenantsFile struct {
	// Default names the tenant the legacy single-tenant routes alias to
	// (defaults to a tenant literally named "default", else the first entry).
	Default string         `json:"default,omitempty"`
	Tenants []TenantConfig `json:"tenants"`
}

// LoadTenants reads a tenants.json: either {"default": "...", "tenants":
// [...]} or a bare [...] array. Returns the tenant configs and the name of
// the default tenant for legacy-route aliasing.
func LoadTenants(r io.Reader) ([]TenantConfig, string, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, "", err
	}
	var file tenantsFile
	if err := json.Unmarshal(raw, &file); err != nil {
		// Bare-array form.
		var list []TenantConfig
		if arrErr := json.Unmarshal(raw, &list); arrErr != nil {
			return nil, "", fmt.Errorf("tenants file: %w", err)
		}
		file.Tenants = list
	}
	if len(file.Tenants) == 0 {
		return nil, "", fmt.Errorf("tenants file: no tenants defined")
	}
	seen := make(map[string]bool, len(file.Tenants))
	for i, tc := range file.Tenants {
		if tc.Name == "" {
			return nil, "", fmt.Errorf("tenants file: tenant %d has no name", i)
		}
		if seen[tc.Name] {
			return nil, "", fmt.Errorf("tenants file: duplicate tenant %q", tc.Name)
		}
		seen[tc.Name] = true
		if tc.CSV == "" || tc.Model == "" {
			return nil, "", fmt.Errorf("tenants file: tenant %q needs both csv and model", tc.Name)
		}
	}
	def := file.Default
	switch {
	case def == "":
		def = file.Tenants[0].Name
		if seen["default"] {
			def = "default"
		}
	case !seen[def]:
		return nil, "", fmt.Errorf("tenants file: default tenant %q not defined", def)
	}
	return file.Tenants, def, nil
}

// LoadTenantsFile is LoadTenants over a file path.
func LoadTenantsFile(path string) ([]TenantConfig, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", fmt.Errorf("tenants file: %w", err)
	}
	defer f.Close()
	return LoadTenants(f)
}
