package server

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestDurationUnmarshalForms(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"50ms"`), &d); err != nil || time.Duration(d) != 50*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`1500000`), &d); err != nil || time.Duration(d) != 1500*time.Microsecond {
		t.Fatalf("nanosecond form: %v %v", d, err)
	}
	if err := json.Unmarshal([]byte(`"not-a-duration"`), &d); err == nil {
		t.Fatal("bad duration string accepted")
	}
	if err := json.Unmarshal([]byte(`true`), &d); err == nil {
		t.Fatal("bool accepted as duration")
	}
	out, err := json.Marshal(Duration(2 * time.Second))
	if err != nil || string(out) != `"2s"` {
		t.Fatalf("marshal: %s %v", out, err)
	}
}

func TestLoadTenantsObjectForm(t *testing.T) {
	cfgs, def, err := LoadTenants(strings.NewReader(`{
		"default": "beta",
		"tenants": [
			{"name": "alpha", "csv": "a.csv", "model": "a.naru",
			 "max_inflight": 3, "timeout": 1000000, "cache_size": 16},
			{"name": "beta", "csv": "b.csv", "model": "b.naru",
			 "refresh_after": 100, "breaker_threshold": 3}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if def != "beta" || len(cfgs) != 2 {
		t.Fatalf("default %q, %d tenants", def, len(cfgs))
	}
	a := cfgs[0]
	if a.MaxInFlight != 3 || time.Duration(a.Timeout) != time.Millisecond || a.CacheSize != 16 {
		t.Fatalf("alpha config %+v", a)
	}
	if a.lifecycleEnabled() {
		t.Fatal("alpha has no lifecycle budget but reports enabled")
	}
	if !cfgs[1].lifecycleEnabled() {
		t.Fatal("beta has refresh_after but reports lifecycle disabled")
	}
}

// TestLoadTenantsIgnoresRemovedKeys: a tenants file written for the
// batching server, with "batch_window" and "workers", still loads.
func TestLoadTenantsIgnoresRemovedKeys(t *testing.T) {
	cfgs, _, err := LoadTenants(strings.NewReader(`[
		{"name": "old", "csv": "o.csv", "model": "o.naru",
		 "batch_window": "2ms", "workers": 4, "max_inflight": 2}
	]`))
	if err != nil || len(cfgs) != 1 || cfgs[0].MaxInFlight != 2 {
		t.Fatalf("old tenants file: cfgs %+v err %v", cfgs, err)
	}
}

func TestLoadTenantsBareArray(t *testing.T) {
	cfgs, def, err := LoadTenants(strings.NewReader(`[
		{"name": "solo", "csv": "s.csv", "model": "s.naru"}
	]`))
	if err != nil || len(cfgs) != 1 || def != "solo" {
		t.Fatalf("bare array: cfgs %v def %q err %v", cfgs, def, err)
	}
}

// TestLoadTenantsDefaultResolution: no explicit default → a tenant literally
// named "default" wins, else the first entry.
func TestLoadTenantsDefaultResolution(t *testing.T) {
	_, def, err := LoadTenants(strings.NewReader(`[
		{"name": "alpha", "csv": "a.csv", "model": "a.naru"},
		{"name": "default", "csv": "d.csv", "model": "d.naru"}
	]`))
	if err != nil || def != "default" {
		t.Fatalf("named-default resolution: %q %v", def, err)
	}
	_, def, err = LoadTenants(strings.NewReader(`[
		{"name": "alpha", "csv": "a.csv", "model": "a.naru"},
		{"name": "beta", "csv": "b.csv", "model": "b.naru"}
	]`))
	if err != nil || def != "alpha" {
		t.Fatalf("first-entry resolution: %q %v", def, err)
	}
}

func TestLoadTenantsValidation(t *testing.T) {
	cases := []struct {
		name, in, wantErr string
	}{
		{"empty list", `{"tenants": []}`, "no tenants"},
		{"garbage", `{{{`, "tenants file"},
		{"missing name", `[{"csv": "a.csv", "model": "a.naru"}]`, "has no name"},
		{"duplicate name", `[
			{"name": "a", "csv": "a.csv", "model": "a.naru"},
			{"name": "a", "csv": "b.csv", "model": "b.naru"}
		]`, "duplicate tenant"},
		{"missing csv", `[{"name": "a", "model": "a.naru"}]`, "needs both csv and model"},
		{"missing model", `[{"name": "a", "csv": "a.csv"}]`, "needs both csv and model"},
		{"unknown default", `{
			"default": "ghost",
			"tenants": [{"name": "a", "csv": "a.csv", "model": "a.naru"}]
		}`, "default tenant \"ghost\" not defined"},
	}
	for _, tc := range cases {
		_, _, err := LoadTenants(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestLoadTenantsFileMissing(t *testing.T) {
	if _, _, err := LoadTenantsFile("/nonexistent/tenants.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
