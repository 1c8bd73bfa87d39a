package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	naru "repro"
	"repro/internal/made"
)

// writeTestCSV emits a small correlated two-column table.
func writeTestCSV(t *testing.T, dir string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("state,qty\n")
	states := []string{"NY", "CA", "WA", "TX"}
	for i := 0; i < 48; i++ {
		fmt.Fprintf(&b, "%s,%d\n", states[i%len(states)], (i%6)*10)
	}
	path := filepath.Join(dir, "cars.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestCLI drives every subcommand through run(), checking exit codes and the
// distinct error messages of each failure path.
func TestCLI(t *testing.T) {
	dir := t.TempDir()
	csv := writeTestCSV(t, dir)
	model := filepath.Join(dir, "model.naru")
	ckpt := filepath.Join(dir, "train.ckpt")

	// Train once (shared by the read-only cases below).
	code, stdout, stderr := runCLI("train", "-csv", csv, "-out", model,
		"-epochs", "1", "-hidden", "8,8", "-samples", "64", "-checkpoint", ckpt)
	if code != 0 {
		t.Fatalf("train: exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "saved to") {
		t.Fatalf("train stdout: %q", stdout)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("train -checkpoint wrote nothing: %v", err)
	}

	corrupt := filepath.Join(dir, "corrupt.naru")
	if err := os.WriteFile(corrupt, []byte("naruv1 0\nthis is not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	badWorkload := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(badWorkload, []byte("state=NY\n# comment\n???\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	goodWorkload := filepath.Join(dir, "good.txt")
	if err := os.WriteFile(goodWorkload, []byte("state=NY\nqty<=30\nstate=CA AND qty>=20\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantOut    string // substring of stdout ("" = don't care)
		wantErr    string // substring of stderr ("" = don't care)
		excludeErr string // substring stderr must NOT contain
	}{
		{name: "no args", args: nil, wantCode: 2, wantErr: "usage"},
		{name: "unknown subcommand", args: []string{"frobnicate"}, wantCode: 2, wantErr: "usage"},
		{name: "train missing csv", args: []string{"train"}, wantCode: 1, wantErr: "-csv is required"},
		{name: "train bad hidden", args: []string{"train", "-csv", csv, "-hidden", "8,zero"},
			wantCode: 1, wantErr: "bad hidden sizes"},
		{name: "train resume without checkpoint", args: []string{"train", "-csv", csv, "-resume"},
			wantCode: 1, wantErr: "-resume requires -checkpoint"},
		{name: "estimate missing model",
			args:     []string{"estimate", "-csv", csv, "-model", filepath.Join(dir, "nope.naru"), "-where", "state=NY"},
			wantCode: 1, wantErr: "model file", excludeErr: "corrupt"},
		{name: "estimate corrupt model",
			args:     []string{"estimate", "-csv", csv, "-model", corrupt, "-where", "state=NY"},
			wantCode: 1, wantErr: "corrupt or not a naru model"},
		{name: "estimate missing csv",
			args:     []string{"estimate", "-model", model, "-where", "state=NY"},
			wantCode: 1, wantErr: "exactly one of -where / -queries"},
		{name: "estimate where and queries",
			args:     []string{"estimate", "-csv", csv, "-model", model, "-where", "state=NY", "-queries", goodWorkload},
			wantCode: 1, wantErr: "exactly one of -where / -queries"},
		{name: "estimate where ok",
			args:     []string{"estimate", "-csv", csv, "-model", model, "-where", "state=NY AND qty<=30"},
			wantCode: 0, wantOut: "estimate: sel="},
		{name: "estimate where with timeout and fallback",
			args: []string{"estimate", "-csv", csv, "-model", model,
				"-timeout", "5s", "-fallback", "-where", "state=NY"},
			wantCode: 0, wantOut: "estimate: sel="},
		{name: "estimate malformed workload line",
			args:     []string{"estimate", "-csv", csv, "-model", model, "-queries", badWorkload},
			wantCode: 1, wantErr: `line 3: "???"`},
		{name: "estimate empty workload",
			args:     []string{"estimate", "-csv", csv, "-model", model, "-queries", os.DevNull},
			wantCode: 1, wantErr: "no queries"},
		{name: "estimate workload ok",
			args: []string{"estimate", "-csv", csv, "-model", model,
				"-queries", goodWorkload, "-workers", "2", "-timeout", "5s", "-fallback"},
			wantCode: 0, wantOut: "queries in"},
		{name: "entropy ok", args: []string{"entropy", "-csv", csv, "-model", model},
			wantCode: 0, wantOut: "entropy gap"},
		{name: "resume completed run is noop",
			args: []string{"train", "-csv", csv, "-out", model, "-epochs", "1",
				"-hidden", "8,8", "-checkpoint", ckpt, "-resume"},
			wantCode: 0, wantOut: "saved to"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(tc.args...)
			if code != tc.wantCode {
				t.Fatalf("exit %d, want %d (stdout %q, stderr %q)", code, tc.wantCode, stdout, stderr)
			}
			if tc.wantOut != "" && !strings.Contains(stdout, tc.wantOut) {
				t.Fatalf("stdout %q missing %q", stdout, tc.wantOut)
			}
			if tc.wantErr != "" && !strings.Contains(stderr, tc.wantErr) {
				t.Fatalf("stderr %q missing %q", stderr, tc.wantErr)
			}
			if tc.excludeErr != "" && strings.Contains(stderr, tc.excludeErr) {
				t.Fatalf("stderr %q unexpectedly contains %q", stderr, tc.excludeErr)
			}
		})
	}
}

// TestEstimateQueriesReportsFailedModel: with no resilience flags, a workload
// served by a model whose weights are NaN reports every query as failed and
// the command fails, instead of printing est=0 for each.
func TestEstimateQueriesReportsFailedModel(t *testing.T) {
	dir := t.TempDir()
	csv := writeTestCSV(t, dir)
	tbl, err := loadTable(csv)
	if err != nil {
		t.Fatal(err)
	}
	m := made.New(tbl.DomainSizes(), made.Config{HiddenSizes: []int{8, 8}, Seed: 1})
	for _, p := range m.Params() {
		for i := range p.Val.Data {
			p.Val.Data[i] = float32(math.NaN())
		}
	}
	model := filepath.Join(dir, "nan.naru")
	f, err := os.Create(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := naru.NewFromModel(m, tbl, naru.DefaultConfig()).Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	workload := filepath.Join(dir, "w.txt")
	if err := os.WriteFile(workload, []byte("state=NY\nqty<=30\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI("estimate", "-csv", csv, "-model", model, "-queries", workload)
	if code != 1 || !strings.Contains(stderr, "2 of 2 queries failed") {
		t.Fatalf("exit %d, stderr %q: want the command to fail on 2 of 2 queries", code, stderr)
	}
	if n := strings.Count(stdout, "[FAILED: "); n != 2 {
		t.Fatalf("stdout %q tags %d queries failed, want 2", stdout, n)
	}
}

// TestEstimateWhereCardIsSelTimesRows: `estimate -where` walks the model
// once, so the card it prints is the printed sel × the table's rows, and
// both match the `-queries` line a fresh process prints for the same query.
// The query restricts all three columns of a 32×32×10 table, so it samples
// rather than enumerates: a second walk would draw other paths.
func TestEstimateWhereCardIsSelTimesRows(t *testing.T) {
	dir := t.TempDir()
	var b strings.Builder
	b.WriteString("a,b,c\n")
	const rows = 2048
	for i := 0; i < rows; i++ {
		a, bb := i%32, (i/32)%32
		fmt.Fprintf(&b, "%d,%d,%d\n", a, bb, (a+bb)%10)
	}
	csv := filepath.Join(dir, "wide.csv")
	if err := os.WriteFile(csv, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	model := filepath.Join(dir, "model.naru")
	if code, _, stderr := runCLI("train", "-csv", csv, "-out", model,
		"-epochs", "1", "-hidden", "8,8", "-samples", "64"); code != 0 {
		t.Fatalf("train: %s", stderr)
	}
	const where = "a>=1 AND b>=1 AND c>=1"
	workload := filepath.Join(dir, "w.txt")
	if err := os.WriteFile(workload, []byte(where+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	code, out, stderr := runCLI("estimate", "-csv", csv, "-model", model, "-samples", "300", "-where", where)
	if code != 0 {
		t.Fatalf("estimate -where: exit %d, stderr %q", code, stderr)
	}
	var sel, card float64
	var selText, cardText string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "estimate: "); ok {
			if _, err := fmt.Sscanf(rest, "sel=%s card=%s", &selText, &cardText); err != nil {
				t.Fatalf("estimate line %q: %v", line, err)
			}
		}
	}
	if _, err := fmt.Sscan(selText, &sel); err != nil {
		t.Fatalf("no estimate line in %q", out)
	}
	if _, err := fmt.Sscan(cardText, &card); err != nil {
		t.Fatalf("no card in %q", out)
	}
	// sel prints 6 significant digits and card one decimal.
	if d := math.Abs(card - sel*rows); d > 0.05+5e-6*card {
		t.Fatalf("printed card %v is not printed sel %v × %d rows = %v", card, sel, rows, sel*rows)
	}

	code, out, stderr = runCLI("estimate", "-csv", csv, "-model", model, "-samples", "300", "-queries", workload)
	if code != 0 {
		t.Fatalf("estimate -queries: exit %d, stderr %q", code, stderr)
	}
	want := fmt.Sprintf("est=%s ", selText)
	if !strings.Contains(out, want) || !strings.Contains(out, "card="+cardText+"\n") {
		t.Fatalf("-where printed sel=%s card=%s; -queries printed:\n%s", selText, cardText, out)
	}
}
