package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/server/client"
)

// TestGoldenOutput pins ccsim's report, byte for byte, for every flag set
// the Makefile smokes use (plus an explicit threshold 0) on two small
// synthesized logs: eon exercises a live policy switch and adaptive resizes,
// excel module unmaps and forced deletions. One -why -events run pins the
// event stream by its SHA-256. The goldens in testdata are ccsim's output;
// they change only with an intended change of that output.
func TestGoldenOutput(t *testing.T) {
	logs := []struct {
		bench             string
		scale             float64
		logSHA, eventsSHA string
	}{
		{"eon", 0.05,
			"29594cebc53879d3ba1e2120f0076f53e6af20c9fdcd9a38d9f282cae0736101",
			"07492e3acaaf961a93d1cc313f2f448d1a19a83bb0ff6eee336e2a75282af3b7"},
		{"excel", 0.01,
			"08761f76a7b1a23de6505e513bf37b9f13936224ce1adcfcc8e67cf713efc09c",
			"c2c1a338978b06d6845ba92eaa3f421e57f0ba67ed51bf77f80c846e736b4c46"},
	}
	runs := []struct {
		golden string
		args   []string
	}{
		{"default", nil},
		{"unified", []string{"-unified"}},
		{"procs", []string{"-procs", "4"}},
		{"adaptive", []string{"-tiers", "30-10-20-40@1,2", "-adaptive", "-epoch", "512"}},
		{"policy", []string{"-tiers", "100", "-policy", "auto", "-selepoch", "256"}},
		{"why", []string{"-why"}},
		{"threshold0", []string{"-capfrac", "0.25", "-layout", "10-45-45", "-threshold", "0"}},
	}
	dir := t.TempDir()
	for _, l := range logs {
		data, err := client.SyntheticLog(l.bench, l.scale)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(data); got != l.logSHA {
			t.Fatalf("%s log synthesis drifted: sha256 %s, want %s", l.bench, got, l.logSHA)
		}
		logPath := filepath.Join(dir, l.bench+".cclog")
		if err := os.WriteFile(logPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, r := range runs {
			want, err := os.ReadFile(filepath.Join("testdata", l.bench+"-"+r.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got := runCCSim(t, append([]string{"-log", logPath}, r.args...)); !bytes.Equal(got, want) {
				t.Errorf("%s %v: output differs from golden\n--- got ---\n%s--- want ---\n%s", l.bench, r.args, got, want)
			}
		}

		eventsPath := filepath.Join(dir, l.bench+".events")
		got := runCCSim(t, []string{"-log", logPath, "-why", "-events", eventsPath})
		want, err := os.ReadFile(filepath.Join("testdata", l.bench+"-why.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s -why -events: report differs from the -why golden\n%s", l.bench, got)
		}
		events, err := os.ReadFile(eventsPath)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256Hex(events); sum != l.eventsSHA {
			t.Errorf("%s -why -events: stream sha256 %s, want %s", l.bench, sum, l.eventsSHA)
		}
	}
}

// runCCSim runs ccsim in-process and returns its stdout; it fails the test
// on a non-zero exit status or any stderr output.
func runCCSim(t *testing.T, args []string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 || stderr.Len() > 0 {
		t.Fatalf("ccsim %v: exit status %d, stderr: %s", args, code, stderr.Bytes())
	}
	return stdout.Bytes()
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
