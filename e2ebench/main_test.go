package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
)

// benchmarkSpec reads the metric names and units BENCHMARK.json at the
// root of the repository promises.
func benchmarkSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func shortRun(t *testing.T, workload string, trace bool, digests map[string]string) *result {
	t.Helper()
	res, err := run(config{workload: workload, seed: 3, seconds: 1, trace: trace,
		workDir: t.TempDir(), digests: digests}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShortRuns runs every workload briefly, untraced and traced, and
// checks that each prints exactly the metrics BENCHMARK.json names,
// with their units, and that nothing failed.
func TestShortRuns(t *testing.T) {
	endToEnd, perLayer := benchmarkSpec(t)
	digests, err := committedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for name := range specs {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			res := shortRun(t, name, trace, digests)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for metric, unit := range want {
				got, ok := res.Metrics[metric]
				if !ok || got.Unit != unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, metric, got, unit)
				}
			}
			if !trace && res.Metrics["ok_frac"].Value != 1 {
				t.Errorf("%s: ok_frac %v, want 1", name, res.Metrics["ok_frac"].Value)
			}
		}
	}
}

// TestCorruptedDigestFails checks that the result check can fail: with
// one committed digest altered, the run must report failures.
func TestCorruptedDigestFails(t *testing.T) {
	digests, err := committedDigests()
	if err != nil {
		t.Fatal(err)
	}
	digests["example21"] = "496:0000000000000000"
	res := shortRun(t, "analytic", false, digests)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted digest not reported: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if ok := res.Metrics["ok_frac"].Value; ok >= 1 {
		t.Fatalf("ok_frac %v with failures", ok)
	}
}
