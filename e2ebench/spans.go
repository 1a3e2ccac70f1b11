package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"

	"pascalr/internal/obs"
)

// selfTimes sums, by layer, the self time in µs of every span of the
// traced statements: a span's duration minus the part of it its
// children cover. The benchmark's call span of a read keys as "call-read";
// everything beneath it keys by the program's span name, with the
// per-relation "scan <rel>" spans folded into "scan" and the server's
// root span renamed "server".
func selfTimes(traces []obs.TraceJSON) map[string]float64 {
	out := map[string]float64{}
	var walk func(sp obs.SpanJSON, key string)
	walk = func(sp obs.SpanJSON, key string) {
		out[key] += selfTime(sp)
		for _, c := range sp.Children {
			walk(c, spanLayer(c.Name))
		}
	}
	for _, tr := range traces {
		for _, call := range tr.Root.Children {
			key := "call-read"
			if call.Name == "call insert" || call.Name == "call delete" {
				key = "call-write"
			}
			walk(call, key)
		}
	}
	return out
}

func spanLayer(name string) string {
	if strings.HasPrefix(name, "scan ") {
		return "scan"
	}
	return name
}

// selfTime is the span's duration minus the union of its children's
// intervals, each clipped to the span's own (the server appends fetch
// spans to a statement's root after the root has ended).
func selfTime(sp obs.SpanJSON) float64 {
	lo, hi := sp.StartUS, sp.StartUS+sp.DurUS
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range sp.Children {
		a, b := max(c.StartUS, lo), min(c.StartUS+c.DurUS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return float64(sp.DurUS - covered)
}

// writeTraces writes the traced statements' span trees as one JSON
// array.
func writeTraces(path string, traces []obs.TraceJSON) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(traces); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
