package main

import (
	"bufio"
	"bytes"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"pascalr/internal/obs"
)

// scrape reads every registered obs instrument through the Prometheus
// exposition an operator would scrape: counters and gauges by name,
// histograms as name_sum (seconds) and name_count. Bucket lines and info
// metrics are skipped.
func scrape() map[string]float64 {
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// delta is the change of every scraped series between two scrapes.
func delta(before, after map[string]float64) map[string]float64 {
	d := make(map[string]float64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// settle waits until the background executor (statistics rebuilds,
// checkpoints, compactions) has drained, so the next phase starts from
// a quiet database.
func settle() {
	backlog := obs.GetGauge("pascal_sched_async_backlog_count", "")
	for backlog.Load() > 0 {
		time.Sleep(time.Millisecond)
	}
}

// quantile returns the q-quantile of sorted samples by the nearest-rank
// rule, or 0 for no samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runtimeSnap is the Go runtime's view of a measured window: bytes
// allocated, GC cycles, and CPU time spent in the collector.
type runtimeSnap struct {
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	return runtimeSnap{
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcCPU:      runtimeSamples[0].Value.Float64(),
		totalCPU:   runtimeSamples[1].Value.Float64(),
	}
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
