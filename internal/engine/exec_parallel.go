package engine

import (
	"context"
	"fmt"

	"pascalr/internal/sched"
	"pascalr/internal/stats"
)

// shardMinTuples is the estimated per-shard scan cardinality below
// which splitting a scan is not worth the fork/merge overhead. The
// estimator prices the decision when cost-based planning is on;
// otherwise the relation's exact length does.
const shardMinTuples = 512

// jobShardSpans decides how a job's scan splits into slot-range shards:
// nil (or a single span) means the job runs whole. A job shards only
// when every task supports shard-local accumulation and the estimated
// scan cardinality clears shardMinTuples per shard, up to one shard per
// worker. Shard boundaries balance by the statistics subsystem's slot
// density — the live-tuple counts per slot stripe — instead of raw slot
// counts, so after heavy deletions no shard inherits a dead region
// while another carries all the survivors. The split only moves
// boundaries; results and merged counters stay bit-identical to a
// serial scan regardless.
func (p *plan) jobShardSpans(job *scanJob) [][2]int {
	for _, t := range job.tasks {
		if _, ok := t.(shardableTask); !ok {
			return nil
		}
	}
	card := float64(job.rel.Len())
	if p.est != nil {
		if c := p.est.Card(job.rel.Name()); c > 1 {
			card = c
		}
	}
	// A disk-resident scan pays more per tuple, so it amortizes the
	// fork/merge overhead sooner: the backend's access-cost profile
	// scales the effective cardinality. Shard count moves boundaries
	// only — results and counters stay bit-identical either way — so
	// backend costs feeding this decision cannot perturb fingerprints.
	card *= job.rel.AccessCost().ScanTuple
	n := sched.ShardCount(card, shardMinTuples, p.par)
	if n <= 1 {
		return nil
	}
	if weights, stripe := job.rel.SlotWeights(); weights != nil {
		return sched.WeightedShards(job.rel.SlotSpan(), n, weights, stripe)
	}
	return sched.Shards(job.rel.SlotSpan(), n)
}

// runScansParallel fans the collection phase out to a sched worker
// pool. The job graph mirrors the plan's variable dependencies (an
// index- or value-list-building scan completes before any scan probing
// it starts); large shardable scans split into balanced slot-range
// shards followed by a merge job that absorbs shard results in shard
// order. Every scheduled job counts into its own sink; sinks fold into
// the execution's sink in job order after the pool drains, so the
// merged counters equal a serial run's exactly.
func (p *plan) runScansParallel(ctx context.Context) error {
	varJobs := map[string][]int{}
	for ji, job := range p.jobs {
		for _, v := range job.vars {
			varJobs[v] = append(varJobs[v], ji)
		}
	}

	// First pass: shard layout and each logical job's final sched id —
	// the id whose completion means the job's structures are ready.
	spans := make([][][2]int, len(p.jobs))
	finalID := make([]int, len(p.jobs))
	next := 0
	for ji, job := range p.jobs {
		spans[ji] = p.jobShardSpans(job)
		if n := len(spans[ji]); n > 1 {
			next += n + 1 // n shard scans + 1 merge
		} else {
			next++
		}
		finalID[ji] = next - 1
	}

	// Second pass: emit sched jobs. A logical job's dependencies are
	// the final ids of every job containing a variable its own
	// variables depend on (conservative at the var level, which also
	// covers the range lists filtered permanent-index probes consult).
	jobSinks := make([]*stats.Counters, len(p.jobs))
	sjobs := make([]sched.Job, 0, next)
	for ji := range p.jobs {
		job := p.jobs[ji]
		sink := &stats.Counters{}
		jobSinks[ji] = sink

		depSet := map[int]bool{}
		var deps []int
		for _, v := range job.vars {
			for d := range p.vars[v].deps {
				for _, dj := range varJobs[d] {
					if dj == ji {
						continue
					}
					if id := finalID[dj]; !depSet[id] {
						depSet[id] = true
						deps = append(deps, id)
					}
				}
			}
		}

		// Job spans open at emission time, so a parallel scan's span
		// includes its scheduler queue wait — deliberately: queueing is
		// part of what the trace is for.
		jsp := p.collSp.Start("scan " + job.rel.Name())
		if jsp != nil {
			p.jobSpans[ji] = jsp
		}

		if len(spans[ji]) <= 1 {
			jb := job
			sjobs = append(sjobs, sched.Job{
				Name: "scan " + jb.rel.Name(),
				Deps: deps,
				Run: func(ctx context.Context) error {
					defer jsp.End()
					return p.runScanJob(ctx, jb, sink)
				},
			})
			continue
		}
		jsp.SetInt("shards", int64(len(spans[ji])))
		mParallelShards.Add(int64(len(spans[ji])))

		shardIDs := make([]int, 0, len(spans[ji]))
		shardTasks := make([][]scanTask, len(spans[ji]))
		shardSinks := make([]*stats.Counters, len(spans[ji]))
		for si, span := range spans[ji] {
			tasks := make([]scanTask, len(job.tasks))
			for ti, t := range job.tasks {
				tasks[ti] = t.(shardableTask).shardClone()
			}
			shardTasks[si] = tasks
			shardSinks[si] = &stats.Counters{}
			jb, snk, lo, hi := job, shardSinks[si], span[0], span[1]
			shardIDs = append(shardIDs, len(sjobs))
			sjobs = append(sjobs, sched.Job{
				Name: fmt.Sprintf("scan %s [%d:%d)", jb.rel.Name(), lo, hi),
				Deps: deps,
				Run: func(ctx context.Context) error {
					ssp := jsp.Start(fmt.Sprintf("shard [%d:%d)", lo, hi))
					defer ssp.End()
					return p.scanSlotRangeBatch(ctx, jb, tasks, snk, lo, hi)
				},
			})
		}
		jb := job
		sjobs = append(sjobs, sched.Job{
			Name: "merge " + jb.rel.Name(),
			Deps: shardIDs,
			Run: func(context.Context) error {
				defer jsp.End()
				// One logical scan: the shards counted the tuples, the
				// merge counts the scan start, exactly once.
				sink.CountScan(jb.rel.Name())
				for si := range shardTasks {
					for ti, t := range jb.tasks {
						if err := t.(shardableTask).absorb(shardTasks[si][ti]); err != nil {
							return err
						}
					}
					sink.Merge(shardSinks[si])
				}
				for _, t := range jb.tasks {
					if err := t.finish(); err != nil {
						return err
					}
				}
				return nil
			},
		})
	}

	err := sched.Run(ctx, p.par, sjobs)
	// Deterministic merge: per-job sinks fold into the execution sink
	// in job order (the serial execution order), error or not.
	for _, snk := range jobSinks {
		p.st.Merge(snk)
	}
	return err
}
