// EXPLAIN ANALYZE for the /v1 query endpoints (DESIGN.md §13): with
// ?explain=1 the response carries an "explain" block — plan, bucket
// coverage, cache disposition, recovery provenance, per-stage timings,
// and in cluster mode the per-shard breakdown — alongside the result,
// which stays byte-identical to an unexplained request. The explain
// machinery only observes: the carrier on the context collects what the
// layers record, and the one extra computation (the live ring's
// coverage walk) runs in counting-only dry mode.
package main

import (
	"context"
	"net/http"
	"time"

	"geomob/internal/cluster"
	"geomob/internal/core"
	"geomob/internal/live"
	"geomob/internal/obs"
)

// execV1 runs req through executeCached, honouring ?explain=1. The
// returned block is nil unless explain was requested and the execution
// succeeded; handlers attach it under the "explain" response key.
func (s *server) execV1(r *http.Request, req core.Request) (*core.Result, bool, map[string]any, error) {
	ctx := r.Context()
	if r.URL.Query().Get("explain") != "1" {
		res, cached, err := s.executeCached(ctx, req)
		return res, cached, nil, err
	}
	ex := obs.NewExplain()
	res, cached, err := s.executeCached(obs.WithExplain(ctx, ex), req)
	if err != nil {
		return res, cached, nil, err
	}
	return res, cached, s.explainBlock(ctx, req, ex), nil
}

// cachedGet is the snapshot-cache lookup of one executeCached path,
// recording the cache disposition (source, hit/miss, coverage key) into
// any explain carrier on ctx. The key and the computation are exactly
// what the unexplained path uses — recording happens after the fact.
func (s *server) cachedGet(ctx context.Context, key, source, ckey string, compute func() (*core.Result, error)) (*core.Result, bool, error) {
	res, hit, err := s.cache.Get(key, compute)
	if err == nil {
		disp := map[string]any{"source": source, "hit": hit}
		if ckey != "" {
			disp["coverage_key"] = ckey
		}
		obs.ExplainFrom(ctx).Set("cache", disp)
	}
	return res, hit, err
}

// explainBlock assembles the explain response block from the request
// plan, the live ring's dry coverage walk, the recovery provenance, the
// trace's stage timings, and whatever the execution layers recorded
// into the carrier.
func (s *server) explainBlock(ctx context.Context, req core.Request, ex *obs.Explain) map[string]any {
	blk := map[string]any{}
	if tr := obs.TraceFrom(ctx); tr != nil {
		blk["trace_id"] = tr.ID
		if st := tr.Stages(); len(st) > 0 {
			blk["stages"] = st
		}
	}
	if info, err := core.PlanRequest(req); err == nil {
		plan := map[string]any{"analyses": info.Analyses}
		if len(info.Scales) > 0 {
			plan["scales"] = info.Scales
			plan["radius_m"] = info.ScaleRadius
		}
		win := map[string]any{"from": "unbounded", "to": "unbounded"}
		if !req.From.IsZero() {
			win["from"] = req.From.UTC().Format(time.RFC3339)
		}
		if !req.To.IsZero() {
			win["to"] = req.To.UTC().Format(time.RFC3339)
		}
		plan["window"] = win
		blk["plan"] = plan
	}
	secs := ex.Sections()
	cacheSec, _ := secs["cache"].(map[string]any)
	if cacheSec == nil {
		cacheSec = map[string]any{}
	}
	if ce, ok := secs["cluster"].(cluster.ClusterExplain); ok {
		blk["cluster"] = ce
		cacheSec["coverage_fingerprint"] = ce.Fingerprint
		if len(ce.Shards) > 0 {
			var total live.FoldCoverage
			for _, sh := range ce.Shards {
				total.Merge(sh.Coverage)
			}
			blk["coverage"] = total
		}
	}
	blk["cache"] = cacheSec
	if s.coord == nil {
		// The dry coverage walk answers for hits and misses alike: the
		// coverage key in the cache key pins the served entry to exactly
		// the bucket revisions the walk sees now. Ring-scan fallback
		// shapes have no bucket coverage (the walk answers
		// live.ErrNotCovered); the cache section's source already says
		// ring_scan.
		if cov, err := s.agg.ExplainCoverage(req); err == nil {
			blk["coverage"] = cov
		}
	}
	if s.snaps != nil {
		blk["recovery"] = s.recovery
	}
	return blk
}
