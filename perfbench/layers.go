package main

// layerUnits lists every per-layer metric a traced run reports, with
// its unit. A layer a workload does not exercise reports 0; which
// end-to-end metric each one should move is in layers.json.
var layerUnits = map[string]string{
	"tpch.generate_s":            "s",
	"dfs.load_s":                 "s",
	"net.start_s":                "s",
	"query.bind_ms":              "ms",
	"optimizer.adapt_ms":         "ms",
	"optimizer.adapting_queries": "count",
	"optimizer.moved_rows":       "rows",
	"optimizer.trees_created":    "count",
	"planner.compile_ms":         "ms",
	"planner.joins.hyper":        "count",
	"planner.joins.shuffle":      "count",
	"planner.joins.semi-shuffle": "count",
	"planner.joins.combination":  "count",
	"planner.cache_hit_rate":     "fraction",
	"exec.drain_ms":              "ms",
	"exec.drain_adapting_ms":     "ms",
	"exec.drain_steady_ms":       "ms",
	"exec.scan_incl_ms":          "ms",
	"exec.join_incl_ms":          "ms",
	"exec.groupby_incl_ms":       "ms",
	"exec.scan_rows":             "rows",
	"exec.result_rows":           "rows",
	"exec.exch_remote_rows":      "rows",
	"exec.exch_mb":               "MB",
	"exec.spill_mb":              "MB",
	"exec.spill_rows":            "rows",
	"exec.spill_skip_ratio":      "fraction",
	"net.dispatch_ms":            "ms",
	"net.finish_ms":              "ms",
	"net.retries":                "count",
	"serve.queue_ms":             "ms",
	"serve.run_ms":               "ms",
	"serve.reserved_mb":          "MB",
	"serve.shed":                 "count",
	"session.other_ms":           "ms",
	"trace.coverage":             "fraction",
	"trace.overhead_qps":         "queries/s",
	"trace.overhead_p50_ms":      "ms",
}

// layerMetrics turns traced passes into per-layer metrics. Times and
// counts are per pass (the mean over passes), so the timed calls and
// session.other_ms add up to a pass's wall time times its clients.
// Set-up layers are medians over passes. The tracing overhead compares
// the traced passes with the untraced reference pass.
func layerMetrics(passes []*stream, ref *stream) map[string]metric {
	sums := map[string]float64{}
	var gen, load, start []float64
	var timedSum, clientWall float64
	for _, st := range passes {
		for k, v := range st.layers {
			sums[k] += v / float64(len(passes))
		}
		for _, a := range st.adapt {
			if a.Adapted() {
				sums["optimizer.adapting_queries"] += 1 / float64(len(passes))
			}
			sums["optimizer.moved_rows"] += float64(a.MovedRows) / float64(len(passes))
			sums["optimizer.trees_created"] += float64(a.CreatedTrees) / float64(len(passes))
		}
		for _, k := range timed {
			timedSum += st.layers[k]
		}
		clientWall += ms(st.wall) * float64(st.clients)
		gen = append(gen, st.setup.generate.Seconds())
		load = append(load, st.setup.load.Seconds())
		start = append(start, st.setup.start.Seconds())
	}
	sums["tpch.generate_s"] = median(gen)
	sums["dfs.load_s"] = median(load)
	sums["net.start_s"] = median(start)
	sums["session.other_ms"] = (clientWall - timedSum) / float64(len(passes))
	sums["trace.coverage"] = timedSum / clientWall
	if spilled := sums["exec.spill_rows"] + sums["exec.spill_skipped_rows"]; spilled > 0 {
		sums["exec.spill_skip_ratio"] = sums["exec.spill_skipped_rows"] / spilled
	}
	tracedQPS, tracedP50 := throughput(passes)
	refQPS, refP50 := throughput([]*stream{ref})
	sums["trace.overhead_qps"] = tracedQPS - refQPS
	sums["trace.overhead_p50_ms"] = tracedP50 - refP50

	out := make(map[string]metric, len(layerUnits))
	for name, unit := range layerUnits {
		out[name] = metric{sums[name], unit}
	}
	return out
}
