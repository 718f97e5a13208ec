package main

import (
	"fmt"
	"io"
	"strings"
)

// metricDef is one entry of the metric dictionary: every metric the
// benchmark can report, with the layer it belongs to, how it is measured,
// and — for per-layer metrics — which end-to-end metric on which workload
// it is expected to move. METRICS.md is generated from this table
// (go run . -dict) and a test keeps the two identical.
type metricDef struct {
	Name  string
	Unit  string
	Layer string
	// Better is "lower" or "higher".
	Better string
	// Kind is "e2e" for an end-to-end metric of an untraced run, "layer"
	// for a per-layer metric of a traced run.
	Kind string
	// Ledger marks the metrics BENCHMARK.json lists: the result line of a
	// run carries exactly these. Ledger end-to-end metrics apply to every
	// workload; the others are printed only where they apply.
	Ledger bool
	// Workloads lists where a non-ledger end-to-end metric applies.
	Workloads string
	How       string
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move.
	Moves string
}

// workloadDef describes one workload for METRICS.md: its traffic, data,
// working set relative to the program's caches, and why it is there.
type workloadDef struct {
	Name string
	// Ledger marks the workloads BENCHMARK.json lists.
	Ledger bool
	Run    func(*bench) error
	Desc   string
}

var workloadDefs = []workloadDef{
	{"drill_local", true, runDrill, "The paper's refinement loop (Figs. 11–16) on one process, through the one-shard local runner. " +
		"Per loop: count(px > q1) → hist2d(x, px) 64² → count(px > q2 && x > qx) → hist2d(x, px) at 256², 512² or 1024² " +
		"(1024² in 1 loop of 16, 512² in 3; every fourth fine view adaptive). Hit fractions come from per-step quantiles and span " +
		"1e-5 … 0.5, the Fig. 12 axis; one count in 8 uses backend=scan; after every third fresh request a client re-sends one of its " +
		"last eight compound requests with conjuncts and parameters reordered, so a quarter of requests should hit the result cache. " +
		"Data: 8 steps × ~100k rows of a seeded lwfagen-style run, 52 MB of column files and ~23 MB of bitmap index. " +
		"Working set: 1024 loops = 4096 distinct requests, 16× the 256-entry result cache; a 30 s run walks the pool about two and a half times, " +
		"and a request asked again on the next walk has long left the cache. " +
		"fastbit, scan, colstore and histogram do nearly all the work and no RPC is involved, so a wire-format change should not move it."},
	{"drill_sharded", true, runDrill, "The same seeded stream sent to a frontend over 3 in-process shard workers on loopback net/rpc " +
		"(qserve's shard admission gate, 1024-entry fragment cache per shard). It isolates plan scatter/merge, fragment " +
		"encode/checksum/transit/decode and the fragment caches; a loop leaves ~6 fragments on every shard, so the pool is ~6× each " +
		"shard's cache. Every distinct answer is compared with the one-process server's body for the same request. " +
		"Its peak memory (~1.7 GB) comes from the entry-bounded caches holding 512² and 1024² partials on every shard."},
	{"ingest_live", false, runIngest, "Writes beside reads. A live catalog is seeded with 3 steps of ~50k rows; client 0 appends one seeded " +
		"step every 500 ms through POST /v1/ingest (3.6 MB of columns, ~8 MB of JSON) and polls /v1/steps until it is indexed " +
		"client 1 replays the drill stream against the newest indexed step, so reads rarely repeat. " +
		"Commits, background index builds and generation-keyed cache invalidation share the CPU with queries; every answer is " +
		"checked afterwards against the scan backend over the committed files. Not in the ledger: the time allowed for all ledger runs " +
		"(4 + 22 per workload) holds 30 s runs of two workloads but only ~20 s runs of three, and on a 2-vCPU VM whose host steal " +
		"varied from 0 to 30% the 10 s runs of this workload spread up to 0.29 in latency_p50_ms. Its layers stay measured: every traced run times " +
		"ingest.Writer.AppendStep and ingest.Builder.BuildStep, and ingest_p50_ms and index_lag_p50_ms are printed when it runs."},
	{"session_sharded", false, runSession, "Analysis sessions on 3 shards. Each client loops: create a session, three count probes narrowing " +
		"to the brush, 64² and 256² context views, brush select (selectivity stratified over 1e-3 … 0.3), five refinements " +
		"alternating and/andnot/or, track across all 8 steps, JSON views, one PNG temporal parallel-coordinates view (3 axes), delete. " +
		"The result cache is bypassed; each session fits the fragment caches. Every loop is replayed on one process and must give " +
		"the same matches, expressions, tracked ID sets and panels (pixels on every fourth loop). Not in the ledger: a loop takes " +
		"~0.8 s, the PNG view ~0.5 s of it, so a 10 s run completes ~25 loops and its medians moved by 12–30% between runs of one seed."},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

const allWorkloads = "drill_local, drill_sharded, ingest_live (and session_sharded)"

var metricDefs = []metricDef{
	// End-to-end, in the ledger: measured on every workload.
	{Name: "setup_s", Unit: "s", Layer: "e2e", Better: "lower", Kind: "e2e", Ledger: true,
		How: "median of the set-ups of a run (at least 5, and until 2 s were spent, at most 15); each is index build + server/shard start and dial + a warm-up pass over every step (lazy index loads, column reads); data generation and oracle excluded"},
	{Name: "throughput_rps", Unit: "1/s", Layer: "e2e", Better: "higher", Kind: "e2e", Ledger: true,
		How: "successful requests completed by the 2 closed-loop clients per second: median over the quiet 1 s slices of the window (see latency_p50_ms)"},
	{Name: "latency_p50_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Ledger: true,
		How: "client-observed latency (send → last body byte) of all requests: median, over the quiet 1 s slices of the window, of each slice's median; a slice is quiet if the host stole at most 5% of the CPU time in it (/proc/stat), and when fewer than a third are, the third with the least steal counts; sample count printed"},

	{Name: "count_p50_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Ledger: true,
		How: "latency of /v1/query counts (drill coarse and compound cuts; session brush probes), median of the slice medians"},
	{Name: "hist2d_p50_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Ledger: true,
		How: "latency of /v1/hist2d (64² to 1024² drill views; 64² and 256² session context views), median of the slice medians"},
	{Name: "rss_peak_mb", Unit: "MB", Layer: "e2e", Better: "lower", Kind: "e2e", Ledger: true,
		How: "peak of the Go runtime's mapped-and-not-released memory (runtime/metrics), sampled every 20 ms during the window; server, shards and clients share the process"},

	// End-to-end, printed on the workloads they apply to.
	{Name: "latency_p95_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Workloads: allWorkloads,
		How: "95th percentile over the whole window (≥ 1000 samples on the drill and ingest workloads, so ≥ 50 beyond it); not in the ledger: its run-to-run spread reached 0.13 on drill_sharded and 0.18–0.36 on ingest_live, above a third of any allowed bound"},
	{Name: "hist2d_p95_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Workloads: allWorkloads,
		How: "95th percentile /v1/hist2d latency over the whole window; not in the ledger: it sits where the 512² and 1024² views meet, and its run-to-run spread on drill_sharded was 0.26–0.53"},
	{Name: "select_p50_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Workloads: "session_sharded",
		How: "latency of POST /v1/session/{id}/select (brush and the 5 refinements), median of the slice medians"},
	{Name: "track_p50_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Workloads: "session_sharded",
		How: "latency of POST /v1/session/{id}/track across all steps, median of the slice medians"},
	{Name: "views_p50_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Workloads: "session_sharded",
		How: "latency of GET /v1/session/{id}/views (JSON panels), median of the slice medians"},
	{Name: "render_p50_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Workloads: "session_sharded",
		How: "latency of GET /v1/session/{id}/views?format=png (temporal parallel coordinates), median of the slice medians"},
	{Name: "ingest_p50_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Workloads: "ingest_live",
		How: "POST /v1/ingest round trip, i.e. the durable commit, median of the slice medians"},
	{Name: "index_lag_p50_ms", Unit: "ms", Layer: "e2e", Better: "lower", Kind: "e2e", Workloads: "ingest_live",
		How: "median time from commit ack until /v1/steps reports the step indexed (served by fastbit), polled every 5 ms"},
	{Name: "failed_frac", Unit: "ratio", Layer: "e2e", Better: "lower", Kind: "e2e", Workloads: allWorkloads,
		How: "failed or shed requests ÷ attempted; 0 at 2 clients, so it is carried by the result line's attempted/failed fields rather than bounded"},

	// Per-layer metrics of the traced run.
	{Name: "serve.cache.hit_ratio", Unit: "ratio", Layer: "serve", Better: "higher", Kind: "layer", Ledger: true,
		How: "Δhits ÷ Δ(hits+misses) of /v1/stats cache over the traced pass", Moves: "latency_p50_ms, throughput_rps on drill_*"},
	{Name: "serve.cache.coalesced", Unit: "count", Layer: "serve", Better: "higher", Kind: "layer", Ledger: true,
		How: "Δcoalesced of /v1/stats cache over the traced pass", Moves: "latency_p50_ms, throughput_rps on drill_*"},
	{Name: "serve.admit.wait_ms", Unit: "ms", Layer: "serve", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean explain admission_wait_ms per request", Moves: "latency_p95_ms on all workloads"},
	{Name: "serve.shed_frac", Unit: "ratio", Layer: "serve", Better: "lower", Kind: "layer", Ledger: true,
		How: "Δ(rejected_queue_full+rejected_deadline) of /v1/stats admission ÷ traced requests", Moves: "failed_frac"},
	{Name: "serve.encode_ms", Unit: "ms", Layer: "serve", Better: "lower", Kind: "layer", Ledger: true,
		How: "json.Marshal of sampled response bodies decoded into the serve body types, mean per body", Moves: "hist2d_p50_ms on drill_*"},
	{Name: "serve.body_bytes", Unit: "bytes", Layer: "serve", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean response body size of the untraced half of the run", Moves: "hist2d_p50_ms on drill_*"},
	{Name: "query.parse_ms", Unit: "ms", Layer: "query", Better: "lower", Kind: "layer", Ledger: true,
		How: "query.Parse + query.Canonical + String on sampled predicates, mean per predicate", Moves: "count_p50_ms on drill_local"},
	{Name: "plan.rounds_per_req", Unit: "count", Layer: "plan", Better: "lower", Kind: "layer", Ledger: true,
		How: "Δ serve scatter counter (/v1/stats sharding.scatters) ÷ traced requests; 0 on one process", Moves: "hist2d_p50_ms on drill_sharded; track_p50_ms, views_p50_ms on session_sharded"},
	{Name: "plan.fragments_per_req", Unit: "count", Layer: "plan", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean explain fragment_count per request", Moves: "hist2d_p50_ms on drill_sharded"},
	{Name: "plan.merge_ms", Unit: "ms", Layer: "plan", Better: "lower", Kind: "layer", Ledger: true,
		How: "self time of a plan.execute span (plan.Execute over a runner wrapping the workload's shard.Client or shard.Eval) minus its fragment child spans, mean per sampled request", Moves: "hist2d_p50_ms on drill_sharded"},
	{Name: "plan.unattributed_ms", Unit: "ms", Layer: "plan", Better: "lower", Kind: "layer", Ledger: true,
		How: "explain elapsed − admission wait − Σ over rounds of the slowest fragment's eval+wait, mean over computed requests; a round ends when a shard repeats", Moves: "hist2d_p95_ms on drill_sharded"},
	{Name: "shard.eval_ms", Unit: "ms", Layer: "shard", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean Σ explain fragment eval_ms per request", Moves: "count_p50_ms, hist2d_p50_ms on all workloads"},
	{Name: "shard.queue_ms", Unit: "ms", Layer: "shard", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean Σ explain fragment wait_ms (shard-side admission) per request", Moves: "latency_p95_ms on *_sharded"},
	{Name: "shard.rpc_overhead_ms", Unit: "ms", Layer: "shard", Better: "lower", Kind: "layer", Ledger: true,
		How: "shard.Client.RunFragment wall time − shard-reported eval+wait, mean per sampled fragment; 0 on one process", Moves: "hist2d_p50_ms on drill_sharded, select_p50_ms and track_p50_ms on session_sharded, no change on drill_local"},
	{Name: "shard.reply_bytes", Unit: "bytes", Layer: "shard", Better: "lower", Kind: "layer", Ledger: true,
		How: "gob size of the sampled fragment results returned over RPC, mean per fragment; 0 on one process", Moves: "hist2d_p50_ms on drill_sharded, select_p50_ms and track_p50_ms on session_sharded, no change on drill_local"},
	{Name: "shard.frag_cache.hit_ratio", Unit: "ratio", Layer: "shard", Better: "higher", Kind: "layer", Ledger: true,
		How: "Δhits ÷ Δ(hits+misses) summed over the shard executors' Stats(); 0 on one process", Moves: "latency_p50_ms on *_sharded"},
	{Name: "fastbit.eval_ms", Unit: "ms", Layer: "fastbit", Better: "lower", Kind: "layer", Ledger: true,
		How: "fastquery Step.CountCtx with the fastbit backend on sampled predicates, mean", Moves: "count_p50_ms on drill_local"},
	{Name: "fastbit.bitmap_ops", Unit: "count", Layer: "fastbit", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean explain totals.bitmap_ops per request", Moves: "count_p50_ms on drill_local"},
	{Name: "fastbit.candidate_checks", Unit: "count", Layer: "fastbit", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean explain totals.candidate_checks per request", Moves: "count_p50_ms on drill_local"},
	{Name: "fastbit.index_bytes", Unit: "bytes", Layer: "fastbit", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean explain totals.index_bytes per request", Moves: "count_p50_ms on drill_local"},
	{Name: "fastbit.candidate_hit_ratio", Unit: "ratio", Layer: "fastbit", Better: "higher", Kind: "layer", Ledger: true,
		How: "Σ matches ÷ Σ candidate checks of the sampled fastbit counts (obs.Cost)", Moves: "hist2d_p50_ms on drill_local"},
	{Name: "fastbit.index_loads", Unit: "count", Layer: "fastbit", Better: "lower", Kind: "layer", Ledger: true,
		How: "Σ explain totals.index_loads over the last set-up's warm-up pass", Moves: "setup_s"},
	{Name: "fastbit.speedup_lowhit", Unit: "ratio", Layer: "fastbit", Better: "higher", Kind: "layer", Ledger: true,
		How: "scan ÷ fastbit CountCtx time at hit fraction 1e-4 on the middle step (median of 5 each); > 1 is the Fig. 12 ordering", Moves: "count_p50_ms on drill_local"},
	{Name: "fastbit.speedup_fullhit", Unit: "ratio", Layer: "fastbit", Better: "higher", Kind: "layer", Ledger: true,
		How: "scan ÷ fastbit CountCtx time at hit fraction 1.0 on the middle step (median of 5 each)", Moves: "count_p50_ms on drill_local"},
	{Name: "scan.eval_ms", Unit: "ms", Layer: "scan", Better: "lower", Kind: "layer", Ledger: true,
		How: "fastquery Step.CountCtx with the scan backend on sampled predicates, mean", Moves: "count_p50_ms on drill_local"},
	{Name: "scan.rows_scanned", Unit: "count", Layer: "scan", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean explain totals.rows_scanned per request", Moves: "count_p50_ms on drill_local"},
	{Name: "colstore.read_ms", Unit: "ms", Layer: "colstore", Better: "lower", Kind: "layer", Ledger: true,
		How: "fastquery Step.ReadColumn(px) on sampled steps, mean", Moves: "hist2d_p50_ms on drill_local"},
	{Name: "colstore.data_bytes", Unit: "bytes", Layer: "colstore", Better: "lower", Kind: "layer", Ledger: true,
		How: "mean explain totals.data_bytes per request", Moves: "hist2d_p50_ms on drill_local"},
	{Name: "colstore.gather_ms", Unit: "ms", Layer: "colstore", Better: "lower", Kind: "layer", Ledger: true,
		How: "fastquery Step.ValuesAt(x) at the sampled predicates' selected positions, mean", Moves: "hist2d_p50_ms (narrow cuts) on drill_local, select_p50_ms on session_sharded"},
	{Name: "histogram.bin_ms", Unit: "ms", Layer: "histogram", Better: "lower", Kind: "layer", Ledger: true,
		How: "histogram.Compute2D(x, px) at 1024² over the sampled predicates' selected values, mean", Moves: "hist2d_p50_ms on drill_local"},
	{Name: "session.combine_ms", Unit: "ms", Layer: "session", Better: "lower", Kind: "layer", Ledger: true,
		How: "session.Combine (and, andnot, or) of WAH bitmaps built from sampled predicates, mean per call", Moves: "select_p50_ms on session_sharded"},
	{Name: "session.reuse_ratio", Unit: "ratio", Layer: "session", Better: "higher", Kind: "layer",
		How: "Δrefine_reuse ÷ Δ(refine_reuse+refine_scratch) of /v1/stats sessions; 0 without sessions", Moves: "select_p50_ms on session_sharded"},
	{Name: "session.bytes", Unit: "bytes", Layer: "session", Better: "lower", Kind: "layer",
		How: "mean size_bytes of stored selections in select responses; 0 without sessions", Moves: "rss_peak_mb"},
	{Name: "render.png_ms", Unit: "ms", Layer: "render", Better: "lower", Kind: "layer", Ledger: true,
		How: "pcoords Plot.Render + PNG encode of a 4-axis, 2-layer histogram plot built from sampled predicates, mean", Moves: "render_p50_ms on session_sharded"},
	{Name: "ingest.append_ms", Unit: "ms", Layer: "ingest", Better: "lower", Kind: "layer", Ledger: true,
		How: "ingest.Writer.AppendStep of seeded steps into a scratch catalog, mean", Moves: "ingest_p50_ms on ingest_live"},
	{Name: "ingest.bytes_per_user_byte", Unit: "ratio", Layer: "ingest", Better: "lower", Kind: "layer", Ledger: true,
		How: "committed data-file bytes ÷ raw column bytes (rows × columns × 8) of the same appends", Moves: "ingest_p50_ms on ingest_live"},
	{Name: "ingest.build_ms", Unit: "ms", Layer: "ingest", Better: "lower", Kind: "layer", Ledger: true,
		How: "ingest.Builder.BuildStep of the appended steps, mean", Moves: "index_lag_p50_ms on ingest_live"},
	{Name: "runtime.alloc_bytes_per_req", Unit: "bytes", Layer: "runtime", Better: "lower", Kind: "layer", Ledger: true,
		How: "Δ runtime TotalAlloc over the traced pass ÷ its requests (server, shards and clients share the process)", Moves: "latency_p95_ms on all workloads"},
	{Name: "trace.overhead_frac", Unit: "ratio", Layer: "trace", Better: "lower", Kind: "layer", Ledger: true,
		How: "traced-half latency_p50_ms ÷ untraced-half latency_p50_ms − 1 (explain on every traced request)", Moves: "none; it bounds how far traced numbers may be trusted"},
}

// ledgerNames returns the metric names a run reports on its result line
// in the given mode: the ledger's end-to-end metrics untraced, its
// per-layer metrics traced.
func ledgerNames(trace bool) []string {
	var out []string
	for _, d := range metricDefs {
		if d.Ledger && (d.Kind == "layer") == trace {
			out = append(out, d.Name)
		}
	}
	return out
}

func defByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// writeDictionary renders METRICS.md.
func writeDictionary(w io.Writer) {
	fmt.Fprint(w, dictHeader)
	fmt.Fprintln(w, "\n## Workloads")
	for _, wd := range workloadDefs {
		ledger := ""
		if !wd.Ledger {
			ledger = " (not in the ledger)"
		}
		fmt.Fprintf(w, "\n**`%s`**%s. %s\n", wd.Name, ledger, wd.Desc)
	}
	fmt.Fprintln(w, "\n## End-to-end metrics (untraced runs, `--trace 0`)")
	fmt.Fprintln(w, "\n| name | unit | better | in ledger | applies to | how it is measured |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|")
	for _, d := range metricDefs {
		if d.Kind != "e2e" {
			continue
		}
		where := d.Workloads
		if d.Ledger {
			where = allWorkloads
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Better, yesNo(d.Ledger), where, cell(d.How))
	}
	fmt.Fprintln(w, "\n## Per-layer metrics (traced runs, `--trace 1`)")
	fmt.Fprintln(w, "\n| name | unit | layer | better | in ledger | should move | how it is measured |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|")
	for _, d := range metricDefs {
		if d.Kind != "layer" {
			continue
		}
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s | %s | %s |\n", d.Name, d.Unit, d.Layer, d.Better, yesNo(d.Ledger), cell(d.Moves), cell(d.How))
	}
}

func cell(s string) string { return strings.ReplaceAll(s, "|", "\\|") }

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

const dictHeader = `# perfbench metric dictionary

Generated by ` + "`cd perfbench && go run . -dict > METRICS.md`" + `; ` + "`go test`" + ` in
this directory fails when this file and the table in defs.go disagree.
BENCHMARK.json lists the ledger's workloads and metrics with their
bounds; this file adds what its fixed keys cannot hold: how each metric
is measured, which end-to-end metric and workload each per-layer metric
should move, and each workload's data and working set. The measured
run-to-run spreads are in SPREADS.md.

## Running

From the repository root:

    bash perfbench/run.sh --workload drill_local --seed 1 --seconds 30 --trace 0

The script builds the benchmark into ` + "`.bench_build/`" + ` and runs it. The last
line of standard output is the JSON result; the lines before it print
every metric by name with its unit and sample count. ` + "`--trace 1`" + ` runs the
traced variant and reports the per-layer metrics instead. Workloads:
` + "`drill_local`, `drill_sharded` (the ledger), `ingest_live`, `session_sharded`" + `.

To verify a claimed gain on a held-out seed, pick a seed nobody tuned on
(any unsigned integer) and run parent and change alternately with it:

    for s in 9001 9002 9003; do bash perfbench/run.sh --workload drill_sharded --seed $s --seconds 30 --trace 0; done

The seed fixes the dataset (` + "`sim`" + ` run), the request pool and every
threshold; the program only sees the generated requests. A run exits
non-zero, without a result line, if any answer disagrees with its
oracle (scan-backend counts, the one-process body for sharded answers,
the one-process replay of every session). Spans of a traced run are
written to ` + "`.bench_build/traces/<workload>-<seed>.json`" + `.

` + "`--smoke`" + ` runs a tiny dataset for a second (the benchmark's own tests use it);
` + "`--corrupt`" + ` perturbs one expected answer so the gate must fire.
`
