//! End-to-end and per-layer benchmark of the Free Join workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload job|lsqb --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run sets up its workload several times, some before measuring and
//! some spread over the engine phase (reporting the median as `setup_s`),
//! measures an engine phase and served phases, and checks every answer. With `--trace 0` it prints the end-to-end metrics; with
//! `--trace 1` it calls the layers one at a time under spans, prints the
//! per-layer metrics and writes the spans to `perfbench/out/` as Chrome
//! trace-event JSON. The last line of standard output is the JSON result.
//! See `README.md` for the workloads, metrics and predictions.

mod data;
mod engines;
mod reference;
mod serve;
mod spans;
mod stats;

use data::{Dataset, Kind, Rng};
use reference::Reference;
use serve::{Mix, Req, Served};
use spans::Recorder;
use stats::{geomean, iqr_share, median, quartiles, tail, valid_metric_name};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups before measuring starts.
const SETUP_FIRST: usize = 3;
/// Further set-ups of an untraced run, spread evenly over its engine phase so
/// that `setup_s`, the median of all, samples the machine's speed over the
/// whole run rather than over its first second.
const SETUP_SPREAD: usize = 8;
/// Closed-loop time used to measure the served capacity.
const CAPACITY_PROBE: Duration = Duration::from_secs(2);
/// Share of `--seconds` given to the engine phase; the served phases get
/// the rest.
const ENGINE_SHARE: f64 = 0.65;
/// Share of the served time given to the open-loop `low` rate in untraced
/// runs; the paired phase gets the rest.
const LOW_SHARE: f64 = 0.3;

/// The end-to-end metrics (`--trace 0`), as `BENCHMARK.json` lists them.
const END_TO_END: [&str; 7] = [
    "exec_ref_x",
    "served_ref_x",
    "speedup_vs_binary",
    "speedup_vs_generic",
    "cold_overhead_x",
    "scaling_2t",
    "setup_s",
];

/// The per-layer metrics (`--trace 1`), as `BENCHMARK.json` lists them.
const PER_LAYER: [&str; 48] = [
    "fj-plan.stats_ms",
    "fj-plan.optimize_ms",
    "free-join.compile_ms",
    "fj-storage.select_ms",
    "fj-storage.select_rows_in",
    "fj-storage.select_rows_out",
    "free-join.trie.build_ms",
    "free-join.trie.maps_built",
    "free-join.trie.lazy_expansions",
    "free-join.trie.bytes",
    "free-join.exec.probe_ms",
    "free-join.exec.probes",
    "free-join.exec.probe_hit_ratio",
    "free-join.exec.output_tuples",
    "free-join.exec.tuples_per_s",
    "free-join.exec.result_chunks",
    "free-join.exec.aggregate_ms",
    "free-join.sched.tasks_spawned",
    "free-join.sched.tasks_stolen",
    "free-join.sched.max_worker_share",
    "free-join.sched.parallel_efficiency",
    "free-join.session.prepare_ms",
    "free-join.session.exec_hot_ms",
    "free-join.session.exec_fresh_ms",
    "fj-cache.plan_hit_ratio",
    "fj-cache.trie_hit_ratio",
    "fj-cache.trie_misses",
    "fj-cache.coalesced",
    "fj-cache.evictions",
    "fj-cache.resident_bytes",
    "fj-query.parse_query_us",
    "fj-query.parse_filter_us",
    "fj-serve.service_us_p50",
    "fj-serve.service_us_p99",
    "fj-serve.wire_us_p50",
    "fj-serve.gen_late_ms_p99",
    "fj-serve.rejected",
    "fj-serve.errors",
    "fj-obs.profile_overhead_pct",
    "fj-obs.profile_overhead_iqr_pct",
    "fj-baselines.binary_ms_geomean",
    "fj-baselines.generic_ms_geomean",
    "fj-baselines.binary_build_ms",
    "fj-baselines.binary_join_ms",
    "fj-baselines.generic_build_ms",
    "fj-baselines.generic_join_ms",
    "unattributed_ms",
    "bench.trace_overhead_pct",
];

/// Operations attempted and failed, with the first few failures kept for
/// the report.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed: a wrong answer, an error, a `Busy` rejection.
    pub failed: u64,
    /// The first failures, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; it succeeds when it answered `want`.
    pub fn check(
        &mut self,
        query: &str,
        engine: &str,
        got: Result<u64, String>,
        want: u64,
    ) -> bool {
        self.attempted += 1;
        let note = match got {
            Ok(c) if c == want => return true,
            Ok(c) => format!("{query} on {engine}: {c} rows, expected {want}"),
            Err(e) => format!("{query} on {engine}: {e}"),
        };
        self.failed += 1;
        if self.notes.len() < 10 {
            self.notes.push(note);
        }
        false
    }
}

struct Args {
    kind: Kind,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                // The served phases draw never-seen windows in proportion to
                // their length; a minute stays far inside every template's
                // supply.
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    Ok(Args {
        kind,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Metrics in print order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "metric name {name}");
        self.0.push((name.to_string(), value, unit));
    }
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let all_finite = metrics.0.iter().all(|(_, v, _)| v.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0 && all_finite,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ =
            write!(out, "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value));
    }
    out.push_str("}}");
    out
}

/// Everything one set-up produces.
struct Setup {
    data: Dataset,
    catalog: Arc<fj_storage::Catalog>,
    plans: Vec<fj_plan::BinaryPlan>,
    mix: Mix,
    served: Served,
}

/// Generate the dataset, plan the suite, start the server, prepare the
/// templates and warm the hot set.
fn set_up(kind: Kind, seed: u64) -> Result<Setup, String> {
    let mut data = data::generate(kind, seed);
    let catalog = Arc::new(std::mem::take(&mut data.catalog));
    let plans = engines::shared_plans(&catalog, &data.suite);
    let mix = Mix::new(&data.templates, seed ^ 0x5eed)?;
    let served = serve::start(Arc::clone(&catalog), &data.templates, &mix)?;
    Ok(Setup { data, catalog, plans, mix, served })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload job|lsqb --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Time one set-up, then stop its server.
fn timed_set_up(kind: Kind, seed: u64) -> Result<f64, String> {
    let start = Instant::now();
    let setup = set_up(kind, seed)?;
    let secs = start.elapsed().as_secs_f64();
    setup.served.stop();
    Ok(secs)
}

fn run(args: &Args) -> Result<String, String> {
    let origin = Instant::now();
    let mut setup_times = Vec::new();
    for _ in 1..SETUP_FIRST {
        setup_times.push(timed_set_up(args.kind, args.seed)?);
    }
    let start = Instant::now();
    let Setup { data, catalog, plans, mut mix, mut served } = set_up(args.kind, args.seed)?;
    setup_times.push(start.elapsed().as_secs_f64());
    let reference = Reference::new();
    let expected = engines::reference_cardinalities(&catalog, &data.suite)?;
    let templates = &data.templates;
    let mut rng = Rng::new(args.seed ^ 0xa221_7a15);
    let engine_budget = Duration::from_secs_f64(args.seconds * ENGINE_SHARE);
    let serve_budget = args.seconds * (1.0 - ENGINE_SHARE);

    let mut tally = Tally::default();
    let mut checker = serve::Checker::new(&catalog, templates)?;
    let samples = if args.trace {
        None
    } else {
        // The k-th spread set-up runs after the first query that ends past
        // k / (SETUP_SPREAD + 1) of the engine budget.
        let engine_start = Instant::now();
        let mut spread_err = None;
        let mut between = || {
            let done = setup_times.len() - SETUP_FIRST;
            let due = engine_budget.mul_f64((done + 1) as f64 / (SETUP_SPREAD + 1) as f64);
            if done < SETUP_SPREAD && spread_err.is_none() && engine_start.elapsed() >= due {
                match timed_set_up(args.kind, args.seed) {
                    Ok(secs) => setup_times.push(secs),
                    Err(e) => spread_err = Some(e),
                }
            }
        };
        let s = engines::run(
            &catalog,
            &data.suite,
            &plans,
            &expected,
            &reference,
            engine_budget,
            &mut tally,
            &mut between,
        );
        if let Some(e) = spread_err {
            return Err(e);
        }
        Some(s)
    };
    let setup_s = median(&setup_times);
    let (cap, cap_records) = serve::capacity(&mut served, templates, &mut mix, CAPACITY_PROBE)?;
    checker.check(&cap_records, &mut tally);
    let mut report = vec![format!(
        "workload {} seed {}: {} input rows, {} suite queries, {} served templates; {} cores available; setup {:.3} s (median of {}, IQR share {:.3}); served capacity {:.0} req/s",
        args.workload,
        args.seed,
        catalog.total_rows(),
        data.suite.len(),
        templates.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        setup_s,
        setup_times.len(),
        iqr_share(&setup_times),
        cap
    )];
    let mut metrics = Metrics::default();
    if args.trace {
        traced(
            args,
            &catalog,
            &data,
            &expected,
            &mut served,
            &mut mix,
            &mut rng,
            &mut checker,
            cap,
            engine_budget,
            serve_budget,
            origin,
            &mut tally,
            &mut metrics,
            &mut report,
        )?;
    } else {
        metrics.put("setup_s", setup_s, "s");
        let samples = samples.expect("untraced runs run the engine phase");
        let s = engines::summarize(&samples);
        metrics.put("speedup_vs_binary", s.speedup_vs_binary, "x");
        metrics.put("speedup_vs_generic", s.speedup_vs_generic, "x");
        metrics.put("cold_overhead_x", s.cold_overhead_x, "x");
        metrics.put("scaling_2t", s.scaling_2t, "x");
        metrics.put("exec_ref_x", s.exec_ref_x, "x");
        report.push(format!(
            "times (reported, not gated): cold_ms_geomean {:.3} ms, exec_ms_geomean {:.3} ms, exec_ms_geomean_2t {:.3} ms, exec_s_total {:.4} s; reference join {:.3} ms",
            s.cold_ms_geomean, s.exec_ms_geomean, s.exec_ms_geomean_2t, s.exec_s_total, s.reference_ms
        ));
        report.push(format!(
            "engine phase: {} rounds over {} queries",
            samples.rounds,
            data.suite.len()
        ));
        report.extend(paper_reference(args.kind, &s, &samples, &data));

        let duration = Duration::from_secs_f64(serve_budget * LOW_SHARE);
        let offered = serve::LOW_LOAD * cap;
        let schedule = serve::poisson(&mut mix, &mut rng, offered, duration)?;
        let (records, _) = served.drive(templates, &schedule, None, None);
        checker.check(&records, &mut tally);
        report.push(rate_line(
            "low",
            serve::LOW_LOAD,
            offered,
            &serve::summarize_rate(&records, duration),
        ));

        let duration = Duration::from_secs_f64(serve_budget * (1.0 - LOW_SHARE));
        let (records, refs) =
            serve::paired(&mut served, templates, &mut mix, &reference, duration, &mut tally)?;
        checker.check(&records, &mut tally);
        let served_ref_x = serve::served_ref_x(&records, &refs);
        metrics.put("served_ref_x", served_ref_x, "x");
        let round_trips: Vec<f64> = records.iter().map(|r| r.round_trip_us() / 1e3).collect();
        report.push(format!(
            "paired: {} requests on one connection, each after a reference join; round trip median {:.3} ms, reference median {:.3} ms, served_ref_x {:.4}",
            records.len(),
            median(&round_trips),
            median(&refs),
            served_ref_x
        ));
    }
    let server_stats = served.stop();
    report.push(format!(
        "server: {} served, {} rejected, {} errors",
        server_stats.served,
        server_stats.rejected(),
        server_stats.errors
    ));
    report.push(format!("operations: {} attempted, {} failed", tally.attempted, tally.failed));
    for note in &tally.notes {
        report.push(format!("FAILED {note}"));
    }
    let mut emitted: Vec<&str> = metrics.0.iter().map(|(n, _, _)| n.as_str()).collect();
    let mut declared: Vec<&str> = if args.trace { PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
    emitted.sort_unstable();
    declared.sort_unstable();
    if emitted != declared {
        return Err(format!("emitted metrics {emitted:?} differ from the declared {declared:?}"));
    }
    for line in &report {
        println!("{line}");
    }
    for (name, value, unit) in &metrics.0 {
        println!("  {name:<40} {value:>14.4} {unit}");
    }
    Ok(result_json(&tally, &metrics))
}

/// One report line for an open-loop rate.
fn rate_line(name: &str, share: f64, offered: f64, r: &serve::RateResult) -> String {
    format!(
        "{name} (reported, not gated): offered {:.0} req/s ({:.0}% of capacity), achieved {:.0}; p50 {:.3} ms, p{} {:.3} ms over {} requests; {} the {} ms limit",
        offered,
        share * 100.0,
        r.achieved,
        r.p50.value,
        r.p99.percentile,
        r.p99.value,
        r.p99.samples,
        if r.meets_limit { "meets" } else { "misses" },
        serve::LATENCY_LIMIT_MS
    )
}

/// The paper's reference values, printed beside the measured speed-ups.
fn paper_reference(
    kind: Kind,
    s: &engines::Summary,
    samples: &engines::Samples,
    data: &Dataset,
) -> Vec<String> {
    match kind {
        Kind::Job => vec![
            format!(
                "speedup_vs_binary  {:.3}x  (paper Fig 14 geo-mean: 2.94x)",
                s.speedup_vs_binary
            ),
            format!(
                "speedup_vs_generic {:.3}x  (paper Fig 14 geo-mean: 9.61x)",
                s.speedup_vs_generic
            ),
        ],
        Kind::Lsqb => {
            let i = data.suite.iter().position(|q| q.name == "q3").expect("suite has q3");
            let q3 = |den: &[Vec<f64>]| engines::paired_ratio(&den[i..=i], &samples.fj1[i..=i]);
            vec![
                format!("speedup_vs_binary  {:.3}x  (geo-mean over q1-q5)", s.speedup_vs_binary),
                format!("speedup_vs_generic {:.3}x  (geo-mean over q1-q5)", s.speedup_vs_generic),
                format!(
                    "q3: {:.3}x vs binary, {:.3}x vs generic  (paper Fig 16 q3: up to 15.45x / 4.08x)",
                    q3(&samples.binary),
                    q3(&samples.generic)
                ),
            ]
        }
    }
}

/// The traced run: layer-by-layer engine passes and a served phase with
/// spans around every client call, then the per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    catalog: &fj_storage::Catalog,
    data: &Dataset,
    expected: &[u64],
    served: &mut Served,
    mix: &mut Mix,
    rng: &mut Rng,
    checker: &mut serve::Checker,
    cap: f64,
    engine_budget: Duration,
    serve_budget: f64,
    origin: Instant,
    tally: &mut Tally,
    metrics: &mut Metrics,
    report: &mut Vec<String>,
) -> Result<(), String> {
    let mut main = Recorder::new(origin, 0);
    let root = main.begin("bench.run");

    // Engine passes, each under its own recorder so per-pass sums and the
    // unattributed time can be read off it.
    let mut passes: Vec<(BTreeMap<&'static str, f64>, engines::Layers, f64)> = Vec::new();
    let engine_start = Instant::now();
    while passes.is_empty()
        || engine_start.elapsed() * (passes.len() as u32 + 1) / passes.len() as u32 <= engine_budget
    {
        let mut rec = Recorder::new(origin, 0);
        let pass = rec.begin("bench.engine_pass");
        let layers = engines::traced_pass(&mut rec, catalog, &data.suite, expected, tally);
        rec.end(pass);
        let wall = rec.spans()[pass].dur_ns() as f64 / 1e6;
        passes.push((spans::self_ms_by_name(rec.spans()), layers, wall));
        main.adopt(rec, root);
    }
    let per_pass = |name: &str| -> f64 {
        median(
            &passes
                .iter()
                .map(|(m, _, _)| m.get(name).copied().unwrap_or(0.0))
                .collect::<Vec<_>>(),
        )
    };
    let unattributed = median(
        &passes
            .iter()
            .map(|(m, _, wall)| {
                wall - m
                    .iter()
                    .filter(|(n, _)| !n.starts_with("bench."))
                    .map(|(_, v)| v)
                    .sum::<f64>()
            })
            .collect::<Vec<_>>(),
    );
    let l = &passes.last().expect("at least one pass").1;
    let trace_overhead = median(
        &passes
            .iter()
            .map(|(_, l, _)| (l.composed_ms - l.engine_ms) / l.engine_ms * 100.0)
            .collect::<Vec<_>>(),
    );
    let efficiency = median(
        &passes
            .iter()
            .map(|(_, l, _)| l.probe_1t_ms / (2.0 * l.probe_2t_ms))
            .collect::<Vec<_>>(),
    );
    report.push(format!("traced engine passes: {}", passes.len()));

    // Served phase at the high rate, spans on every connection.
    let parse_span = main.begin("bench.parse_queries");
    let mut parse_us = Vec::new();
    for _ in 0..200 {
        for t in &data.templates {
            let start = Instant::now();
            let parsed = main.time("fj-query.parse_query", || fj_query::parse_query(&t.text));
            parse_us.push(start.elapsed().as_secs_f64() * 1e6);
            parsed.map_err(|e| format!("{}: {e}", t.name))?;
        }
    }
    main.end(parse_span);
    let before = served.stats();
    let duration = Duration::from_secs_f64(serve_budget * 0.8);
    let offered = serve::HIGH_LOAD * cap;
    let schedule = serve::poisson(mix, rng, offered, duration)?;
    let serve_span = main.begin("bench.serve_high");
    let (records, recorders) = served.drive(&data.templates, &schedule, None, Some(origin));
    main.end(serve_span);
    for r in recorders {
        main.adopt(r, serve_span);
    }
    let after = served.stats();
    let check_span = main.begin("bench.check_served");
    checker.check(&records, tally);
    main.end(check_span);
    report.push(rate_line(
        "high",
        serve::HIGH_LOAD,
        offered,
        &serve::summarize_rate(&records, duration),
    ));
    let hot: Vec<Req> = mix.hot();
    let overhead =
        main.time("fj-obs.profile_pairs", || serve::profile_overhead(checker, catalog, &hot, 400));

    let answered: Vec<&serve::Record> = records
        .iter()
        .filter(|r| matches!(r.outcome, serve::Outcome::Answer { .. }))
        .collect();
    let service_us: Vec<f64> = answered
        .iter()
        .map(|r| match r.outcome {
            serve::Outcome::Answer { service_us, .. } => service_us as f64,
            _ => unreachable!("filtered to answers"),
        })
        .collect();
    let wire_us: Vec<f64> =
        answered.iter().zip(&service_us).map(|(r, s)| r.round_trip_us() - s).collect();
    let late: Vec<f64> = records.iter().map(serve::Record::lateness_ms).collect();
    let busy = records.iter().filter(|r| r.outcome == serve::Outcome::Busy).count() as u64;
    let client_errors =
        records.iter().filter(|r| matches!(r.outcome, serve::Outcome::Error(_))).count() as u64;
    let cache = after.cache.delta(&before.cache);
    let ratio =
        |hits: u64, lookups: u64| if lookups == 0 { 0.0 } else { hits as f64 / lookups as f64 };
    let (q1, _, q3) = quartiles(&overhead);
    main.end(root);

    metrics.put("fj-plan.stats_ms", per_pass("fj-plan.stats"), "ms");
    metrics.put("fj-plan.optimize_ms", per_pass("fj-plan.optimize"), "ms");
    metrics.put("free-join.compile_ms", per_pass("free-join.compile"), "ms");
    metrics.put("fj-storage.select_ms", per_pass("fj-storage.select"), "ms");
    metrics.put("fj-storage.select_rows_in", l.select_rows_in as f64, "count");
    metrics.put("fj-storage.select_rows_out", l.select_rows_out as f64, "count");
    metrics.put("free-join.trie.build_ms", per_pass("free-join.trie.build"), "ms");
    metrics.put("free-join.trie.maps_built", l.maps_built as f64, "count");
    metrics.put("free-join.trie.lazy_expansions", l.lazy_expansions as f64, "count");
    metrics.put("free-join.trie.bytes", l.trie_bytes as f64, "bytes");
    let probe_ms = per_pass("free-join.exec.probe");
    metrics.put("free-join.exec.probe_ms", probe_ms, "ms");
    metrics.put("free-join.exec.probes", l.probes as f64, "count");
    metrics.put("free-join.exec.probe_hit_ratio", ratio(l.probe_hits, l.probes), "ratio");
    metrics.put("free-join.exec.output_tuples", l.output_tuples as f64, "count");
    metrics.put("free-join.exec.tuples_per_s", l.output_tuples as f64 / (probe_ms / 1e3), "1/s");
    metrics.put("free-join.exec.result_chunks", l.result_chunks as f64, "count");
    metrics.put("free-join.exec.aggregate_ms", per_pass("free-join.exec.aggregate"), "ms");
    metrics.put("free-join.sched.tasks_spawned", l.tasks_spawned as f64, "count");
    metrics.put("free-join.sched.tasks_stolen", l.tasks_stolen as f64, "count");
    metrics.put("free-join.sched.max_worker_share", median(&l.worker_share), "ratio");
    metrics.put("free-join.sched.parallel_efficiency", efficiency, "ratio");
    metrics.put("free-join.session.prepare_ms", per_pass("free-join.session.prepare"), "ms");
    metrics.put("free-join.session.exec_hot_ms", median(&checker.hot_ms), "ms");
    metrics.put("free-join.session.exec_fresh_ms", median(&checker.fresh_ms), "ms");
    // Plans are looked up by `Prepare`, which happens at set-up: the plan
    // ratio covers the server's whole life, the trie counts the traced phase.
    let plans = &after.cache.plans;
    metrics.put("fj-cache.plan_hit_ratio", ratio(plans.hits, plans.lookups()), "ratio");
    metrics.put("fj-cache.trie_hit_ratio", ratio(cache.tries.hits, cache.tries.lookups()), "ratio");
    metrics.put("fj-cache.trie_misses", cache.tries.misses as f64, "count");
    metrics.put("fj-cache.coalesced", cache.tries.coalesced as f64, "count");
    metrics.put("fj-cache.evictions", cache.tries.evictions as f64, "count");
    metrics.put("fj-cache.resident_bytes", after.cache.tries.resident_bytes as f64, "bytes");
    metrics.put("fj-query.parse_query_us", median(&parse_us), "us");
    let filter_us: Vec<f64> = main
        .spans()
        .iter()
        .filter(|s| s.name == "fj-query.parse_filter")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    metrics.put("fj-query.parse_filter_us", median(&filter_us), "us");
    metrics.put("fj-serve.service_us_p50", tail(&service_us, 50.0).value, "us");
    let service_tail = tail(&service_us, 99.0);
    metrics.put("fj-serve.service_us_p99", service_tail.value, "us");
    metrics.put("fj-serve.wire_us_p50", median(&wire_us), "us");
    let late_tail = tail(&late, 99.0);
    metrics.put("fj-serve.gen_late_ms_p99", late_tail.value, "ms");
    metrics.put("fj-serve.rejected", (busy + after.rejected() - before.rejected()) as f64, "count");
    metrics.put("fj-serve.errors", (client_errors + after.errors - before.errors) as f64, "count");
    metrics.put("fj-obs.profile_overhead_pct", median(&overhead), "%");
    metrics.put("fj-obs.profile_overhead_iqr_pct", q3 - q1, "%");
    metrics.put("fj-baselines.binary_ms_geomean", geomean(&l.binary_ms), "ms");
    metrics.put("fj-baselines.generic_ms_geomean", geomean(&l.generic_ms), "ms");
    metrics.put("fj-baselines.binary_build_ms", l.binary_build_ms, "ms");
    metrics.put("fj-baselines.binary_join_ms", l.binary_join_ms, "ms");
    metrics.put("fj-baselines.generic_build_ms", l.generic_build_ms, "ms");
    metrics.put("fj-baselines.generic_join_ms", l.generic_join_ms, "ms");
    metrics.put("unattributed_ms", unattributed, "ms");
    metrics.put("bench.trace_overhead_pct", trace_overhead, "%");

    report.push(format!(
        "served (traced): trie cache held {:.1} MiB after warm-up (budget 256 MiB); {} requests at {:.0} req/s; service p{} over {} samples; generator lateness p{} over {} samples; profile overhead IQR share {:.3}",
        before.cache.tries.resident_bytes as f64 / (1u64 << 20) as f64,
        records.len(),
        offered,
        service_tail.percentile,
        service_tail.samples,
        late_tail.percentile,
        late_tail.samples,
        iqr_share(&overhead)
    ));
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/trace-{}-{}.json", args.workload, args.seed);
    std::fs::write(&path, spans::to_chrome_json(main.spans()))
        .map_err(|e| format!("{path}: {e}"))?;
    report.push(format!("spans: {} written to {path}", main.spans().len()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_metric_name(name), "{name}");
            assert_eq!(json.matches(&format!("\"name\": \"{name}\"")).count(), 1, "{name}");
        }
        // Two workloads plus every metric, and nothing else.
        assert_eq!(json.matches("\"name\":").count(), 2 + END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_digit() {
        let mut tally = Tally::default();
        assert!(tally.check("q", "e", Ok(3), 3));
        let mut m = Metrics::default();
        m.put("setup_s", 0.123456789012, "s");
        m.put("speedup_vs_binary", 2.0, "x");
        assert_eq!(
            result_json(&tally, &m),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}, \"speedup_vs_binary\": {\"value\": 2.0, \"unit\": \"x\"}}}"
        );
        // A failure, or a metric that could not be computed, makes the run
        // incorrect.
        assert!(!tally.check("q", "e", Ok(4), 3));
        assert!(result_json(&tally, &m)
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        let mut tally = Tally::default();
        tally.check("q", "e", Ok(3), 3);
        m.put("cold_overhead_x", f64::NAN, "x");
        assert!(result_json(&tally, &m).contains("\"correct\": false"));
        assert!(result_json(&tally, &m).contains("\"value\": null"));
    }
}
