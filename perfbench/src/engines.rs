//! The engine phase: every suite query on Free Join (1 and 2 threads), the
//! binary hash join and Generic Join over one shared left-deep plan, plus
//! Free Join through a fresh `Session` (cold caches) and the bench-local
//! reference join. The traced variant calls the layers one at a time
//! instead, with a span around each call.

use crate::reference::Reference;
use crate::spans::Recorder;
use crate::stats::{geomean, median};
use crate::Tally;
use fj_baselines::{BinaryJoinEngine, GenericJoinEngine};
use fj_plan::{optimize, BinaryPlan, CatalogStats, OptimizerOptions, PipeInput};
use fj_query::{ExecStats, OutputBuilder, QueryOutput};
use fj_storage::Catalog;
use fj_workloads::NamedQuery;
use free_join::{
    compile_query, execute_pipeline, execute_pipeline_parallel, prepare_inputs, EngineCaches,
    EngineError, FreeJoinEngine, FreeJoinOptions, InputTrie, OutputSink, Session,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Free Join engine options at `threads` threads (otherwise the defaults:
/// COLT, batch 1000, factorized plans).
pub fn fj_options(threads: usize) -> FreeJoinOptions {
    FreeJoinOptions::default().with_num_threads(threads)
}

/// The optimizer setting shared by all engines: left-deep plans, the shape
/// the paper's system receives from DuckDB on these benchmarks.
pub fn left_deep() -> OptimizerOptions {
    OptimizerOptions { left_deep_only: true, ..OptimizerOptions::default() }
}

/// A session on fresh caches at one thread, planning like the shared plans.
pub fn cold_session() -> Session {
    Session::new(Arc::new(EngineCaches::with_defaults()))
        .with_options(fj_options(1))
        .with_optimizer(left_deep())
}

/// The shared left-deep plan of every suite query.
pub fn shared_plans(catalog: &Catalog, suite: &[NamedQuery]) -> Vec<BinaryPlan> {
    let stats = CatalogStats::collect(catalog);
    suite.iter().map(|q| optimize(&q.query, &stats, left_deep())).collect()
}

/// Every suite query's answer from the binary hash join over the default
/// (possibly bushy) optimizer plan: a different plan and a different engine
/// from the ones measured, computed once per seed during set-up.
pub fn reference_cardinalities(
    catalog: &Catalog,
    suite: &[NamedQuery],
) -> Result<Vec<u64>, String> {
    let stats = CatalogStats::collect(catalog);
    suite
        .iter()
        .map(|q| {
            let plan = optimize(&q.query, &stats, OptimizerOptions::default());
            BinaryJoinEngine::new()
                .execute(catalog, &q.query, &plan)
                .map(|(out, _)| out.cardinality())
                .map_err(|e| format!("reference {}: {e}", q.name))
        })
        .collect()
}

/// Per-query timing samples in milliseconds, `[query][round]`; NaN marks a
/// failed execution.
#[derive(Debug, Default)]
pub struct Samples {
    /// Free Join, 1 thread, shared plan.
    pub fj1: Vec<Vec<f64>>,
    /// Free Join, 2 threads, shared plan.
    pub fj2: Vec<Vec<f64>>,
    /// Binary hash join, shared plan.
    pub binary: Vec<Vec<f64>>,
    /// Generic Join, shared plan.
    pub generic: Vec<Vec<f64>>,
    /// `Session::prepare` + `Prepared::execute` on fresh caches, 1 thread.
    pub cold: Vec<Vec<f64>>,
    /// The reference join, run next to Free Join at 1 thread.
    pub reference: Vec<Vec<f64>>,
    /// Complete rounds run.
    pub rounds: usize,
}

fn cardinality(r: Result<(QueryOutput, ExecStats), EngineError>) -> Result<u64, String> {
    r.map(|(out, _)| out.cardinality()).map_err(|e| e.to_string())
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Run whole rounds (every query on every engine, engines interleaved per
/// query) while the next round is expected to fit in `budget`; at least two
/// rounds. `between` runs after every query, outside every measurement.
#[allow(clippy::too_many_arguments)]
pub fn run(
    catalog: &Catalog,
    suite: &[NamedQuery],
    plans: &[BinaryPlan],
    expected: &[u64],
    reference: &Reference,
    budget: Duration,
    tally: &mut Tally,
    between: &mut dyn FnMut(),
) -> Samples {
    let n = suite.len();
    let mut s = Samples {
        fj1: vec![Vec::new(); n],
        fj2: vec![Vec::new(); n],
        binary: vec![Vec::new(); n],
        generic: vec![Vec::new(); n],
        cold: vec![Vec::new(); n],
        reference: vec![Vec::new(); n],
        rounds: 0,
    };
    let fj1 = FreeJoinEngine::new(fj_options(1));
    let fj2 = FreeJoinEngine::new(fj_options(2));
    let start = Instant::now();
    loop {
        let elapsed = start.elapsed();
        if s.rounds >= 2 && elapsed + elapsed / s.rounds as u32 > budget {
            break;
        }
        for (i, q) in suite.iter().enumerate() {
            let (query, plan, want) = (&q.query, &plans[i], expected[i]);
            let name = q.name.as_str();
            // A failed execution leaves NaN in its round, so rounds stay
            // aligned across engines for the paired ratios.
            let mut sample =
                |engine: &str, want: u64, run: &mut dyn FnMut() -> Result<u64, String>| {
                    let (r, ms) = timed(run);
                    if tally.check(name, engine, r, want) {
                        ms
                    } else {
                        f64::NAN
                    }
                };
            // Free Join at one thread sits between the reference and the
            // engines whose ratios to it are noisiest, so a change of machine
            // speed mid-round hits both sides of a ratio alike.
            let fj2_ms =
                sample("freejoin-2t", want, &mut || cardinality(fj2.execute(catalog, query, plan)));
            let ref_ms = sample("reference", reference.expected(), &mut || Ok(reference.run()));
            let fj1_ms =
                sample("freejoin-1t", want, &mut || cardinality(fj1.execute(catalog, query, plan)));
            let generic_ms = sample("generic", want, &mut || {
                cardinality(GenericJoinEngine::new().execute(catalog, query, plan))
            });
            let binary_ms = sample("binary", want, &mut || {
                cardinality(BinaryJoinEngine::new().execute(catalog, query, plan))
            });
            let cold_ms = sample("freejoin-cold", want, &mut || {
                let session = cold_session();
                cardinality(session.prepare(catalog, query).and_then(|p| p.execute(catalog)))
            });
            s.fj1[i].push(fj1_ms);
            s.fj2[i].push(fj2_ms);
            s.binary[i].push(binary_ms);
            s.generic[i].push(generic_ms);
            s.cold[i].push(cold_ms);
            s.reference[i].push(ref_ms);
            between();
        }
        s.rounds += 1;
    }
    s
}

/// The engine phase's end-to-end metrics.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Geo-mean over queries of the cold `Session` median, ms.
    pub cold_ms_geomean: f64,
    /// Geo-mean over queries of the Free Join 1-thread median, ms.
    pub exec_ms_geomean: f64,
    /// Same at 2 threads, ms.
    pub exec_ms_geomean_2t: f64,
    /// Sum over queries of the Free Join 1-thread median, s.
    pub exec_s_total: f64,
    /// Geo-mean over queries of the reference join's median, ms.
    pub reference_ms: f64,
    /// Free Join 1-thread time / reference join time: the engine's speed in
    /// units of a yardstick that shares no code with it.
    pub exec_ref_x: f64,
    /// Binary time / Free Join time (see [`paired_ratio`]).
    pub speedup_vs_binary: f64,
    /// Generic Join time / Free Join time.
    pub speedup_vs_generic: f64,
    /// Cold `Session` time / Free Join time: what planning, statistics and
    /// session set-up add to an execution.
    pub cold_overhead_x: f64,
    /// Free Join 1-thread time / 2-thread time.
    pub scaling_2t: f64,
}

/// Per query, the median of its successful samples.
fn medians(per_query: &[Vec<f64>]) -> Vec<f64> {
    per_query
        .iter()
        .map(|xs| median(&xs.iter().copied().filter(|x| x.is_finite()).collect::<Vec<_>>()))
        .collect()
}

/// Geo-mean over queries of the per-query median of the per-round ratio
/// `num / den`: each ratio pairs two executions made moments apart.
pub fn paired_ratio(num: &[Vec<f64>], den: &[Vec<f64>]) -> f64 {
    let per_query: Vec<f64> = num
        .iter()
        .zip(den)
        .map(|(n, d)| {
            let r: Vec<f64> =
                n.iter().zip(d).map(|(a, b)| a / b).filter(|x| x.is_finite()).collect();
            median(&r)
        })
        .collect();
    geomean(&per_query)
}

/// Summarize the samples: per-query medians, then geo-means over queries.
pub fn summarize(s: &Samples) -> Summary {
    let fj1 = medians(&s.fj1);
    Summary {
        cold_ms_geomean: geomean(&medians(&s.cold)),
        exec_ms_geomean: geomean(&fj1),
        exec_ms_geomean_2t: geomean(&medians(&s.fj2)),
        exec_s_total: fj1.iter().sum::<f64>() / 1e3,
        reference_ms: geomean(&medians(&s.reference)),
        exec_ref_x: paired_ratio(&s.fj1, &s.reference),
        speedup_vs_binary: paired_ratio(&s.binary, &s.fj1),
        speedup_vs_generic: paired_ratio(&s.generic, &s.fj1),
        cold_overhead_x: paired_ratio(&s.cold, &s.fj1),
        scaling_2t: paired_ratio(&s.fj1, &s.fj2),
    }
}

/// Counts and times gathered by one traced pass over the suite.
#[derive(Debug, Default)]
pub struct Layers {
    /// Rows entering selections (base rows of filtered atoms).
    pub select_rows_in: u64,
    /// Rows leaving selections.
    pub select_rows_out: u64,
    /// Trie maps built, summed over inputs after execution (1 thread).
    pub maps_built: u64,
    /// COLT nodes forced during the probe phase (1 thread).
    pub lazy_expansions: u64,
    /// Estimated trie bytes after execution (1 thread).
    pub trie_bytes: u64,
    /// Probes and probes that hit (1 thread).
    pub probes: u64,
    /// Probes that found a match.
    pub probe_hits: u64,
    /// Result tuples (with multiplicity).
    pub output_tuples: u64,
    /// Result chunks that crossed the sink boundary.
    pub result_chunks: u64,
    /// Scheduler tasks spawned / stolen at 2 threads.
    pub tasks_spawned: u64,
    /// Tasks run by a worker other than their spawner.
    pub tasks_stolen: u64,
    /// Per query at 2 threads: the busiest worker's share of expansions.
    pub worker_share: Vec<f64>,
    /// Probe-phase time at 1 and 2 threads, ms (summed over the suite).
    pub probe_1t_ms: f64,
    /// Probe-phase time at 2 threads, ms.
    pub probe_2t_ms: f64,
    /// Per query: binary / Generic Join total ms.
    pub binary_ms: Vec<f64>,
    /// Generic Join total ms per query.
    pub generic_ms: Vec<f64>,
    /// Baseline build/join split, ms (summed over the suite).
    pub binary_build_ms: f64,
    /// Binary join phase, ms.
    pub binary_join_ms: f64,
    /// Generic Join trie build, ms.
    pub generic_build_ms: f64,
    /// Generic Join join phase, ms.
    pub generic_join_ms: f64,
    /// Composed 1-thread Free Join time (compile → aggregate) and the paired
    /// `FreeJoinEngine::execute` time, ms (summed over the suite).
    pub composed_ms: f64,
    /// Untraced engine time paired with `composed_ms`.
    pub engine_ms: f64,
}

/// One pass over the suite calling each layer separately under a span:
/// `CatalogStats::collect` → `optimize` → `compile_query` →
/// `prepare_inputs` → `InputTrie::build` per input → `execute_pipeline` →
/// `OutputSink::finish`, then the same pipeline at 2 threads, the untraced
/// `FreeJoinEngine::execute` (whose answer the composed one must equal), both
/// baselines and a cold `Session`. Dropping tries and sessions is timed too,
/// so little of a pass is left unattributed. COLT forces trie levels lazily while
/// probing, so its forcing is part of the `free-join.exec.probe` span and
/// shows as `lazy_expansions`, not as build time.
pub fn traced_pass(
    rec: &mut Recorder,
    catalog: &Catalog,
    suite: &[NamedQuery],
    expected: &[u64],
    tally: &mut Tally,
) -> Layers {
    let mut l = Layers::default();
    let (opts1, opts2) = (fj_options(1), fj_options(2));
    for (i, q) in suite.iter().enumerate() {
        let (query, want, name) = (&q.query, expected[i], q.name.as_str());
        let span = rec.begin("bench.query");
        let stats = rec.time("fj-plan.stats", || CatalogStats::collect(catalog));
        let plan = rec.time("fj-plan.optimize", || optimize(query, &stats, left_deep()));
        // The untraced engine over the same plan: its answer must equal the
        // composed one, and its time pairs with the composed time. It runs
        // before the composed calls on odd queries and after them on even
        // ones, so neither side always meets warm caches.
        let run_engine = |rec: &mut Recorder, l: &mut Layers, tally: &mut Tally| {
            let (r, ms) = timed(|| {
                rec.time("free-join.engine.execute", || {
                    cardinality(FreeJoinEngine::new(opts1).execute(catalog, query, &plan))
                })
            });
            l.engine_ms += ms;
            tally.check(name, "freejoin-1t", r, want);
        };
        if i % 2 == 1 {
            run_engine(rec, &mut l, tally);
        }
        let composed_start = Instant::now();
        let compiled = rec.time("free-join.compile", || compile_query(query, &plan, &opts1));
        let prepared = rec.time("fj-storage.select", || prepare_inputs(catalog, query));
        let (compiled, prepared) = match (compiled, prepared) {
            (Ok(c), Ok(p)) if c.pipelines.len() == 1 => (c, p),
            (c, p) => {
                let why = match (c, p) {
                    (Err(e), _) | (_, Err(e)) => e.to_string(),
                    (Ok(c), _) => format!("{} pipelines, expected 1", c.pipelines.len()),
                };
                tally.check(name, "composed", Err(why), want);
                rec.end(span);
                continue;
            }
        };
        for (atom, bound) in query.atoms.iter().zip(&prepared.atoms) {
            if atom.has_filter() {
                l.select_rows_in += catalog.get(&atom.relation).map_or(0, |r| r.num_rows()) as u64;
                l.select_rows_out += bound.num_rows() as u64;
            }
        }
        let pipeline = &compiled.pipelines[0];
        let inputs: Vec<_> = pipeline
            .inputs
            .iter()
            .map(|input| match input {
                PipeInput::Atom(a) => &prepared.atoms[*a],
                PipeInput::Intermediate(_) => {
                    unreachable!("single-pipeline plans have no intermediates")
                }
            })
            .collect();
        let build = |rec: &mut Recorder, label: &'static str| -> Vec<Arc<InputTrie>> {
            inputs
                .iter()
                .zip(&pipeline.plan.schemas)
                .map(|(input, schema)| {
                    rec.time(label, || {
                        Arc::new(InputTrie::build(input, schema.clone(), opts1.trie))
                    })
                })
                .collect()
        };
        let builder = OutputBuilder::try_new(
            &query.head,
            query.aggregate.clone(),
            &pipeline.plan.binding_order,
        )
        .expect("the compiled binding order binds every head variable");

        // One thread.
        let tries = build(rec, "free-join.trie.build");
        let mut sink = OutputSink::new(builder.clone());
        let (counters, probe_ms) = timed(|| {
            rec.time("free-join.exec.probe", || {
                execute_pipeline(&tries, &pipeline.plan, &opts1, &mut sink)
            })
        });
        l.probe_1t_ms += probe_ms;
        l.result_chunks += sink.chunks_received();
        let out = rec.time("free-join.exec.aggregate", || sink.finish());
        l.composed_ms += composed_start.elapsed().as_secs_f64() * 1e3;
        tally.check(name, "composed-1t", Ok(out.cardinality()), want);
        l.probes += counters.probes;
        l.probe_hits += counters.probe_hits;
        l.output_tuples += out.cardinality();
        for t in &tries {
            l.maps_built += t.maps_built();
            l.lazy_expansions += t.lazy_built();
            l.trie_bytes += t.estimated_bytes() as u64;
        }
        rec.time("free-join.trie.drop", || drop(tries));

        // Two threads, over freshly built tries.
        let tries = build(rec, "free-join.trie.build_2t");
        let ((sinks, counters), probe_ms) = timed(|| {
            rec.time("free-join.exec.probe_2t", || {
                execute_pipeline_parallel(&tries, &pipeline.plan, &opts2, 2, || {
                    OutputSink::new(builder.clone())
                })
            })
        });
        l.probe_2t_ms += probe_ms;
        let out = rec.time("free-join.exec.aggregate_2t", || {
            let mut merged = OutputSink::new(builder.clone());
            for s in sinks {
                merged.merge(s);
            }
            merged.finish()
        });
        tally.check(name, "composed-2t", Ok(out.cardinality()), want);
        rec.time("free-join.trie.drop", || drop(tries));
        l.tasks_spawned += counters.tasks_spawned;
        l.tasks_stolen += counters.tasks_stolen;
        let total: u64 = counters.worker_expansions.iter().sum();
        if let (Some(&max), true) = (counters.worker_expansions.iter().max(), total > 0) {
            l.worker_share.push(max as f64 / total as f64);
        }

        if i % 2 == 0 {
            run_engine(rec, &mut l, tally);
        }

        for (label, binary) in [("binary", true), ("generic", false)] {
            let (r, ms) = timed(|| {
                if binary {
                    rec.time("fj-baselines.binary", || {
                        BinaryJoinEngine::new().execute(catalog, query, &plan)
                    })
                } else {
                    rec.time("fj-baselines.generic", || {
                        GenericJoinEngine::new().execute(catalog, query, &plan)
                    })
                }
            });
            let (build, join) = match &r {
                Ok((_, st)) => {
                    (st.build_time.as_secs_f64() * 1e3, st.join_time.as_secs_f64() * 1e3)
                }
                Err(_) => (0.0, 0.0),
            };
            if tally.check(name, label, cardinality(r), want) {
                if binary {
                    l.binary_ms.push(ms);
                    l.binary_build_ms += build;
                    l.binary_join_ms += join;
                } else {
                    l.generic_ms.push(ms);
                    l.generic_build_ms += build;
                    l.generic_join_ms += join;
                }
            }
        }

        let session = rec.time("free-join.session.new", cold_session);
        let r = rec
            .time("free-join.session.prepare", || session.prepare(catalog, query))
            .and_then(|p| rec.time("free-join.session.execute", || p.execute(catalog)));
        tally.check(name, "freejoin-cold", cardinality(r), want);
        rec.time("free-join.session.drop", || drop(session));
        rec.end(span);
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_ratio_pairs_rounds_then_takes_medians_and_geomean() {
        // Query 0: rounds (10/5, 40/20, 12/4) -> ratios 2, 2, 3 -> median 2.
        // Query 1: rounds (8/1, 9/NaN) -> the failed round is skipped -> 8.
        let num = vec![vec![10.0, 40.0, 12.0], vec![8.0, 9.0]];
        let den = vec![vec![5.0, 20.0, 4.0], vec![1.0, f64::NAN]];
        assert!((paired_ratio(&num, &den) - 4.0).abs() < 1e-12);
        // A machine slow-down that hits one round's pair alike cancels out,
        // where a ratio of per-engine medians would not.
        let num = vec![vec![2.0, 2.0, 3.4, 3.4]];
        let den = vec![vec![1.0, 1.0, 1.7, 1.7]];
        assert!((paired_ratio(&num, &den) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn medians_skip_failed_rounds() {
        assert_eq!(medians(&[vec![3.0, f64::NAN, 1.0, 2.0]]), vec![2.0]);
    }
}
