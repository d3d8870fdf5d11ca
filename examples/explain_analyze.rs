//! `EXPLAIN ANALYZE` on the triangle query, end to end: prepare through a
//! `Session`, execute with per-node profiling, and print the plan tree
//! annotated with the optimizer's estimated rows next to the actual rows,
//! probe hit rates and coarse per-node times.
//!
//! Doubles as a CI gate: the process exits nonzero unless every plan node
//! reports actual rows > 0 and the per-node probe counts reconcile exactly
//! with the engine's `ExecStats` totals — a silent attribution hole in the
//! executor's profiling sites would fail the build, not just misreport. The
//! check runs twice: plain, and under a live far-future-deadline
//! `CancelToken` (profiled + cancellable, the path deadlined server
//! requests take), which must do exactly the same work.
//!
//! ```text
//! cargo run --release --example explain_analyze
//! ```

use freejoin::prelude::*;
use freejoin::workloads::micro;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // A skewed triangle: enough structure that estimates and actuals
    // visibly diverge, which is the whole point of EXPLAIN ANALYZE.
    let workload = micro::skewed_triangle(500, 8, 0.9, 42);
    let named = &workload.queries[0];
    let session = Session::new(Arc::new(EngineCaches::with_defaults()));

    let report = session.explain_analyze(&workload.catalog, &named.query).unwrap();
    println!("{report}");

    // The same numbers, structured: re-run profiled and verify the gate
    // conditions the rendered report was built from — once plain, once
    // under a live far-future-deadline CancelToken (the path a deadlined
    // server request takes), which must do exactly the same work.
    let prepared = session.prepare(&workload.catalog, &named.query).unwrap();
    let live = CancelToken::with_deadline(Duration::from_secs(3600));
    let mut failures = Vec::new();
    let mut runs = Vec::new();
    for (label, token) in [("plain", CancelToken::disabled()), ("live token", live)] {
        let request = ExecRequest { token, profile: true, ..ExecRequest::default() };
        let ExecReport { output: out, stats, profile, .. } =
            prepared.run(&workload.catalog, &request).unwrap();
        let profile = profile.expect("profiled runs carry a profile");
        for pipeline in &profile.pipelines {
            for node in &pipeline.nodes {
                if node.output_rows == 0 {
                    failures.push(format!("{label}: {}: node reported 0 actual rows", node.label));
                }
                if node.estimated_rows < 1.0 {
                    failures.push(format!("{label}: {}: missing optimizer estimate", node.label));
                }
            }
        }
        if profile.total_probes() != stats.probes {
            failures.push(format!(
                "{label}: per-node probes {} != ExecStats probes {}",
                profile.total_probes(),
                stats.probes
            ));
        }
        if profile.total_probe_hits() != stats.probe_hits {
            failures.push(format!(
                "{label}: per-node probe hits {} != ExecStats probe hits {}",
                profile.total_probe_hits(),
                stats.probe_hits
            ));
        }
        if profile.output_rows() != out.cardinality() {
            failures.push(format!(
                "{label}: profile output rows {} != cardinality {}",
                profile.output_rows(),
                out.cardinality()
            ));
        }
        runs.push((out.cardinality(), stats.probes, profile));
    }
    let (out_rows, probes, profile) = &runs[0];
    if runs[1].0 != *out_rows || runs[1].1 != *probes {
        failures.push(format!(
            "live token changed the work: {} rows / {} probes vs {out_rows} / {probes}",
            runs[1].0, runs[1].1
        ));
    }

    if failures.is_empty() {
        println!(
            "ok: {} nodes, {probes} probes reconciled with and without a live token, \
             {out_rows} triangles",
            profile.pipelines.iter().map(|p| p.nodes.len()).sum::<usize>(),
        );
    } else {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        std::process::exit(1);
    }
}
