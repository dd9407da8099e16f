//! End-to-end and per-layer benchmark of the Anvil toolchain.
//!
//! Four workloads each drive the public entry points of a different
//! layer stack (see `README.md` in this directory):
//!
//! | workload        | layers                                   |
//! |-----------------|------------------------------------------|
//! | `edit_loop`     | `anvild` → `core` → `syntax`             |
//! | `cold_build`    | `core` → `typeck` / `ir` / `codegen` / `rtl` |
//! | `prove_regress` | `rtl` → `smt` → `verify`                 |
//! | `sim_sweep`     | `sim`                                    |
//!
//! An untraced run reports the end-to-end metrics; a traced run wraps
//! the benchmark's own calls into each layer in spans
//! ([`common::Tracer`]) and reports per-layer self times and counts.

pub mod cold_build;
pub mod common;
pub mod edit_loop;
pub mod prove_regress;
pub mod sim_sweep;

use std::time::Instant;

use common::{median, percentile, Calibration, Report, RunConfig, Tracer};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["edit_loop", "cold_build", "prove_regress", "sim_sweep"];

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("alt_p50_ms", "ms"),
];

/// Per-layer metrics every traced run reports, with units. A workload
/// reports 0 for a layer it does not exercise.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("anvild.roundtrip_ms", "ms"),
    ("anvild.handle_ms", "ms"),
    ("anvild.response_bytes", "bytes"),
    ("syntax.parse_ms", "ms"),
    ("syntax.parse_share", "ratio"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("core.compile_ms", "ms"),
    ("typeck.check_ms", "ms"),
    ("typeck.violations", "count"),
    ("codegen.back_ms", "ms"),
    ("rtl.sv_bytes", "bytes"),
    ("rtl.blast_ms", "ms"),
    ("smt.aig_nodes", "count"),
    ("smt.clauses", "count"),
    ("smt.conflicts", "count"),
    ("verify.portfolio_ms", "ms"),
    ("verify.revalidate_ms", "ms"),
    ("verify.pdr_ms", "ms"),
    ("smt.pdr_conflicts", "count"),
    ("verify.decided_share", "ratio"),
    ("verify.symbolic_win_share", "ratio"),
    ("sim.lower_ms", "ms"),
    ("sim.tape_ops", "count"),
    ("sim.regions", "count"),
    ("sim.batch_poke_ns", "ns"),
    ("sim.batch_step_ns", "ns"),
    ("sim.held_poke_ns", "ns"),
    ("sim.held_step_ns", "ns"),
    ("sim.scalar_poke_ns", "ns"),
    ("sim.scalar_step_ns", "ns"),
    ("trace.op_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("calib.kernel_ms", "ms"),
];

/// Runs one workload by name.
pub fn run(workload: &str, cfg: &RunConfig) -> Option<Report> {
    Some(match workload {
        "edit_loop" => edit_loop::run(cfg),
        "cold_build" => cold_build::run(cfg),
        "prove_regress" => prove_regress::run(cfg),
        "sim_sweep" => sim_sweep::run(cfg),
        _ => return None,
    })
}

/// The untraced run's metrics: set-up time, memory, and the median and
/// the `tail` percentile of the workload's operation plus the medians
/// of its warm and alternative operations. Every sample is
/// `(start, value)` and is scaled to nominal machine speed by the
/// calibration; the unscaled figures go to standard error.
#[allow(clippy::too_many_arguments)]
pub fn end_to_end(
    report: &mut Report,
    cal: &Calibration,
    setup_s: &[(Instant, f64)],
    op_ms: &[(Instant, f64)],
    tail: f64,
    warm_ms: &[(Instant, f64)],
    alt_ms: &[(Instant, f64)],
) {
    eprintln!(
        "calibration kernel: median {:.3} ms over {} samples",
        cal.kernel_ms(),
        cal.samples()
    );
    let raw = |t: &[(Instant, f64)]| t.iter().map(|s| s.1).collect::<Vec<_>>();
    eprintln!(
        "unscaled: setup_s {:.6} op_p50_ms {:.4} op_tail_ms {:.4} warm_p50_ms {:.4} alt_p50_ms {:.4}",
        median(&raw(setup_s)),
        median(&raw(op_ms)),
        percentile(&raw(op_ms), tail),
        median(&raw(warm_ms)),
        median(&raw(alt_ms)),
    );
    let op = cal.scaled(op_ms);
    report.metric("setup_s", median(&cal.scaled(setup_s)), "s");
    let heap = report.peak_heap_mb.unwrap_or_else(common::peak_heap_mb);
    report.metric("peak_heap_mb", heap, "MB");
    report.metric("op_p50_ms", median(&op), "ms");
    report.metric("op_tail_ms", percentile(&op, tail), "ms");
    report.metric("warm_p50_ms", median(&cal.scaled(warm_ms)), "ms");
    report.metric("alt_p50_ms", median(&cal.scaled(alt_ms)), "ms");
}

/// The trace-wide metrics: mean operation time, the part of it no
/// layer span covers, the tracing overhead — the calibrated median of
/// the measured call in traced rounds over that in untraced rounds —
/// and the calibration kernel's time.
pub fn trace_summary(
    report: &mut Report,
    tracer: &Tracer,
    cal: &Calibration,
    untraced_ms: &[(Instant, f64)],
    traced_ms: &[(Instant, f64)],
) {
    let op = tracer.totals("op");
    let ops = op.count.max(1) as f64;
    report.metric("trace.op_ms", op.total_ns as f64 / 1e6 / ops, "ms");
    report.metric("trace.unattributed_ms", op.self_ns as f64 / 1e6 / ops, "ms");
    report.metric(
        "trace.unattributed_share",
        op.self_ns as f64 / op.total_ns.max(1) as f64,
        "ratio",
    );
    report.metric(
        "trace.overhead_share",
        median(&cal.scaled(traced_ms)) / median(&cal.scaled(untraced_ms)) - 1.0,
        "ratio",
    );
    report.metric("calib.kernel_ms", cal.kernel_ms(), "ms");
}

/// Writes a traced run's spans into the run's trace directory, if it
/// has one. A failed write is reported but does not fail the run.
pub fn write_trace(tracer: &Tracer, workload: &str, cfg: &RunConfig) {
    let Some(dir) = cfg.trace_dir else {
        return;
    };
    let path = std::path::Path::new(dir).join(format!("{workload}-seed{}.spans.jsonl", cfg.seed));
    if let Err(e) = tracer.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}
