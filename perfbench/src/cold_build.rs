//! `cold_build`: a CI build from scratch.
//!
//! Each operation creates a fresh [`Session`] and compiles thirteen
//! sources — the ten suite designs plus the Fig. 1 unsafe and safe
//! `Top`s and the Fig. 4 dynamic cache — through
//! `compile_batch_with_workers` on one worker, in a seeded order. Every
//! unit misses the cache, so type checking, IR optimization and code
//! generation do most of the work. The same session then rebuilds the
//! sources warm (all hits), and a second fresh session type-checks them
//! without generating code (`Session::check`, the paper's fast path).

use std::time::Instant;

use anvil_core::{CompileError, CompileOutput, Session};

use crate::common::{
    fnv, ms, timed_setup, Calibration, Report, Rng, RunConfig, Tracer, WARMUP_SEED,
};
use crate::edit_loop::suite_session;

/// Name of the source the type checker must reject.
const UNSAFE: &str = "fig1_top_unsafe";
/// Rounds whose exact counts are reported.
const PROBE_ROUNDS: usize = 4;
/// Warm-up builds before measuring.
const WARMUP_ROUNDS: usize = 3;
/// Percentile of the build time reported as `op_tail_ms`. Every build
/// compiles the same sources, so the tail is the machine's, and p90
/// keeps tens of samples beyond it.
const TAIL: f64 = 90.0;
/// Batch workers. One worker compiles the sources in order on the
/// calling thread; two workers moved the build time by a tenth between
/// runs on a shared two-CPU machine, three times the single-worker
/// spread.
const WORKERS: usize = 1;

/// The thirteen `(name, source)` pairs of one build.
pub fn sources() -> Vec<(&'static str, String)> {
    let mut s = anvil_designs::suite_sources();
    s.push((UNSAFE, anvil_designs::hazard::fig1_top_unsafe_anvil()));
    s.push((
        "fig1_top_safe",
        anvil_designs::hazard::fig1_top_safe_anvil(),
    ));
    s.push(("cache_dyn", anvil_designs::hazard::cache_dyn_source()));
    s
}

/// The seeded build order of round `r`.
pub fn order(seed: u64, r: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    Rng::new(seed, 0xB17D_0000 + r).shuffle(&mut idx);
    idx
}

/// Checks one build's results against the reference digests: the
/// unsafe `Top` must be rejected for timing, everything else must
/// compile to exactly the reference SystemVerilog. Returns
/// `(ok, violations, sv_bytes)`.
fn check_build(
    names: &[&str],
    results: &[Result<CompileOutput, CompileError>],
    reference: &[u64],
    idx: &[usize],
) -> (bool, u64, u64) {
    let mut ok = true;
    let mut violations = 0;
    let mut sv_bytes = 0;
    for (r, &i) in results.iter().zip(idx) {
        match r {
            Err(CompileError::TimingUnsafe(errs)) if names[i] == UNSAFE => {
                violations += errs.len() as u64;
                ok &= !errs.is_empty();
            }
            Ok(out) if names[i] != UNSAFE => {
                sv_bytes += out.systemverilog.len() as u64;
                ok &= fnv(out.systemverilog.as_bytes()) == reference[i];
            }
            _ => ok = false,
        }
    }
    (ok, violations, sv_bytes)
}

/// Type-checks every source on a fresh session; true when exactly the
/// unsafe `Top` reports violations.
fn check_only(names: &[&str], refs: &[&str], idx: &[usize]) -> bool {
    let session = suite_session();
    refs.iter()
        .zip(idx)
        .all(|(text, &i)| match session.check(text) {
            Ok((_, reports)) => {
                let unsafe_found = reports.values().any(|r| !r.is_safe());
                unsafe_found == (names[i] == UNSAFE)
            }
            Err(_) => false,
        })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let srcs = sources();
    let names: Vec<&str> = srcs.iter().map(|(n, _)| *n).collect();
    let mut report = Report::default();
    // Serial work, so the process is pinned.
    crate::common::pin_to_one_cpu();

    // Set-up: the sequential reference build every timed build must
    // reproduce (the unsafe Top has no digest).
    let mut cal = Calibration::new();
    let (reference, setup_s) = timed_setup(cfg.setup_reps, &mut cal, || {
        let session = suite_session();
        srcs.iter()
            .map(|(_, s)| {
                session
                    .compile(s)
                    .map(|o| fnv(o.systemverilog.as_bytes()))
                    .unwrap_or(0)
            })
            .collect::<Vec<u64>>()
    });

    for r in 0..WARMUP_ROUNDS {
        let idx = order(WARMUP_SEED, r as u64, srcs.len());
        let refs: Vec<&str> = idx.iter().map(|&i| srcs[i].1.as_str()).collect();
        let _ = suite_session().compile_batch_with_workers(&refs, WORKERS);
        let _ = check_only(&names, &refs, &idx);
    }
    // Memory is read at the end of warm-up, whose work is the same in
    // every run and holds no calibration samples.
    report.peak_heap_mb = Some(crate::common::peak_heap_mb());

    let (mut cold, mut warm, mut checks) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut tracer = Tracer::new(false);

    let started = Instant::now();
    let mut done = 0;
    while cfg.budget.more(done, started) {
        // A traced run alternates untraced and traced rounds, so both
        // sides of the overhead estimate see the same machine drift.
        let traced = cfg.trace && done % 2 == 1;
        tracer.set_enabled(traced);
        cal.tick();
        let idx = order(cfg.seed, (WARMUP_ROUNDS + done) as u64, srcs.len());
        let refs: Vec<&str> = idx.iter().map(|&i| srcs[i].1.as_str()).collect();
        let op = tracer.begin("op");

        let sp = tracer.begin("core.compile");
        let t = Instant::now();
        let session = suite_session();
        let before = session.cache_stats();
        let results = session.compile_batch_with_workers(&refs, WORKERS);
        let raw = ms(t.elapsed());
        tracer.end(sp);
        cold.push((t, raw));
        let misses = (session.cache_stats() - before).misses();

        let sp = tracer.begin("core.compile_warm");
        let t = Instant::now();
        let rebuilt = session.compile_batch_with_workers(&refs, WORKERS);
        warm.push((t, ms(t.elapsed())));
        tracer.end(sp);

        let sp = tracer.begin("typeck.check");
        let t = Instant::now();
        let checked = check_only(&names, &refs, &idx);
        checks.push((t, ms(t.elapsed())));
        tracer.end(sp);

        if tracer.enabled() {
            // Layer probe from outside: parsing alone.
            tracer.time("syntax.parse", || {
                let s = Session::new();
                refs.iter().filter(|t| s.parse(t).is_ok()).count()
            });
        }
        tracer.end(op);

        report.attempted += 1;
        let (ok, violations, sv_bytes) = check_build(&names, &results, &reference, &idx);
        let (warm_ok, _, _) = check_build(&names, &rebuilt, &reference, &idx);
        if !(ok && warm_ok && checked) {
            report.failed += 1;
        }
        let sample = *cold.last().expect("pushed above");
        if traced {
            traced_ms.push(sample);
        } else {
            untraced_ms.push(sample);
        }
        if done < PROBE_ROUNDS {
            report
                .sequence
                .push(idx.iter().map(|&i| names[i]).collect::<Vec<_>>().join(","));
            *report.exact.entry("cache_misses".into()).or_default() += misses;
            *report.exact.entry("violations".into()).or_default() += violations;
            *report.exact.entry("sv_bytes".into()).or_default() += sv_bytes;
            report
                .per_design
                .insert("build.cache_misses".into(), misses);
            report.per_design.insert("build.sv_bytes".into(), sv_bytes);
            report
                .per_design
                .insert("build.violations".into(), violations);
        }
        done += 1;
    }

    if !cfg.trace {
        crate::end_to_end(&mut report, &cal, &setup_s, &cold, TAIL, &warm, &checks);
        return report;
    }

    let probe = PROBE_ROUNDS.min(done).max(1) as f64;
    let ops = tracer.totals("op").count.max(1) as f64;
    let per = |name: &str| tracer.self_ms(name) / ops;
    let parse = per("syntax.parse");
    let check = per("typeck.check");
    let compile = per("core.compile");
    let exact = |k: &str| report.exact.get(k).copied().unwrap_or(0) as f64 / probe;
    let (misses, violations, sv) = (
        exact("cache_misses"),
        exact("violations"),
        exact("sv_bytes"),
    );
    report.metric("syntax.parse_ms", parse, "ms");
    report.metric("syntax.parse_share", parse / compile, "ratio");
    report.metric("core.cache_misses", misses, "count");
    report.metric("core.compile_ms", compile, "ms");
    report.metric("typeck.check_ms", (check - parse).max(0.0), "ms");
    report.metric("typeck.violations", violations, "count");
    report.metric("codegen.back_ms", (compile - check).max(0.0), "ms");
    report.metric("rtl.sv_bytes", sv, "bytes");
    crate::trace_summary(&mut report, &tracer, &cal, &untraced_ms, &traced_ms);
    crate::write_trace(&tracer, "cold_build", cfg);
    report
}
