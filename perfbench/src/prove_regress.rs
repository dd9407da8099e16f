//! `prove_regress`: a verification regression.
//!
//! Each round takes the ten suite safety properties and the two seeded
//! violations in a seeded order. The cold pass proves every property
//! with `prove_portfolio` on one worker, which blasts the design
//! afresh. On one worker the portfolio runs its symbolic engine (BMC
//! and k-induction) first, which decides every property here, so PDR
//! and the explicit-state search stop at once. The warm pass re-proves
//! each from the cold pass's certificate with `revalidate_certificate`
//! against a circuit blasted by the benchmark (the AIG a daemon keeps
//! cached). The PDR pass then proves each property PDR can decide with
//! the IC3/PDR engine alone (`prove_pdr`), so that invariant search is
//! measured too. Falsified verdicts must sit at their documented depth
//! and replay on the simulator.
//!
//! `prove_pdr` returns no certificate and the portfolio's winner is
//! always the symbolic engine, so revalidating an invariant certificate
//! is not reachable through the public API and is not measured.

use std::time::Instant;

use anvil_designs::props::{seeded_violations, suite_properties, SafetyProperty};
use anvil_sim::Backend;
use anvil_verify::{
    prove_pdr, prove_portfolio, replay_trace, revalidate_certificate, AigCircuit, Deadline,
    ProveResult, Prover,
};

use crate::common::{ms, timed_setup, Calibration, Report, Rng, RunConfig, Tracer, WARMUP_SEED};

/// k-induction window budget (deep enough for the depth-13 violation).
const MAX_K: usize = 16;
/// Explicit-state search depth.
const DEPTH: usize = 8;
/// Explicit-state search budget.
const MAX_STATES: usize = 20_000;
/// Frame budget of the PDR pass, as `bench_prove` uses.
const PDR_FRAMES: usize = 2 * MAX_K;
/// Properties left out of the PDR pass: datapath properties whose cones
/// PDR's propagation budget leaves `unknown` after about 3 s each
/// (`BENCH_prove.json`), about thirty times a whole round.
const PDR_SKIP: [&str; 2] = ["Pipelined ALU", "Systolic Array"];
/// Percentile of the cold round reported as `op_tail_ms`: every round
/// proves the same properties, so p90 is the machine's tail.
const TAIL: f64 = 90.0;
/// Warm-up rounds before measuring.
const WARMUP_ROUNDS: usize = 2;
/// Rounds whose exact counts are reported.
const PROBE_ROUNDS: usize = 2;
/// Portfolio workers. One worker runs the engines in a fixed order, so
/// the winner, the certificate and the solver counts repeat exactly;
/// with two, the race between engines moved the cold round by a tenth
/// between runs on a shared two-CPU machine.
const WORKERS: usize = 1;

/// The documented counterexample depth of each seeded violation.
fn expected_depth(design: &str) -> Option<usize> {
    match design {
        "fifo_overflow" => Some(6),
        "hazard_counter" => Some(13),
        _ => None,
    }
}

/// The twelve properties, in library order.
pub fn properties() -> Vec<SafetyProperty> {
    let mut p = suite_properties();
    p.extend(seeded_violations());
    p
}

/// The seeded property order of round `r`.
pub fn order(seed: u64, r: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    Rng::new(seed, 0x9207_0000 + r).shuffle(&mut idx);
    idx
}

fn verdict(r: &ProveResult) -> String {
    match r {
        ProveResult::Proved { .. } => "proved".to_string(),
        ProveResult::Falsified { depth, .. } => format!("falsified@{depth}"),
        ProveResult::Unknown { .. } => "unknown".to_string(),
    }
}

/// Whether a verdict is the right one for its property.
fn verdict_ok(prop: &SafetyProperty, r: &ProveResult) -> bool {
    match (expected_depth(prop.design), r) {
        (None, ProveResult::Proved { .. }) => true,
        (Some(want), ProveResult::Falsified { depth, trace }) => {
            *depth == want
                && replay_trace(&prop.module, &prop.assertion, trace, Backend::Compiled)
                    .ok()
                    .flatten()
                    == Some(want - 1)
        }
        _ => false,
    }
}

fn blast(prop: &SafetyProperty) -> AigCircuit {
    let mut c = AigCircuit::from_module(&prop.module).expect("suite design blasts");
    c.blast_assertion(&prop.assertion)
        .expect("assertion blasts");
    c
}

/// A timed pass: its start and its time in milliseconds.
type Timed = (Instant, f64);

/// Per-round tallies of the prover's work.
#[derive(Default)]
struct Tally {
    aig_nodes: u64,
    clauses: u64,
    conflicts: u64,
    decided: u64,
    symbolic_wins: u64,
    properties: u64,
    pdr_properties: u64,
    pdr_conflicts: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.aig_nodes += o.aig_nodes;
        self.clauses += o.clauses;
        self.conflicts += o.conflicts;
        self.decided += o.decided;
        self.symbolic_wins += o.symbolic_wins;
        self.properties += o.properties;
        self.pdr_properties += o.pdr_properties;
        self.pdr_conflicts += o.pdr_conflicts;
    }
}

/// The start and time in milliseconds of one round's timed passes.
struct RoundTimes {
    cold: Timed,
    warm: Timed,
    pdr: Timed,
}

/// One round: blast, cold pass, warm pass, PDR pass. Returns the pass
/// times and whether every verdict was right.
fn round(
    props: &[SafetyProperty],
    idx: &[usize],
    tracer: &mut Tracer,
    tally: &mut Tally,
    verdicts: &mut Vec<String>,
) -> (RoundTimes, bool) {
    let mut ok = true;
    let op = tracer.begin("op");

    let circuits: Vec<AigCircuit> = idx
        .iter()
        .map(|&i| tracer.time("rtl.blast", || blast(&props[i])))
        .collect();

    let t_cold = Instant::now();
    let outcomes: Vec<_> = idx
        .iter()
        .map(|&i| {
            let p = &props[i];
            tracer.time("verify.portfolio", || {
                prove_portfolio(
                    &p.module,
                    &p.assertion,
                    MAX_K,
                    DEPTH,
                    MAX_STATES,
                    WORKERS,
                    None,
                    Deadline::none(),
                )
            })
        })
        .collect();
    let cold_ms = (t_cold, ms(t_cold.elapsed()));

    let t_warm = Instant::now();
    let warm: Vec<_> = idx
        .iter()
        .zip(&circuits)
        .zip(&outcomes)
        .map(|((&i, c), o)| {
            let cert = o.as_ref().ok().and_then(|o| o.certificate.as_ref())?;
            tracer.time("verify.revalidate", || {
                revalidate_certificate(c, &props[i].assertion, cert)
                    .ok()
                    .flatten()
            })
        })
        .collect();
    let warm_ms = (t_warm, ms(t_warm.elapsed()));

    let pdr_idx: Vec<usize> = idx
        .iter()
        .copied()
        .filter(|&i| !PDR_SKIP.contains(&props[i].design))
        .collect();
    let t_pdr = Instant::now();
    let pdr: Vec<_> = pdr_idx
        .iter()
        .map(|&i| {
            let p = &props[i];
            tracer.time("verify.pdr", || {
                prove_pdr(&p.module, &p.assertion, PDR_FRAMES)
            })
        })
        .collect();
    let pdr_ms = (t_pdr, ms(t_pdr.elapsed()));

    // Checks, outside the timed passes (still inside the operation).
    let sp = tracer.begin("verify.replay");
    for ((&i, o), w) in idx.iter().zip(&outcomes).zip(&warm) {
        let p = &props[i];
        let Ok(o) = o else {
            ok = false;
            continue;
        };
        ok &= verdict_ok(p, &o.result);
        ok &= w.as_ref().is_some_and(|w| verdict(w) == verdict(&o.result));
        verdicts.push(format!("{}:{}", p.design, verdict(&o.result)));
        tally.properties += 1;
        tally.clauses += o.symbolic_stats.clauses + o.pdr_stats.clauses;
        tally.conflicts += o.symbolic_stats.conflicts + o.pdr_stats.conflicts;
        if o.winner.is_some() {
            tally.decided += 1;
        }
        if o.winner == Some(Prover::Symbolic) {
            tally.symbolic_wins += 1;
        }
    }
    // PDR must reach the right verdict on its own: a proof, or the
    // documented counterexample, which must replay.
    for (&i, r) in pdr_idx.iter().zip(&pdr) {
        match r {
            Ok((result, stats)) => {
                ok &= verdict_ok(&props[i], result);
                tally.pdr_properties += 1;
                tally.pdr_conflicts += stats.conflicts;
            }
            Err(_) => ok = false,
        }
    }
    tracer.end(sp);
    tally.aig_nodes += circuits.iter().map(|c| c.aig().len() as u64).sum::<u64>();
    tracer.end(op);
    (
        RoundTimes {
            cold: cold_ms,
            warm: warm_ms,
            pdr: pdr_ms,
        },
        ok,
    )
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    // Serial work, so the process is pinned.
    crate::common::pin_to_one_cpu();
    let mut report = Report::default();
    // Set-up: build the property netlists and elaborate each to an AIG
    // once, as a regression validates its inputs before proving.
    let mut cal = Calibration::new();
    let (props, setup_s) = timed_setup(cfg.setup_reps, &mut cal, || {
        let props = properties();
        for p in &props {
            let _ = blast(p);
        }
        props
    });
    let mut sink = Tracer::new(false);
    for r in 0..WARMUP_ROUNDS {
        let idx = order(WARMUP_SEED, r as u64, props.len());
        let _ = round(
            &props,
            &idx,
            &mut sink,
            &mut Tally::default(),
            &mut Vec::new(),
        );
    }
    // Memory is read at the end of warm-up, whose work is the same in
    // every run and holds no calibration samples.
    report.peak_heap_mb = Some(crate::common::peak_heap_mb());

    let (mut cold, mut warm, mut pdr) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();

    let started = Instant::now();
    let mut done = 0;
    while cfg.budget.more(done, started) {
        // A traced run alternates untraced and traced rounds, so both
        // sides of the overhead estimate see the same machine drift.
        let traced = cfg.trace && done % 2 == 1;
        tracer.set_enabled(traced);
        cal.tick();
        let idx = order(cfg.seed, (WARMUP_ROUNDS + done) as u64, props.len());
        let mut verdicts = Vec::new();
        let mut round_tally = Tally::default();
        let (times, ok) = round(&props, &idx, &mut tracer, &mut round_tally, &mut verdicts);
        report.attempted += 1;
        if !ok {
            report.failed += 1;
        }
        cold.push(times.cold);
        warm.push(times.warm);
        pdr.push(times.pdr);
        if traced {
            traced_ms.push(times.cold);
            tally.add(&round_tally);
        } else {
            untraced_ms.push(times.cold);
        }
        if done < PROBE_ROUNDS {
            report.sequence.push(verdicts.join(","));
            report
                .exact
                .insert("aig_nodes".into(), round_tally.aig_nodes);
            report
                .exact
                .insert("pdr_conflicts".into(), round_tally.pdr_conflicts);
            let mut sorted = verdicts.clone();
            sorted.sort();
            for v in sorted {
                *report.per_design.entry(format!("verdict.{v}")).or_default() += 1;
            }
            report
                .per_design
                .insert("aig_nodes".into(), round_tally.aig_nodes);
            report
                .per_design
                .insert("pdr_conflicts".into(), round_tally.pdr_conflicts);
        }
        done += 1;
    }

    if !cfg.trace {
        crate::end_to_end(&mut report, &cal, &setup_s, &cold, TAIL, &warm, &pdr);
        return report;
    }

    let rounds = tracer.totals("op").count.max(1) as f64;
    let props_n = tally.properties.max(1) as f64;
    let per_prop = |name: &str| tracer.self_ms(name) / props_n;
    report.metric("rtl.blast_ms", per_prop("rtl.blast"), "ms");
    report.metric("smt.aig_nodes", tally.aig_nodes as f64 / rounds, "count");
    report.metric("verify.portfolio_ms", per_prop("verify.portfolio"), "ms");
    report.metric("smt.clauses", tally.clauses as f64 / rounds, "count");
    report.metric("smt.conflicts", tally.conflicts as f64 / rounds, "count");
    report.metric("verify.revalidate_ms", per_prop("verify.revalidate"), "ms");
    report.metric(
        "verify.pdr_ms",
        tracer.self_ms("verify.pdr") / tally.pdr_properties.max(1) as f64,
        "ms",
    );
    report.metric(
        "smt.pdr_conflicts",
        tally.pdr_conflicts as f64 / rounds,
        "count",
    );
    report.metric(
        "verify.decided_share",
        tally.decided as f64 / props_n,
        "ratio",
    );
    report.metric(
        "verify.symbolic_win_share",
        tally.symbolic_wins as f64 / tally.decided.max(1) as f64,
        "ratio",
    );
    crate::trace_summary(&mut report, &tracer, &cal, &untraced_ms, &traced_ms);
    crate::write_trace(&tracer, "prove_regress", cfg);
    report
}
