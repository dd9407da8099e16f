//! `sim_sweep`: a testbench sweep over the ten suite designs.
//!
//! Set-up compiles and flattens each design and lowers it once
//! (`TapeProgram::compile_with`, 32-lane stride). Each round then runs
//! three passes back to back, so machine drift hits all three alike:
//!
//! * a 32-lane `SimBatch` pass under random stimulus (a fresh value on
//!   every input of every lane every cycle);
//! * a 32-lane `SimBatch` pass under held stimulus: each input keeps
//!   its values for a seeded run of 1 to [`MAX_HOLD`] cycles, which lets
//!   dirty-region skipping work;
//! * a scalar `Sim` testbench that pokes inputs by name, on
//!   [`SCALAR_STREAMS`] of the random pass's lanes per design.
//!
//! Every pass is [`CYCLES`] cycles. Scalar fingerprints must equal the
//! batch lanes fed the same streams, and one seeded lane per round must
//! match the reference tree interpreter.

use std::time::Instant;

use anvil_designs::tb::input_ports;
use anvil_rtl::{Bits, Module, SignalId};
use anvil_sim::{Backend, Sim, SimBatch, TapeOptions, TapeProgram};

use crate::common::{ms, timed_setup, Calibration, Report, Rng, RunConfig, Tracer, WARMUP_SEED};

/// Lanes per batch: the widest monomorphized lane engine.
pub const LANES: usize = 32;
/// Cycles per design per pass.
pub const CYCLES: u64 = 256;
/// Longest run of cycles a held input keeps its value.
pub const MAX_HOLD: usize = 32;
/// Streams per design the scalar testbench replays.
pub const SCALAR_STREAMS: usize = 4;
/// Warm-up rounds before measuring.
const WARMUP_ROUNDS: usize = 2;
/// Percentile of the random pass reported as `op_tail_ms`: every pass
/// runs the same designs, so p90 is the machine's tail.
const TAIL: f64 = 90.0;
/// Rounds whose exact counts are reported.
const PROBE_ROUNDS: usize = 2;

/// The prepared suite.
pub struct Prepared {
    modules: Vec<Module>,
    inputs: Vec<Vec<(String, usize)>>,
    programs: Vec<TapeProgram>,
    batches: Vec<SimBatch>,
    scalars: Vec<Sim>,
}

/// Compiles, flattens and lowers the suite; lowering is timed in
/// `sim.lower` spans.
pub fn prepare(tracer: &mut Tracer) -> Prepared {
    let modules: Vec<Module> = anvil_designs::registry()
        .into_iter()
        .map(|d| (d.anvil)())
        .collect();
    let inputs = modules.iter().map(input_ports).collect();
    let opts = TapeOptions {
        stride: Some(LANES),
        ..TapeOptions::default()
    };
    let programs: Vec<TapeProgram> = modules
        .iter()
        .map(|m| {
            tracer.time("sim.lower", || {
                TapeProgram::compile_with(m, opts).expect("suite design lowers")
            })
        })
        .collect();
    let batches = programs.iter().map(|p| p.batch(LANES)).collect();
    let scalars = modules
        .iter()
        .map(|m| Sim::with_backend(m, Backend::Compiled).expect("suite design simulates"))
        .collect();
    Prepared {
        modules,
        inputs,
        programs,
        batches,
        scalars,
    }
}

/// Seed of the stimulus stream of `(round, design, lane)`.
fn stream(seed: u64, round: u64, design: usize, lane: usize) -> Rng {
    Rng::new(
        seed,
        (round << 32) ^ ((design as u64) << 16) ^ lane as u64 ^ 0x5_1300_0000_0000,
    )
}

/// One batch pass over every design. `held` selects held stimulus.
/// Returns the per-design lane fingerprints.
fn batch_pass(
    p: &mut Prepared,
    seed: u64,
    round: u64,
    held: bool,
    tracer: &mut Tracer,
) -> Vec<Vec<u64>> {
    let (poke_name, step_name) = if held {
        ("sim.held_poke", "sim.held_step")
    } else {
        ("sim.batch_poke", "sim.batch_step")
    };
    let mut fps = Vec::with_capacity(p.batches.len());
    let mut vals = vec![0u64; LANES];
    for (d, batch) in p.batches.iter_mut().enumerate() {
        batch.reset();
        let ids: Vec<SignalId> = p.inputs[d]
            .iter()
            .map(|(name, _)| batch.input_id(name).expect("input id"))
            .collect();
        let mut rngs: Vec<Rng> = (0..LANES).map(|l| stream(seed, round, d, l)).collect();
        // Held stimulus: one hold schedule per input, shared by the
        // lanes (each lane still draws its own values), so an input's
        // row is unchanged for the whole run.
        let mut schedule = stream(seed, round, d, LANES);
        let mut left = vec![0usize; ids.len()];
        let mut rows = vec![vec![0u64; LANES]; ids.len()];
        for _ in 0..CYCLES {
            let sp = tracer.begin(poke_name);
            for (k, id) in ids.iter().enumerate() {
                if held {
                    if left[k] == 0 {
                        left[k] = 1 + schedule.below(MAX_HOLD);
                        for (v, rng) in rows[k].iter_mut().zip(rngs.iter_mut()) {
                            *v = rng.next_u64();
                        }
                    }
                    left[k] -= 1;
                    batch.poke_u64s(*id, &rows[k]);
                } else {
                    for (v, rng) in vals.iter_mut().zip(rngs.iter_mut()) {
                        *v = rng.next_u64();
                    }
                    batch.poke_u64s(*id, &vals);
                }
            }
            tracer.end(sp);
            let sp = tracer.begin(step_name);
            batch.step();
            tracer.end(sp);
        }
        fps.push((0..LANES).map(|l| batch.state_fingerprint(l)).collect());
    }
    fps
}

/// Replays lane `lane`'s random stream of design `d` on `sim`, poking
/// inputs by name. Returns the end-state fingerprint.
fn scalar_stream(
    sim: &mut Sim,
    inputs: &[(String, usize)],
    mut rng: Rng,
    tracer: &mut Tracer,
) -> u64 {
    sim.reset();
    for _ in 0..CYCLES {
        let sp = tracer.begin("sim.scalar_poke");
        for (name, width) in inputs {
            sim.poke(name, Bits::from_u64(rng.next_u64(), *width))
                .expect("poking an input");
        }
        tracer.end(sp);
        let sp = tracer.begin("sim.scalar_step");
        sim.step().expect("stepping");
        tracer.end(sp);
    }
    sim.state_fingerprint()
}

/// The lanes of design `d` the scalar testbench replays in `round`.
fn scalar_lanes(seed: u64, round: u64, d: usize) -> Vec<usize> {
    let mut lanes: Vec<usize> = (0..LANES).collect();
    Rng::new(seed, 0x5CA1_0000 ^ (round << 8) ^ d as u64).shuffle(&mut lanes);
    lanes.truncate(SCALAR_STREAMS);
    lanes
}

/// Start and time in milliseconds of one round's passes.
struct RoundTimes {
    random: (Instant, f64),
    held: (Instant, f64),
    scalar: (Instant, f64),
}

/// One round. Returns the pass times, whether every check held, and
/// the fold of the random pass's fingerprints.
fn round(p: &mut Prepared, seed: u64, r: u64, tracer: &mut Tracer) -> (RoundTimes, bool, u64) {
    let op = tracer.begin("op");
    let sp = tracer.begin("tb.random");
    let t = Instant::now();
    let fps = batch_pass(p, seed, r, false, tracer);
    let random = (t, ms(t.elapsed()));
    tracer.end(sp);

    let sp = tracer.begin("tb.held");
    let t = Instant::now();
    let _ = batch_pass(p, seed, r, true, tracer);
    let held = (t, ms(t.elapsed()));
    tracer.end(sp);

    let sp = tracer.begin("tb.scalar");
    let t = Instant::now();
    let mut ok = true;
    let mut scalar_fps = Vec::new();
    for d in 0..p.scalars.len() {
        for lane in scalar_lanes(seed, r, d) {
            let rng = stream(seed, r, d, lane);
            let fp = scalar_stream(&mut p.scalars[d], &p.inputs[d], rng, tracer);
            scalar_fps.push((d, lane, fp));
        }
    }
    let scalar = (t, ms(t.elapsed()));
    tracer.end(sp);

    // Checks, outside the timed passes: scalar equals batch, and one
    // seeded lane equals the reference tree interpreter.
    let sp = tracer.begin("tb.check");
    for &(d, lane, fp) in &scalar_fps {
        ok &= fps[d][lane] == fp;
    }
    let mut pick = Rng::new(seed, 0x7EE0_0000 ^ r);
    let (d, lane) = (pick.below(p.modules.len()), pick.below(LANES));
    let mut tree = Sim::with_backend(&p.modules[d], Backend::Tree).expect("tree engine builds");
    let fp = scalar_stream(
        &mut tree,
        &p.inputs[d],
        stream(seed, r, d, lane),
        &mut Tracer::new(false),
    );
    ok &= fps[d][lane] == fp;
    tracer.end(sp);
    tracer.end(op);

    let mut fold = 0u64;
    for (d, lanes) in fps.iter().enumerate() {
        for (l, fp) in lanes.iter().enumerate() {
            fold ^= fp.rotate_left(((d * LANES + l) % 63) as u32);
        }
    }
    (
        RoundTimes {
            random,
            held,
            scalar,
        },
        ok,
        fold,
    )
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let mut report = Report::default();
    // Serial work: pinning keeps wake-ups and caches on one CPU, which
    // steadies run-to-run timings on a shared machine.
    crate::common::pin_to_one_cpu();
    let mut lower_tracer = Tracer::new(cfg.trace);
    let mut cal = Calibration::new();
    let (mut prep, setup_s) = timed_setup(cfg.setup_reps, &mut cal, || prepare(&mut lower_tracer));
    let lowerings = lower_tracer.totals("sim.lower");

    let mut sink = Tracer::new(false);
    for r in 0..WARMUP_ROUNDS as u64 {
        let _ = round(&mut prep, WARMUP_SEED, r, &mut sink);
    }
    // Memory is read at the end of warm-up, whose work is the same in
    // every run and holds no calibration samples.
    report.peak_heap_mb = Some(crate::common::peak_heap_mb());

    let (mut random, mut held, mut scalar) = (Vec::new(), Vec::new(), Vec::new());
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
        let (times, ok, fold) = round(
            &mut prep,
            cfg.seed,
            (WARMUP_ROUNDS + done) as u64,
            &mut tracer,
        );
        report.attempted += 1;
        if !ok {
            report.failed += 1;
        }
        random.push(times.random);
        held.push(times.held);
        scalar.push(times.scalar);
        if traced {
            traced_ms.push(times.random);
        } else {
            untraced_ms.push(times.random);
        }
        if done < PROBE_ROUNDS {
            report.sequence.push(format!("{:016x}", fold));
            report.exact.insert(format!("fingerprints.{done}"), fold);
        }
        done += 1;
    }

    let tape_ops: u64 = prep
        .programs
        .iter()
        .map(|p| p.op_mix().iter().map(|(_, n)| *n as u64).sum::<u64>())
        .sum();
    let regions: u64 = prep.programs.iter().map(|p| p.region_count() as u64).sum();
    report.exact.insert("tape_ops".into(), tape_ops);
    report.exact.insert("regions".into(), regions);
    for (m, p) in prep.modules.iter().zip(&prep.programs) {
        let ops: usize = p.op_mix().iter().map(|(_, n)| n).sum();
        report
            .per_design
            .insert(format!("tape_ops.{}", m.name), ops as u64);
        report
            .per_design
            .insert(format!("regions.{}", m.name), p.region_count() as u64);
    }

    if !cfg.trace {
        crate::end_to_end(&mut report, &cal, &setup_s, &random, TAIL, &held, &scalar);
        return report;
    }

    let designs = prep.modules.len() as f64;
    let traced_rounds = traced_ms.len() as f64;
    let batch_cl = traced_rounds * designs * (CYCLES as f64) * LANES as f64;
    let scalar_c = traced_rounds * designs * (CYCLES as f64) * SCALAR_STREAMS as f64;
    let ns = |name: &str, per: f64| tracer.totals(name).self_ns as f64 / per.max(1.0);
    report.metric(
        "sim.lower_ms",
        lowerings.total_ns as f64 / 1e6 / (lowerings.count.max(1) as f64 / designs),
        "ms",
    );
    report.metric("sim.tape_ops", tape_ops as f64, "count");
    report.metric("sim.regions", regions as f64, "count");
    report.metric("sim.batch_poke_ns", ns("sim.batch_poke", batch_cl), "ns");
    report.metric("sim.batch_step_ns", ns("sim.batch_step", batch_cl), "ns");
    report.metric("sim.held_poke_ns", ns("sim.held_poke", batch_cl), "ns");
    report.metric("sim.held_step_ns", ns("sim.held_step", batch_cl), "ns");
    report.metric("sim.scalar_poke_ns", ns("sim.scalar_poke", scalar_c), "ns");
    report.metric("sim.scalar_step_ns", ns("sim.scalar_step", scalar_c), "ns");
    crate::trace_summary(&mut report, &tracer, &cal, &untraced_ms, &traced_ms);
    crate::write_trace(&tracer, "sim_sweep", cfg);
    report
}
