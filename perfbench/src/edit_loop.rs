//! `edit_loop`: a designer editing in an editor, against `anvild`.
//!
//! One closed-loop client talks JSON-RPC to an in-process
//! [`CompileService::serve`] over a `UnixStream` pair. Set-up opens the
//! ten suite files and compiles each once. Every operation then sends
//! one seeded edit of one file (`update`) followed by `compile`, and
//! waits for both replies. Edits come in blocks that hold, for every
//! file alike, [`COMMENTS_PER_FILE`] comment-only edits, one one-proc
//! semantic edit and one timing-hazard edit, in seeded order; so the
//! seed changes the sequence and the positions, never the mix. The mix
//! is an assumption, not taken from a recorded editing session.
//!
//! * comment-only: a `//` line at a seeded line boundary. Reparse, then
//!   every unit hits the cache.
//! * semantic: a fresh register declaration in the file's proc, named
//!   by the operation index, so the proc misses at check, optimize,
//!   lower and emit every time.
//! * hazard: the paper's Fig. 1 unsafe `Top` appended. Type checking
//!   must reject it; reports with violations are never cached.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::Instant;

use anvil_core::{CacheStats, Session};
use anvild::{CompileService, Incoming, Json, COMPILE_FAILED};

use crate::common::{
    fnv, ms, timed_setup, Calibration, Report, Rng, RunConfig, Tracer, WARMUP_SEED,
};

/// Comment-only edits per file per block.
pub const COMMENTS_PER_FILE: usize = 6;
/// Percentile of the edit round trip reported as `op_tail_ms`. Edits of
/// the largest file (AES) are a tenth of all edits and the slowest
/// ones, hazard edits below comment edits below semantic edits; p95
/// sits in the middle of that cluster, among AES's comment edits, and
/// not on the edge where p90 falls.
const TAIL: f64 = 95.0;
/// Warm-up blocks run after set-up and before measuring: enough
/// semantic edits to fill [`DAEMON_CACHE_CAPACITY`], so memory has
/// reached its plateau before measuring starts.
const WARMUP_BLOCKS: usize = 6;
/// The daemon's artifact-cache bound. The working set of the ten files
/// is about 45 artifacts; every semantic edit adds four new ones.
const DAEMON_CACHE_CAPACITY: usize = 256;
/// Blocks whose exact counts are reported.
const PROBE_BLOCKS: usize = 2;
/// Every this many accepted operations, one is re-compiled on a fresh
/// session after measuring and compared byte for byte.
const VERIFY_EVERY: u64 = 16;
/// At most this many fresh-session comparisons per run.
const VERIFY_CAP: usize = 192;

/// The three edit kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A `//` comment line: parse only, all cache hits.
    Comment,
    /// One new register in the file's proc: one unit recompiles.
    Semantic,
    /// The Fig. 1 unsafe `Top` appended: must be rejected.
    Hazard,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Comment => "comment",
            Kind::Semantic => "semantic",
            Kind::Hazard => "hazard",
        }
    }
}

/// One generated edit: the full new text of one file.
#[derive(Clone, Debug)]
pub struct Edit {
    /// Index into the suite.
    pub file: usize,
    /// What kind of edit it is.
    pub kind: Kind,
    /// The file's whole text after the edit.
    pub text: String,
}

/// The suite files the editor opens: `(name, text)`.
pub fn files() -> Vec<(&'static str, String)> {
    anvil_designs::suite_sources()
}

/// A session as the daemon is configured for the suite: AES's S-box
/// registered as extern IP.
pub fn suite_session() -> Session {
    let mut s = Session::new();
    s.add_extern(anvil_designs::aes::sbox_module());
    s
}

fn uri(name: &str) -> String {
    format!("mem:{name}.anvil")
}

fn edit_text(base: &str, kind: Kind, n: u64, rng: &mut Rng, hazard: &str) -> String {
    match kind {
        Kind::Comment => {
            let starts: Vec<usize> = std::iter::once(0)
                .chain(base.match_indices('\n').map(|(i, _)| i + 1))
                .collect();
            let at = starts[rng.below(starts.len())];
            format!("{}// perfbench edit {n}\n{}", &base[..at], &base[at..])
        }
        Kind::Semantic => {
            let proc_at = base.find("proc ").expect("suite files declare a proc");
            let body = proc_at + base[proc_at..].find('{').expect("proc has a body") + 1;
            format!(
                "{} reg perfbench_e{n} : logic[8];{}",
                &base[..body],
                &base[body..]
            )
        }
        Kind::Hazard => format!("{base}\n{hazard}\n"),
    }
}

/// Block `b` of the seeded edit stream. `counter` numbers operations
/// across blocks so semantic edits are always new to the cache.
pub fn block(seed: u64, b: u64, counter: &mut u64, bases: &[(&str, String)]) -> Vec<Edit> {
    let mut rng = Rng::new(seed, 0xED17_0000 + b);
    let mut plan = Vec::new();
    for file in 0..bases.len() {
        plan.extend(std::iter::repeat_n(
            (file, Kind::Comment),
            COMMENTS_PER_FILE,
        ));
        plan.push((file, Kind::Semantic));
        plan.push((file, Kind::Hazard));
    }
    rng.shuffle(&mut plan);
    let hazard = anvil_designs::hazard::fig1_top_unsafe_anvil();
    plan.into_iter()
        .map(|(file, kind)| {
            *counter += 1;
            Edit {
                file,
                kind,
                text: edit_text(&bases[file].1, kind, *counter, &mut rng, &hazard),
            }
        })
        .collect()
}

/// The JSON-RPC client side of one connection.
struct Client {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    next_id: i64,
    line: String,
}

impl Client {
    /// Sends one request and reads frames until its response; returns
    /// the response and its size on the wire.
    fn call(&mut self, method: &str, params: Json) -> (Json, usize) {
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = Incoming::request(id, method, params).to_frame().to_string();
        frame.push('\n');
        self.writer
            .write_all(frame.as_bytes())
            .expect("daemon socket accepts writes");
        loop {
            self.line.clear();
            let n = self
                .reader
                .read_line(&mut self.line)
                .expect("daemon socket reads");
            assert!(n > 0, "daemon closed the connection");
            let msg = Json::parse(self.line.trim_end()).expect("daemon frames are JSON");
            if msg.get("id").and_then(Json::as_i64) == Some(id) {
                return (msg, n);
            }
        }
    }
}

/// A running daemon with one connected client.
struct Daemon {
    service: Arc<CompileService>,
    client: Client,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    fn start() -> Daemon {
        let mut session = suite_session();
        session.set_cache_capacity(DAEMON_CACHE_CAPACITY);
        let service = Arc::new(CompileService::with_session(session));
        let (client_end, server_end) = UnixStream::pair().expect("socketpair");
        let srv = Arc::clone(&service);
        let thread = std::thread::spawn(move || {
            let reader = BufReader::new(server_end.try_clone().expect("clone server end"));
            srv.serve(reader, server_end).expect("serve loop");
        });
        let reader = BufReader::new(client_end.try_clone().expect("clone client end"));
        Daemon {
            service,
            client: Client {
                writer: client_end,
                reader,
                next_id: 1,
                line: String::new(),
            },
            thread: Some(thread),
        }
    }

    fn stats(&self) -> CacheStats {
        self.service.session().cache_stats()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.client.call("shutdown", Json::Null);
        let _ = self.client.writer.shutdown(std::net::Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// What one edit's reply says.
struct Outcome {
    ok: bool,
    violations: u64,
    sv: Option<String>,
}

fn check_reply(kind: Kind, update: &Json, compile: &Json) -> Outcome {
    let bad = Outcome {
        ok: false,
        violations: 0,
        sv: None,
    };
    if update.get("result").is_none() {
        return bad;
    }
    match kind {
        Kind::Hazard => {
            let err = compile.get("error");
            let code = err.and_then(|e| e.get("code")).and_then(Json::as_i64);
            let diags = err
                .and_then(|e| e.get("data"))
                .and_then(|d| d.get("diagnostics"))
                .and_then(Json::as_array)
                .map_or(0, |d| d.len() as u64);
            Outcome {
                ok: code == Some(COMPILE_FAILED) && diags >= 1,
                violations: diags,
                sv: None,
            }
        }
        _ => match compile
            .get("result")
            .and_then(|r| r.get("systemverilog"))
            .and_then(Json::as_str)
        {
            Some(sv) if sv.contains("module") => Outcome {
                ok: true,
                violations: 0,
                sv: Some(sv.to_string()),
            },
            _ => bad,
        },
    }
}

fn params(pairs: &[(&str, &str)]) -> Json {
    Json::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), Json::str(*v)))
            .collect(),
    )
}

/// Mirrors of the daemon's history used by the traced run to time
/// each layer from outside: a second service driven through `handle`
/// (no socket), a compile-only session, and a check-only session.
struct Mirrors {
    handle: CompileService,
    compile: Session,
    check: Session,
    next_id: i64,
}

impl Mirrors {
    fn new(bases: &[(&str, String)]) -> Mirrors {
        let mut m = Mirrors {
            handle: CompileService::with_session(suite_session()),
            compile: suite_session(),
            check: suite_session(),
            next_id: 1,
        };
        for (name, text) in bases {
            let u = uri(name);
            m.request("open", params(&[("uri", &u), ("text", text)]));
            m.request("compile", params(&[("uri", &u)]));
            let _ = m.compile.compile(text);
            let _ = m.check.check(text);
        }
        m
    }

    fn request(&mut self, method: &str, p: Json) {
        self.next_id += 1;
        let msg = Incoming::request(self.next_id, method, p);
        let _ = self.handle.handle(msg, &mut |_| {});
    }

    /// Replays one edit through every mirror, each call in its own span.
    fn replay(&mut self, tracer: &mut Tracer, name: &str, text: &str) {
        let u = uri(name);
        let sp = tracer.begin("anvild.handle");
        self.request("update", params(&[("uri", &u), ("text", text)]));
        self.request("compile", params(&[("uri", &u)]));
        tracer.end(sp);
        let compile = &self.compile;
        let _ = tracer.time("core.compile", || compile.compile(text).is_ok());
        let check = &self.check;
        let _ = tracer.time("typeck.check", || check.check(text).is_ok());
        let _ = tracer.time("syntax.parse", || check.parse(text).is_ok());
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Report {
    let bases = files();
    let mut report = Report::default();
    // Serial work: pinning keeps wake-ups and caches on one CPU, which
    // steadies run-to-run timings on a shared machine.
    crate::common::pin_to_one_cpu();
    let mut cal = Calibration::new();

    let (mut daemon, setup_s) = timed_setup(cfg.setup_reps, &mut cal, || {
        let mut d = Daemon::start();
        for (name, text) in &bases {
            let u = uri(name);
            d.client
                .call("open", params(&[("uri", &u), ("text", text)]));
            let (resp, _) = d.client.call("compile", params(&[("uri", &u)]));
            assert!(resp.get("result").is_some(), "suite file `{name}` compiles");
        }
        d
    });
    let mut mirrors = cfg.trace.then(|| Mirrors::new(&bases));
    let mut tracer = Tracer::new(false);

    let mut counter = 0u64;
    let mut block_no = 0u64;
    // Warm-up: identical for every run, so the cache state at the first
    // measured operation is too.
    for _ in 0..WARMUP_BLOCKS {
        for e in block(WARMUP_SEED, block_no, &mut counter, &bases) {
            let u = uri(bases[e.file].0);
            daemon
                .client
                .call("update", params(&[("uri", &u), ("text", &e.text)]));
            daemon.client.call("compile", params(&[("uri", &u)]));
            if let Some(m) = mirrors.as_mut() {
                m.replay(&mut tracer, bases[e.file].0, &e.text);
            }
        }
        block_no += 1;
    }
    // Memory is read at the end of warm-up, whose work is the same in
    // every run and holds no calibration samples.
    report.peak_heap_mb = Some(crate::common::peak_heap_mb());

    let mut all = Vec::new();
    let mut comment_ms = Vec::new();
    let mut semantic_ms = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut to_verify: Vec<(String, u64)> = Vec::new();
    let mut probe_ops = 0u64;
    let (mut probe_hits, mut probe_misses, mut probe_viol) = (0u64, 0u64, 0u64);
    let (mut probe_resp, mut probe_sv) = (0u64, 0u64);

    let started = Instant::now();
    let mut done = 0;
    while cfg.budget.more(done, started) {
        // A traced run alternates untraced and traced rounds, so both
        // sides of the overhead estimate see the same machine drift.
        let traced = cfg.trace && done % 2 == 1;
        tracer.set_enabled(traced);
        let edits = block(cfg.seed, block_no, &mut counter, &bases);
        let probing = done < PROBE_BLOCKS;
        for e in &edits {
            cal.tick();
            let name = bases[e.file].0;
            let u = uri(name);
            let before = daemon.stats();
            let op = tracer.begin("op");
            let rt = tracer.begin("anvild.roundtrip");
            let t = Instant::now();
            let (upd, _) = daemon
                .client
                .call("update", params(&[("uri", &u), ("text", &e.text)]));
            let (resp, bytes) = daemon.client.call("compile", params(&[("uri", &u)]));
            let raw = ms(t.elapsed());
            tracer.end(rt);
            if let Some(m) = mirrors.as_mut() {
                m.replay(&mut tracer, name, &e.text);
            }
            tracer.end(op);
            let delta = daemon.stats() - before;

            report.attempted += 1;
            let out = check_reply(e.kind, &upd, &resp);
            if !out.ok {
                report.failed += 1;
            }
            if let Some(sv) = &out.sv {
                if report.attempted % VERIFY_EVERY == 0 && to_verify.len() < VERIFY_CAP {
                    to_verify.push((e.text.clone(), fnv(sv.as_bytes())));
                }
            }
            all.push((t, raw));
            match e.kind {
                Kind::Comment => comment_ms.push((t, raw)),
                Kind::Semantic => semantic_ms.push((t, raw)),
                Kind::Hazard => {}
            }
            if traced {
                traced_ms.push((t, raw));
            } else {
                untraced_ms.push((t, raw));
            }
            if probing {
                probe_ops += 1;
                probe_hits += delta.hits();
                probe_misses += delta.misses();
                probe_viol += out.violations;
                probe_resp += bytes as u64;
                probe_sv += out.sv.as_ref().map_or(0, |s| s.len() as u64);
                report.sequence.push(format!("{name}:{}", e.kind.label()));
                report
                    .per_design
                    .entry(format!("misses.{name}.{}", e.kind.label()))
                    .or_insert(delta.misses());
                if e.kind == Kind::Comment {
                    report
                        .per_design
                        .entry(format!("sv_bytes.{name}"))
                        .or_insert(out.sv.as_ref().map_or(0, |s| s.len() as u64));
                }
            }
        }
        block_no += 1;
        done += 1;
    }
    drop(daemon);

    // Correctness reference outside the timed region: a fresh session
    // per sampled edit, which shares no cache with the daemon.
    for (text, digest) in &to_verify {
        let fresh = suite_session().compile(text);
        if fresh.map(|o| fnv(o.systemverilog.as_bytes())).ok() != Some(*digest) {
            report.failed += 1;
        }
    }

    let per_op = |x: u64| x as f64 / probe_ops.max(1) as f64;
    report.exact.insert("probe_ops".into(), probe_ops);
    report.exact.insert("cache_hits".into(), probe_hits);
    report.exact.insert("cache_misses".into(), probe_misses);
    report.exact.insert("violations".into(), probe_viol);
    report.exact.insert("sv_bytes".into(), probe_sv);

    if !cfg.trace {
        crate::end_to_end(
            &mut report,
            &cal,
            &setup_s,
            &all,
            TAIL,
            &comment_ms,
            &semantic_ms,
        );
        return report;
    }

    let ops = tracer.totals("op").count.max(1) as f64;
    let per = |name: &str| tracer.self_ms(name) / ops;
    let parse = per("syntax.parse");
    let handle = per("anvild.handle");
    let check = (per("typeck.check") - parse).max(0.0);
    let compile = per("core.compile");
    report.metric("anvild.roundtrip_ms", per("anvild.roundtrip"), "ms");
    report.metric("anvild.handle_ms", handle, "ms");
    report.metric("anvild.response_bytes", per_op(probe_resp), "bytes");
    report.metric("syntax.parse_ms", parse, "ms");
    report.metric("syntax.parse_share", parse / handle, "ratio");
    report.metric("core.cache_hits", per_op(probe_hits), "count");
    report.metric("core.cache_misses", per_op(probe_misses), "count");
    report.metric("core.compile_ms", compile, "ms");
    report.metric("typeck.check_ms", check, "ms");
    report.metric("typeck.violations", per_op(probe_viol), "count");
    report.metric(
        "codegen.back_ms",
        (compile - per("typeck.check")).max(0.0),
        "ms",
    );
    report.metric("rtl.sv_bytes", per_op(probe_sv), "bytes");
    crate::trace_summary(&mut report, &tracer, &cal, &untraced_ms, &traced_ms);
    crate::write_trace(&tracer, "edit_loop", cfg);
    report
}
