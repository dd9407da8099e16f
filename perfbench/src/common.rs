//! Shared pieces of every workload: the seeded generator, the run
//! budget, order statistics, the benchmark's own span recorder, and the
//! process's heap high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::{Duration, Instant};

/// splitmix64: a small, fast, seedable generator. Every input the
/// benchmark feeds the program is drawn from one of these, so a seed
/// fixes the whole operation sequence.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` mixed with a per-use `stream` tag, so
    /// independent draws (order, positions, stimulus) never correlate.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over bytes: output digests for the correctness checks.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Seed of every workload's warm-up. Warm-up inputs do not depend on
/// the run's seed, so neither does the memory reading taken at its end.
pub const WARMUP_SEED: u64 = 0;

/// How long a workload runs. Workloads always execute whole rounds of
/// seeded work; the budget only decides how many rounds.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Keep starting rounds until this much measuring time has passed.
    Seconds(f64),
    /// Exactly this many measured rounds (tests).
    Rounds(usize),
}

impl Budget {
    /// Whether another round should start, given rounds done and the
    /// start of the measuring phase.
    pub fn more(&self, done: usize, started: Instant) -> bool {
        match *self {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() < s,
            Budget::Rounds(n) => done < n,
        }
    }
}

/// One workload run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measuring budget.
    pub budget: Budget,
    /// Traced run: record spans and report per-layer metrics.
    pub trace: bool,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Directory a traced run writes its spans to, if any.
    pub trace_dir: Option<&'static str>,
}

/// Nearest-rank percentile `p` in `0..=100` of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `setup` `reps` times, keeping the last result; returns it with
/// each repetition's start and time in seconds. A calibration sample
/// precedes every repetition.
pub fn timed_setup<T>(
    reps: usize,
    cal: &mut Calibration,
    mut setup: impl FnMut() -> T,
) -> (T, Vec<(Instant, f64)>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // Drop the previous instance first so its teardown is not timed.
        drop(last.take());
        cal.sample();
        let t = Instant::now();
        last = Some(setup());
        times.push((t, t.elapsed().as_secs_f64()));
    }
    (last.expect("at least one set-up ran"), times)
}

/// Full records kept for the written trace; beyond this the recorder
/// still aggregates every span but stops storing them one by one.
const MAX_STORED_SPANS: usize = 50_000;

/// One recorded span: a call the benchmark made into a layer.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `syntax.parse`.
    pub name: &'static str,
    /// Index of the enclosing span in the stored records, if stored.
    pub parent: Option<usize>,
    /// Operation (root span) the span belongs to.
    pub op: u64,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Totals for one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times: duration minus the time child spans cover.
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start: Instant,
    stored: Option<usize>,
    child_ns: u64,
}

/// The benchmark's own span recorder. Spans wrap the benchmark's calls
/// into each layer's public functions, nest by call order, stay in
/// memory, and are reduced to per-name self times when the run ends.
/// A disabled recorder does nothing and reads no clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    totals: BTreeMap<&'static str, SpanTotals>,
    ops: u64,
}

/// Handle for an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct SpanId(bool);

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            stack: Vec::new(),
            records: Vec::new(),
            totals: BTreeMap::new(),
            ops: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off between operations.
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    /// Opens a span nested in the innermost open one. A span opened with
    /// nothing open is an operation root and starts a new operation id.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(false);
        }
        if self.stack.is_empty() {
            self.ops += 1;
        }
        let start = Instant::now();
        let stored = if self.records.len() < MAX_STORED_SPANS {
            let parent = self.stack.last().and_then(|o| o.stored);
            self.records.push(SpanRecord {
                name,
                parent,
                op: self.ops,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
            });
            Some(self.records.len() - 1)
        } else {
            None
        };
        self.stack.push(Open {
            name,
            start,
            stored,
            child_ns: 0,
        });
        SpanId(true)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if !id.0 {
            return;
        }
        let end = Instant::now();
        let open = self.stack.pop().expect("span ends match begins");
        let dur = (end - open.start).as_nanos() as u64;
        if let Some(i) = open.stored {
            self.records[i].end_ns = (end - self.epoch).as_nanos() as u64;
        }
        let t = self.totals.entry(open.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let r = f();
        self.end(id);
        r
    }

    /// Per-name totals of every span recorded so far.
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of `name`, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.totals(name).self_ns as f64 / 1e6
    }

    /// Writes the stored spans (one JSON object per line) and the
    /// per-name reduction to `path`. Called once, after measuring.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for (name, t) in &self.totals {
            let _ = writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            );
        }
        for (i, r) in self.records.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.op, r.name, r.start_ns, r.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// The global allocator: the system allocator, counting the bytes the
/// process holds from it and their high-water mark until
/// [`peak_heap_mb`] is first read.
pub struct CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Whether allocations are still being counted.
static COUNTING: AtomicBool = AtomicBool::new(true);
/// Bytes held now.
static HELD: AtomicIsize = AtomicIsize::new(0);
/// Most bytes held at once.
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn count(bytes: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        let now = HELD.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the wrapper only updates counters.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// The most heap memory the process has held at once, in MiB, and the
/// end of counting: later allocations pay one relaxed load each. Heap
/// bytes are exact and repeat from run to run; the resident-set high-water
/// mark (`VmHWM`) moved by 4% between runs of one seed, because it also
/// counts the program's code and library pages, which the kernel maps
/// on fault in batches that depend on the page cache. The count leaves
/// out allocator overhead and thread stacks.
pub fn peak_heap_mb() -> f64 {
    COUNTING.store(false, Ordering::Relaxed);
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

/// Kernel time, in milliseconds, that a scale of 1 stands for: roughly
/// the kernel's time on an idle two-CPU x86-64 VM.
const KERNEL_NOMINAL_MS: f64 = 1.2;
/// Least time between two calibration samples.
const CALIBRATION_EVERY: Duration = Duration::from_millis(50);
/// Calibration samples, nearest in time, whose median scales one timed
/// sample.
const NEAREST: usize = 6;

/// An in-run measure of machine speed. On a shared machine the speed
/// of cache-resident, load-heavy and allocation-heavy code drifts by a
/// third within a minute while plain arithmetic does not move, so the
/// kernel does the same kinds of work the workloads do: a lane-row
/// bytecode interpreter over a 512 KiB arena, then allocation churn —
/// format keys, allocate key and value blocks, hash them into a table,
/// look every key up, free every block — on a heap of its own
/// ([`KernelHeap`]). The kernel never calls the program's allocator
/// after [`Calibration::new`], so a program change that grows or
/// fragments the process heap cannot slow the kernel and scale itself
/// away. Workloads take samples between operations; each timed sample
/// is then scaled by the kernel times nearest to it
/// ([`Calibration::scaled`]), so that it reads as a time on a machine
/// running the kernel at nominal speed.
pub struct Calibration {
    ops: Vec<(u8, u16, u16, u16)>,
    arena: Vec<u64>,
    heap: KernelHeap,
    samples: Vec<(Instant, f64)>,
    last: Option<Instant>,
}

impl Calibration {
    /// Lanes per interpreter row.
    const LANES: usize = 32;
    /// Arena rows.
    const SLOTS: usize = 2048;

    /// A calibration with a fixed kernel program.
    pub fn new() -> Calibration {
        let mut r = Rng::new(0xCA1B, 0);
        let ops = (0..3000)
            .map(|_| {
                (
                    r.below(8) as u8,
                    r.below(Self::SLOTS) as u16,
                    r.below(Self::SLOTS) as u16,
                    r.below(Self::SLOTS) as u16,
                )
            })
            .collect();
        let arena = (0..Self::SLOTS * Self::LANES)
            .map(|_| r.next_u64())
            .collect();
        Calibration {
            ops,
            arena,
            heap: KernelHeap::new(),
            samples: Vec::new(),
            last: None,
        }
    }

    /// Runs the kernel once and returns its time in milliseconds.
    fn kernel(&mut self) -> f64 {
        const L: usize = Calibration::LANES;
        let t = Instant::now();
        for _ in 0..2 {
            for &(op, a, b, d) in &self.ops {
                let (a, b, d) = (a as usize * L, b as usize * L, d as usize * L);
                for l in 0..L {
                    let x = self.arena[a + l];
                    let y = self.arena[b + l];
                    self.arena[d + l] = match op {
                        0 => x.wrapping_add(y),
                        1 => x ^ y,
                        2 => x & y,
                        3 => {
                            if x & 1 == 0 {
                                x
                            } else {
                                y
                            }
                        }
                        4 => x.rotate_left((y & 63) as u32),
                        5 => (x >> 3) | (y << 7),
                        6 => x.wrapping_mul(y | 1),
                        _ => !x,
                    };
                }
            }
        }
        let found = self.heap.churn();
        std::hint::black_box((&self.arena, found));
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Takes a sample now.
    pub fn sample(&mut self) {
        let at = Instant::now();
        let ms = self.kernel();
        self.samples.push((at, ms));
        self.last = Some(Instant::now());
    }

    /// Takes a sample if [`CALIBRATION_EVERY`] has passed since the last;
    /// called between operations, outside their timing.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= CALIBRATION_EVERY) {
            self.sample();
        }
    }

    /// Samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median kernel time of all samples, in milliseconds.
    pub fn kernel_ms(&self) -> f64 {
        median(&self.samples.iter().map(|s| s.1).collect::<Vec<_>>())
    }

    /// Factor that maps a time measured at `at` to nominal speed: the
    /// nominal kernel time over the median of the [`NEAREST`] samples
    /// closest in time, so drift within a run is corrected too.
    pub fn scale_at(&self, at: Instant) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let p = self.samples.partition_point(|s| s.0 < at);
        let lo = p
            .saturating_sub(NEAREST / 2)
            .min(self.samples.len().saturating_sub(NEAREST));
        let hi = (lo + NEAREST).min(self.samples.len());
        let near: Vec<f64> = self.samples[lo..hi].iter().map(|s| s.1).collect();
        KERNEL_NOMINAL_MS / median(&near)
    }

    /// Timed samples `(start, value)` scaled to nominal speed.
    pub fn scaled(&self, timed: &[(Instant, f64)]) -> Vec<f64> {
        timed.iter().map(|&(at, v)| v * self.scale_at(at)).collect()
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

/// The calibration kernel's own heap: one byte region allocated once,
/// carved into 16-byte size classes, with a LIFO free list per class
/// threaded through the free blocks and bump allocation when a list is
/// empty. Blocks are freed in hash-table order, so each run's blocks
/// land scattered over the region, as a general-purpose allocator's do.
struct KernelHeap {
    mem: Vec<u8>,
    bump: usize,
    free: [usize; KernelHeap::CLASSES],
    /// Open addressing: `(key block, value block, value length)`; a key
    /// block of 0 marks an empty slot (offset 0 is never handed out).
    table: Vec<(u32, u32, u32)>,
}

impl KernelHeap {
    /// Keys inserted, looked up and freed per run.
    const KEYS: u64 = 1500;
    /// Bytes of a key block.
    const KEY_BYTES: usize = 32;
    /// Size classes of 16 bytes each, up to 128 bytes.
    const CLASSES: usize = 9;
    /// End of a free list.
    const NIL: usize = usize::MAX;
    /// Region size: every block of one run fits at once.
    const BYTES: usize = 256 * 1024;
    /// Hash-table slots (a power of two).
    const TABLE: usize = 4096;

    fn new() -> KernelHeap {
        KernelHeap {
            mem: vec![0; Self::BYTES],
            bump: 16,
            free: [Self::NIL; Self::CLASSES],
            table: vec![(0, 0, 0); Self::TABLE],
        }
    }

    fn alloc(&mut self, bytes: usize) -> usize {
        let class = bytes.div_ceil(16);
        let head = self.free[class];
        if head == Self::NIL {
            let at = self.bump;
            self.bump += class * 16;
            assert!(self.bump <= self.mem.len(), "kernel heap exhausted");
            return at;
        }
        let next: [u8; 8] = self.mem[head..head + 8].try_into().expect("8 bytes");
        self.free[class] = u64::from_le_bytes(next) as usize;
        head
    }

    fn release(&mut self, at: usize, bytes: usize) {
        let class = bytes.div_ceil(16);
        let next = self.free[class] as u64;
        self.mem[at..at + 8].copy_from_slice(&next.to_le_bytes());
        self.free[class] = at;
    }

    /// Writes key `i` into `key`, zero-padded; returns its length.
    fn key(i: u64, key: &mut [u8; Self::KEY_BYTES]) -> usize {
        use std::io::Write as _;
        *key = [0; Self::KEY_BYTES];
        let mut rest = &mut key[..];
        let _ = write!(rest, "unit_{i}_{}", i.wrapping_mul(0x9E37_79B9));
        Self::KEY_BYTES - rest.len()
    }

    /// One run of churn; returns the summed value lengths found.
    fn churn(&mut self) -> usize {
        let mask = Self::TABLE - 1;
        let mut key = [0u8; Self::KEY_BYTES];
        self.table.fill((0, 0, 0));
        for i in 0..Self::KEYS {
            let len = Self::key(i, &mut key);
            let kb = self.alloc(Self::KEY_BYTES);
            self.mem[kb..kb + Self::KEY_BYTES].copy_from_slice(&key);
            let vlen = (i % 97) as usize;
            let vb = self.alloc(vlen.max(8));
            self.mem[vb..vb + vlen].fill(i as u8);
            let mut h = fnv(&key[..len]) as usize & mask;
            while self.table[h].0 != 0 {
                h = (h + 1) & mask;
            }
            self.table[h] = (kb as u32, vb as u32, vlen as u32);
        }
        let mut found = 0;
        for i in 0..Self::KEYS {
            let len = Self::key(i, &mut key);
            let mut h = fnv(&key[..len]) as usize & mask;
            while self.table[h].0 != 0 {
                let (kb, _, vlen) = self.table[h];
                if self.mem[kb as usize..kb as usize + Self::KEY_BYTES] == key {
                    found += vlen as usize;
                    break;
                }
                h = (h + 1) & mask;
            }
        }
        for h in 0..Self::TABLE {
            let (kb, vb, vlen) = self.table[h];
            if kb != 0 {
                self.release(kb as usize, Self::KEY_BYTES);
                self.release(vb as usize, (vlen as usize).max(8));
            }
        }
        found
    }
}

/// Restricts the calling thread, and every thread it starts later, to
/// the lowest-numbered CPU it may run on. Returns whether that worked.
pub fn pin_to_one_cpu() -> bool {
    /// `cpu_set_t`: a 1024-bit mask.
    const SET_WORDS: usize = 16;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // size passed, and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|&w| w != 0) else {
        return false;
    };
    let bit = mask[word].trailing_zeros();
    let mut one = [0u64; SET_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a readable buffer of exactly `size` bytes holding
    // a CPU the thread is already allowed on; pid 0 is the caller.
    unsafe { sched_setaffinity(0, size, one.as_ptr()) == 0 }
}

/// A named metric value with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Operations attempted in the measuring phase.
    pub attempted: u64,
    /// Operations that failed, or whose output failed a check.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Digest of the generated operation sequence (tests).
    pub sequence: Vec<String>,
    /// Exact counts that must repeat for a seed (tests).
    pub exact: BTreeMap<String, u64>,
    /// Exact counts that must not depend on the seed at all (tests).
    pub per_design: BTreeMap<String, u64>,
    /// Heap high-water mark at the end of warm-up, in MiB.
    pub peak_heap_mb: Option<f64>,
}

impl Report {
    /// Appends a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }
}
