//! Host-normalized timing, failure accounting, the determinism guard,
//! the closed-loop pass runner of the single-threaded workloads, and
//! [`drive`], which sets up, times and reports every workload.

use crate::calib::{splitmix64, Calibration, REF_NOMINAL_MS};
use crate::stats::{geomean_of_percentiles, median, percentile, KindSamples};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Wall time of one op and of the calibration call right before it.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub wall_ms: f64,
    pub ref_ms: f64,
}

impl Timing {
    /// Factor that maps this op's raw times to host-normalized times.
    pub fn scale(&self) -> f64 {
        REF_NOMINAL_MS / self.ref_ms
    }

    pub fn norm_ms(&self) -> f64 {
        self.wall_ms * self.scale()
    }
}

/// Per-thread timing context: owns a calibration unit.
pub struct Host {
    calib: Calibration,
}

impl Host {
    pub fn new() -> Self {
        Host {
            calib: Calibration::new(),
        }
    }

    /// Calibrate, then run and time `op` on this thread.
    pub fn timed<R>(&mut self, op: impl FnOnce() -> R) -> (R, Timing) {
        let ref_ms = self.calib.run();
        let t0 = Instant::now();
        let r = op();
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        (r, Timing { wall_ms, ref_ms })
    }
}

/// Spans of one op's layer calls, plus the search-effort counts the
/// program does not make deterministic (see [`Layers::drift`]). Off in
/// untraced runs, where `span` only calls through.
pub struct Tracer {
    on: bool,
    spans: Vec<(&'static str, Duration)>,
    effort: Vec<(&'static str, u64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Vec::new(),
            effort: Vec::new(),
        }
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        self.spans.push((name, t0.elapsed()));
        r
    }

    /// Record a span measured elsewhere (e.g. a `PhaseTimings` entry).
    pub fn push(&mut self, name: &'static str, d: Duration) {
        if self.on {
            self.spans.push((name, d));
        }
    }

    /// Record a search-effort count that may differ between passes.
    pub fn effort(&mut self, name: &'static str, v: u64) {
        if self.on {
            self.effort.push((name, v));
        }
    }
}

/// What one op produced, beyond its time. Compared across passes: the
/// same kind must yield the same value every time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OpOut {
    /// Simulated cycles of the generated code.
    pub cc: u64,
    /// Vector-memory slots the generated code uses.
    pub slots: u64,
    /// Exact per-layer counts, by metric name.
    pub counts: Vec<(&'static str, u64)>,
}

/// Checked-op accounting for one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Accounting {
    pub attempted: u64,
    pub failed: u64,
}

impl Accounting {
    /// Count a failed op; the first few are explained on stderr.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("perfbench: failed op: {what}");
        }
    }

    /// Check `out` against the reference output for its kind, setting
    /// the reference on first sight. `false` (and a failed op) on any
    /// difference.
    pub fn check_determinism(
        &mut self,
        name: &str,
        reference: &mut Option<OpOut>,
        out: OpOut,
    ) -> bool {
        match reference {
            None => {
                *reference = Some(out);
                true
            }
            Some(r) if *r == out => true,
            Some(r) => {
                self.fail(format!(
                    "{name}: output changed between passes: {r:?} vs {out:?}"
                ));
                false
            }
        }
    }
}

/// Traced-run samples per kind: normalized layer times (ms) and effort
/// counts, metric → kind → samples.
#[derive(Default)]
pub struct Layers {
    times: BTreeMap<&'static str, BTreeMap<usize, Vec<f64>>>,
    effort: BTreeMap<usize, Vec<Vec<(&'static str, u64)>>>,
}

impl Layers {
    /// Fold one op's spans in (summing repeated names within the op) and
    /// keep its effort counts.
    pub fn add(&mut self, kind: usize, tr: Tracer, scale: f64) {
        let mut per_op: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (name, d) in tr.spans {
            *per_op.entry(name).or_default() += d.as_secs_f64() * 1e3 * scale;
        }
        for (name, ms) in per_op {
            let samples = self.times.entry(name).or_default().entry(kind);
            samples.or_default().push(ms);
        }
        if !tr.effort.is_empty() {
            self.effort.entry(kind).or_default().push(tr.effort);
        }
    }

    /// Each layer's time (and effort count) in one median pass: the sum
    /// over kinds of the kind's median.
    pub fn per_pass(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = self
            .times
            .iter()
            .map(|(name, kinds)| (*name, kinds.values().filter_map(|v| median(v)).sum()))
            .collect();
        let mut effort: BTreeMap<&'static str, f64> = BTreeMap::new();
        for samples in self.effort.values() {
            for &(name, _) in &samples[0] {
                let vals: Vec<f64> = samples
                    .iter()
                    .flat_map(|s| s.iter().filter(|(n, _)| *n == name).map(|(_, v)| *v as f64))
                    .collect();
                *effort.entry(name).or_default() += median(&vals).unwrap_or(0.0);
            }
        }
        out.extend(effort);
        out
    }

    /// Ops whose effort counts differ from their kind's first traced op.
    /// The SAT encoder emits some clauses in hash-map order, so its
    /// search effort varies from run to run although the schedule's
    /// cycle count does not; this count keeps that defect visible.
    pub fn drift(&self) -> u64 {
        self.effort
            .values()
            .map(|s| s.iter().filter(|e| **e != s[0]).count() as u64)
            .sum()
    }
}

/// A workload made of a fixed list of op kinds, run on one thread.
pub trait OpList {
    fn op(&mut self, kind: usize, tr: &mut Tracer) -> Result<OpOut, String>;
}

/// Timing results of one closed loop.
#[derive(Clone, Default)]
pub struct LoopStats {
    pub kinds: Vec<KindSamples>,
    /// Calibration time before each recorded op (ms).
    pub ref_ms: Vec<f64>,
    /// Time-weighted mean number of ops in flight while any op is: 1 on
    /// one thread, measured by the caller when several clients time ops
    /// at once.
    pub in_flight: f64,
    busy_norm_ms: f64,
    busy_wall_ms: f64,
}

impl LoopStats {
    pub fn new(n_kinds: usize) -> Self {
        LoopStats {
            kinds: vec![KindSamples::default(); n_kinds],
            in_flight: 1.0,
            ..Default::default()
        }
    }

    pub fn record(&mut self, kind: usize, t: Timing) {
        self.busy_norm_ms += t.norm_ms();
        self.busy_wall_ms += t.wall_ms;
        self.ref_ms.push(t.ref_ms);
        self.kinds[kind].norm.push(t.norm_ms());
        self.kinds[kind].wall.push(t.wall_ms);
    }

    /// Fold in another loop's samples; `in_flight` is left to the caller.
    pub fn merge(&mut self, other: LoopStats) {
        self.busy_norm_ms += other.busy_norm_ms;
        self.busy_wall_ms += other.busy_wall_ms;
        self.ref_ms.extend(other.ref_ms);
        for (k, o) in self.kinds.iter_mut().zip(other.kinds) {
            k.norm.extend(o.norm);
            k.wall.extend(o.wall);
        }
    }

    fn ops(&self) -> u64 {
        self.kinds.iter().map(|k| k.norm.len() as u64).sum()
    }

    pub fn p50_ms(&self) -> f64 {
        geomean_of_percentiles(&self.kinds, 50.0, |k| &k.norm).unwrap_or(0.0)
    }

    pub fn p90_ms(&self) -> f64 {
        geomean_of_percentiles(&self.kinds, 90.0, |k| &k.norm).unwrap_or(0.0)
    }

    /// Ops per second of normalized busy time. Busy time is the summed
    /// op time divided by the mean number of ops in flight, i.e. the time
    /// during which at least one op ran.
    pub fn ops_per_s(&self) -> f64 {
        per_second(self.ops(), self.busy_norm_ms / self.in_flight)
    }

    /// The raw wall-clock counterparts of p50, p90 and ops/s.
    pub fn wall_metrics(&self) -> [(&'static str, f64); 3] {
        [
            (
                "host.wall_p50_ms",
                geomean_of_percentiles(&self.kinds, 50.0, |k| &k.wall).unwrap_or(0.0),
            ),
            (
                "host.wall_p90_ms",
                geomean_of_percentiles(&self.kinds, 90.0, |k| &k.wall).unwrap_or(0.0),
            ),
            (
                "host.wall_ops_per_s",
                per_second(self.ops(), self.busy_wall_ms / self.in_flight),
            ),
        ]
    }

    /// Per-kind sample counts and percentiles, on stderr for humans.
    pub fn print_kinds(&self, names: &[impl AsRef<str>]) {
        for (name, k) in names.iter().zip(&self.kinds) {
            eprintln!(
                "perfbench: {:<16} n {:>5}  p50 {:>8.3} ms  p90 {:>8.3} ms  (normalized)",
                name.as_ref(),
                k.norm.len(),
                percentile(&k.norm, 50.0).unwrap_or(0.0),
                percentile(&k.norm, 90.0).unwrap_or(0.0),
            );
        }
    }
}

fn per_second(ops: u64, busy_ms: f64) -> f64 {
    if busy_ms > 0.0 {
        ops as f64 / (busy_ms / 1e3)
    } else {
        0.0
    }
}

/// Seeded Fisher–Yates order of `n` kinds.
pub fn shuffled(n: usize, rng: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// The single-threaded runner: its host, the per-kind reference
/// outputs, and the accounting shared by setup and the timed loops.
struct Runner {
    host: Host,
    acct: Accounting,
    refs: Vec<Option<OpOut>>,
    names: Vec<String>,
}

impl Runner {
    fn new(names: Vec<String>) -> Self {
        Runner {
            host: Host::new(),
            acct: Accounting::default(),
            refs: vec![None; names.len()],
            names,
        }
    }

    /// Run, time and check one op. Returns its timing and spans when it
    /// passed every check.
    fn one(&mut self, list: &mut dyn OpList, kind: usize, trace: bool) -> Option<(Timing, Tracer)> {
        let mut tr = Tracer::new(trace);
        let (res, t) = self.host.timed(|| list.op(kind, &mut tr));
        self.acct.attempted += 1;
        let name = &self.names[kind];
        match res {
            Err(e) => {
                self.acct.fail(format!("{name}: {e}"));
                None
            }
            Ok(out) => self
                .acct
                .check_determinism(name, &mut self.refs[kind], out)
                .then_some((t, tr)),
        }
    }

    /// The untimed warm-up pass of setup: every kind once, in list
    /// order. Returns its normalized time in ms.
    fn warm_up(&mut self, list: &mut dyn OpList) -> f64 {
        (0..self.names.len())
            .filter_map(|k| self.one(list, k, false))
            .map(|(t, _)| t.norm_ms())
            .sum()
    }

    /// Closed loop over seeded passes until `seconds` have elapsed.
    fn run_loop(
        &mut self,
        list: &mut dyn OpList,
        rng: &mut u64,
        seconds: f64,
        layers: Option<&mut Layers>,
    ) -> LoopStats {
        let trace = layers.is_some();
        let mut layers = layers;
        let mut st = LoopStats::new(self.names.len());
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds {
            for k in shuffled(self.names.len(), rng) {
                let Some((t, tr)) = self.one(list, k, trace) else {
                    continue;
                };
                st.record(k, t);
                if let Some(l) = layers.as_deref_mut() {
                    l.add(k, tr, t.scale());
                }
            }
        }
        st
    }

    /// Each exact count summed over the reference outputs of every kind.
    fn count_sums(&self) -> Vec<(&'static str, f64)> {
        let mut sums: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (name, v) in self.refs.iter().flatten().flat_map(|o| o.counts.iter()) {
            *sums.entry(name).or_default() += v;
        }
        sums.into_iter().map(|(n, v)| (n, v as f64)).collect()
    }
}

/// Host-normalized cost of one set-up.
pub struct SetupCost {
    /// The timed set-up pieces and the warm-up pass (ms).
    pub norm_ms: f64,
    /// The kernels' DSL build (ms).
    pub dsl_ms: f64,
    /// Nodes the DSL built.
    pub dsl_nodes: u64,
}

/// What one set-up of a single-threaded workload produced.
pub struct Setup<L> {
    pub list: L,
    /// Excluding the warm-up pass, which the runner adds.
    pub cost: SetupCost,
}

/// A workload as [`drive`] runs it.
pub trait Workload {
    /// Op kind names, in sample order.
    fn kind_names(&self) -> Vec<String>;
    /// Set up once, replacing any earlier set-up, including the untimed
    /// warm-up pass.
    fn set_up(&mut self) -> Result<SetupCost, String>;
    /// One timed closed loop of `seconds`; when `trace`, also the layer
    /// metrics it measured.
    fn phase(&mut self, seconds: f64, trace: bool) -> Result<(LoopStats, Metrics), String>;
    /// `code_cc` and `code_slots` of one pass.
    fn code(&self) -> (u64, u64);
    /// Ops attempted and failed so far, set-up included.
    fn accounting(&self) -> Accounting;
}

pub type Metrics = Vec<(&'static str, f64)>;

/// Run a workload: set it up `setup_reps` times (`setup_s` is the median;
/// the first counts wall time from process start) and keep the last,
/// then time it — one untraced loop, or an untraced half followed by a
/// traced half — and assemble the report.
pub fn drive(
    args: &crate::Args,
    setup_reps: usize,
    w: &mut impl Workload,
) -> Result<crate::Report, String> {
    let mut setup_norm = Vec::new();
    let mut setup_wall = Vec::new();
    let mut setup_dsl = Vec::new();
    let mut dsl_nodes = 0;
    for rep in 0..setup_reps {
        let t0 = if rep == 0 {
            args.started
        } else {
            Instant::now()
        };
        let cost = w.set_up()?;
        setup_wall.push(t0.elapsed().as_secs_f64());
        setup_norm.push(cost.norm_ms);
        setup_dsl.push(cost.dsl_ms);
        dsl_nodes = cost.dsl_nodes;
    }
    let setup_wall_s = median(&setup_wall).unwrap_or(0.0);
    let names = w.kind_names();

    let mut m: Metrics = Vec::new();
    if !args.trace {
        let (st, _) = w.phase(args.seconds, false)?;
        st.print_kinds(&names);
        let (cc, slots) = w.code();
        m.extend([
            ("setup_s", median(&setup_norm).unwrap_or(0.0) / 1e3),
            ("p50_ms", st.p50_ms()),
            ("p90_ms", st.p90_ms()),
            ("ops_per_s", st.ops_per_s()),
            ("code_cc", cc as f64),
            ("code_slots", slots as f64),
        ]);
        crate::print_host_line(&st, setup_wall_s);
    } else {
        let (plain, _) = w.phase(args.seconds / 2.0, false)?;
        let (traced, layers) = w.phase(args.seconds / 2.0, true)?;
        traced.print_kinds(&names);
        m.extend(layers);
        m.extend(plain.wall_metrics());
        m.extend([
            ("dsl.build_ms", median(&setup_dsl).unwrap_or(0.0)),
            ("dsl.nodes", dsl_nodes as f64),
            ("host.ref_ms", median(&plain.ref_ms).unwrap_or(0.0)),
            ("host.setup_wall_s", setup_wall_s),
            (
                "host.trace_overhead",
                traced.ops_per_s() / plain.ops_per_s(),
            ),
        ]);
    }
    let a = w.accounting();
    Ok(crate::Report {
        correct: a.failed == 0,
        attempted: a.attempted,
        failed: a.failed,
        metrics: m,
    })
}

/// A single-threaded workload: a list of op kinds and how to set it up.
struct Single<L, S> {
    runner: Runner,
    setup: S,
    list: Option<L>,
    rng: u64,
}

impl<L: OpList, S: FnMut(&mut Host) -> Result<Setup<L>, String>> Workload for Single<L, S> {
    fn kind_names(&self) -> Vec<String> {
        self.runner.names.clone()
    }

    fn set_up(&mut self) -> Result<SetupCost, String> {
        self.list = None;
        let Setup { mut list, mut cost } = (self.setup)(&mut self.runner.host)?;
        cost.norm_ms += self.runner.warm_up(&mut list);
        self.list = Some(list);
        Ok(cost)
    }

    fn phase(&mut self, seconds: f64, trace: bool) -> Result<(LoopStats, Metrics), String> {
        let list = self.list.as_mut().ok_or("not set up")?;
        let mut layers = trace.then(Layers::default);
        let st = self
            .runner
            .run_loop(list, &mut self.rng, seconds, layers.as_mut());
        let mut m = Vec::new();
        if let Some(l) = layers {
            m.extend(l.per_pass());
            m.push(("sat.count_drift", l.drift() as f64));
            m.extend(self.runner.count_sums());
        }
        Ok((st, m))
    }

    fn code(&self) -> (u64, u64) {
        let refs = self.runner.refs.iter().flatten();
        refs.fold((0, 0), |(cc, slots), o| (cc + o.cc, slots + o.slots))
    }

    fn accounting(&self) -> Accounting {
        self.runner.acct
    }
}

/// Drive a single-threaded workload with [`drive`].
pub fn run_single<L: OpList>(
    args: &crate::Args,
    names: Vec<String>,
    setup_reps: usize,
    setup: impl FnMut(&mut Host) -> Result<Setup<L>, String>,
) -> Result<crate::Report, String> {
    let mut w = Single {
        runner: Runner::new(names),
        setup,
        list: None,
        rng: args.seed ^ 0x5eed_0000_0000_0000,
    };
    drive(args, setup_reps, &mut w)
}
