//! `serve`: the daemon path.
//!
//! An in-process `eit_serve::Server` (2 workers, default cache, loopback
//! JSONL) driven by 2 client connections in a closed loop. The seeded
//! stream is cut into blocks of four hits and one miss:
//!
//! - a hit asks for one entry of the hot set — the six built-in kernels,
//!   each compiled straight-line and with the modulo sweep — which set-up
//!   compiled into the cache;
//! - a miss sends a fresh `eit_apps::synth` kernel as inline XML. Its
//!   graph is named after the block, so no miss key ever repeats.
//!
//! Clients claim whole blocks, so the hit ratio is exactly 0.8. Every
//! reply must be `ok` and verified with no violation; a hit must come
//! from the cache with a listing byte-identical to the one-shot compile
//! made during set-up, and a miss must not.

use crate::calib::splitmix64;
use crate::harness::{drive, Accounting, Host, LoopStats, Metrics, SetupCost, Workload};
use crate::stats::{mean_in_flight, median, percentile};
use crate::straight::{build_kernels, resolve_spec, KERNELS};
use eit_core::json::Json;
use eit_core::pipeline::{compile, CompileOptions};
use eit_core::{ModuloOptions, SchedulerOptions};
use eit_cp::SearchStatus;
use eit_serve::{ServeOptions, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const HITS_PER_BLOCK: usize = 4;
const BLOCK: usize = HITS_PER_BLOCK + 1;
const HOT: usize = 2 * KERNELS.len();
/// Set-ups per run (~0.2 s each); `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Per-request deadline; a request that misses it is a failed op.
const DEADLINE_MS: u64 = 10_000;
/// Op kinds, in sample order.
const KIND_NAMES: [&str; 2] = ["hit", "miss"];

/// One request of the seeded stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Req {
    /// Hot-set entry: kernel `i / 2`, modulo when `i` is odd.
    Hit(usize),
    /// Fresh synthetic kernel number `serial` (the block index).
    Miss(u64),
}

/// Block `b` of the stream for `seed`: four hits and one miss, in seeded
/// order. Pure in `(seed, b)`, so any client may claim any block.
pub fn block(seed: u64, b: u64) -> [Req; BLOCK] {
    let mut rng = seed ^ b.wrapping_mul(0xd6e8_feb8_6659_fd93);
    let mut out = [Req::Miss(b); BLOCK];
    let miss_at = (splitmix64(&mut rng) % BLOCK as u64) as usize;
    for (i, r) in out.iter_mut().enumerate() {
        if i != miss_at {
            *r = Req::Hit((splitmix64(&mut rng) % HOT as u64) as usize);
        }
    }
    out
}

/// The synthetic kernel of miss `serial`, named so that its cache key is
/// unique within the run.
fn miss_kernel(seed: u64, serial: u64) -> eit_ir::Graph {
    let mut rng = seed ^ serial.wrapping_mul(0xa076_1d64_78bd_642f);
    let k = eit_apps::synth::build(eit_apps::synth::SynthParams {
        seed: splitmix64(&mut rng),
        ..Default::default()
    });
    let mut g = k.graph;
    g.name = format!("miss-{serial}");
    g
}

fn compile_line(id: &str, fields: Vec<(String, Json)>) -> String {
    let mut members = vec![
        ("v".to_string(), Json::str("eit-serve/1")),
        ("id".to_string(), Json::str(id)),
        ("op".to_string(), Json::str("compile")),
        ("deadline_ms".to_string(), Json::int(DEADLINE_MS)),
    ];
    members.extend(fields);
    let mut line = Json::Obj(members).render_compact();
    line.push('\n');
    line
}

/// The one-shot result the server must reproduce for a hot entry.
struct HotRef {
    line: String,
    listing: String,
    makespan: Option<i64>,
    ii: Option<i64>,
    /// Cycle and slot counts of the compiled code.
    cc: u64,
    slots: u64,
}

/// One-shot compile of every hot entry, exactly as `eitc` would.
fn one_shot(
    host: &mut Host,
    kernels: Vec<eit_apps::Kernel>,
    spec: &eit_arch::ArchSpec,
) -> Result<(Vec<HotRef>, f64), String> {
    let mut refs = Vec::new();
    let mut ms = 0.0;
    for (name, k) in KERNELS.iter().zip(kernels) {
        let mut g = k.graph;
        let (r, t) = host.timed(|| -> Result<[HotRef; 2], String> {
            g.validate().map_err(|e| e.to_string())?;
            eit_ir::merge_pipeline_ops(&mut g);
            let m = eit_core::modulo_schedule(&g, spec, &ModuloOptions::default())
                .ok_or("no modulo schedule")?;
            let modulo = HotRef {
                line: compile_line(
                    name,
                    vec![
                        ("kernel".into(), Json::str(*name)),
                        ("mode".into(), Json::str("modulo")),
                    ],
                ),
                listing: eit_core::render_modulo(&g, &m),
                makespan: None,
                ii: Some(m.ii_issue as i64),
                cc: m.actual_ii as u64,
                slots: 0,
            };
            let mut g = g.clone();
            eit_ir::eliminate_common_subexpressions(&mut g);
            let opts = CompileOptions {
                cse: false,
                merge: false,
                scheduler: SchedulerOptions::default(),
            };
            let out = compile(g, spec, &opts).map_err(|e| e.to_string())?;
            if out.status != SearchStatus::Optimal {
                return Err(format!("status {:?}", out.status));
            }
            let straight = HotRef {
                line: compile_line(name, vec![("kernel".into(), Json::str(*name))]),
                listing: eit_core::render_compiled(&out),
                makespan: Some(out.schedule.makespan as i64),
                ii: None,
                cc: out.schedule.makespan as u64,
                slots: out.schedule.slots_used(&out.graph) as u64,
            };
            Ok([straight, modulo])
        });
        ms += t.norm_ms();
        refs.extend(r.map_err(|e| format!("{name}: one-shot: {e}"))?);
    }
    Ok((refs, ms))
}

/// A client connection speaking `eit-serve/1`.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
        let s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(s),
            writer,
        })
    }

    /// One round trip: send a request line, read the reply line.
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("connection closed".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(e.to_string()),
        }
    }

    fn stats(&mut self) -> Result<Json, String> {
        let reply = self.call("{\"v\":\"eit-serve/1\",\"id\":\"stats\",\"op\":\"stats\"}\n")?;
        let doc = Json::parse(&reply).map_err(|e| format!("stats reply: {e}"))?;
        doc.get("metrics")
            .and_then(|m| m.get("serve"))
            .cloned()
            .ok_or_else(|| "stats reply without metrics".into())
    }
}

/// A checked compile reply.
struct Reply {
    listing: String,
    makespan: Option<i64>,
    ii: Option<i64>,
    cached: bool,
    queue_us: u64,
    solve_us: u64,
}

fn parse_reply(text: &str) -> Result<Reply, String> {
    let doc = Json::parse(text).map_err(|e| format!("reply: {e}"))?;
    let field = |k: &str| doc.get(k);
    if field("status").and_then(Json::as_str) != Some("ok") {
        return Err(format!("not ok: {}", text.trim_end()));
    }
    if field("verified") != Some(&Json::Bool(true))
        || field("violations").and_then(Json::as_u64) != Some(0)
    {
        return Err("reply not verified clean".into());
    }
    let timing = |k: &str| {
        field("timing")
            .and_then(|t| t.get(k))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("reply without timing.{k}"))
    };
    Ok(Reply {
        listing: field("listing")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string(),
        makespan: field("makespan").and_then(Json::as_u64).map(|v| v as i64),
        ii: field("ii").and_then(Json::as_u64).map(|v| v as i64),
        cached: field("cached") == Some(&Json::Bool(true)),
        queue_us: timing("queue_us")?,
        solve_us: timing("solve_us")?,
    })
}

fn check_hit(r: &Reply, want: &HotRef) -> Result<(), String> {
    if !r.cached {
        return Err("hot entry not served from the cache".into());
    }
    if r.listing != want.listing || r.makespan != want.makespan || r.ii != want.ii {
        return Err("served listing differs from the one-shot compile".into());
    }
    Ok(())
}

/// A miss must be compiled afresh to a proven optimum: a compile that
/// runs out its budget still replies `ok`, with a `Feasible` listing.
fn check_miss(r: &Reply) -> Result<(), String> {
    if r.cached {
        return Err("fresh kernel served from the cache".into());
    }
    if r.makespan.is_none() {
        return Err("miss reply without a schedule".into());
    }
    if !r.listing.starts_with("; status Optimal;") {
        let status = r.listing.lines().next().unwrap_or("");
        return Err(format!("miss not solved to optimality: {status}"));
    }
    Ok(())
}

/// A running server with its hot set compiled, plus the references.
struct Rig {
    server: Server,
    hot: Vec<HotRef>,
}

fn setup(host: &mut Host, seed: u64, acct: &mut Accounting) -> Result<(Rig, SetupCost), String> {
    let (kernels, dsl_ms) = build_kernels(host, &KERNELS)?;
    let dsl_nodes = kernels.iter().map(|k| k.graph.len() as u64).sum();
    let (spec, spec_ms) = resolve_spec(host)?;
    let (hot, ref_ms) = one_shot(host, kernels, &spec)?;
    let (server, t) = host.timed(|| {
        Server::start(ServeOptions {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            ..Default::default()
        })
    });
    let server = server.map_err(|e| format!("cannot start the server: {e}"))?;
    let mut norm_ms = dsl_ms + spec_ms + ref_ms + t.norm_ms();
    let mut client = Client::connect(server.local_addr())?;
    // Compile the hot set into the cache (each entry must be a miss that
    // matches the one-shot compile), then one untimed warm-up pass: every
    // hot entry once more and a few fresh kernels.
    for first in [true, false] {
        for (i, h) in hot.iter().enumerate() {
            let (reply, t) = host.timed(|| client.call(&h.line));
            norm_ms += t.norm_ms();
            acct.attempted += 1;
            let checked = reply.and_then(|r| {
                let r = parse_reply(&r)?;
                match first {
                    true if r.cached || r.listing != h.listing => {
                        Err("first compile differs from the one-shot compile".into())
                    }
                    true => Ok(()),
                    false => check_hit(&r, h),
                }
            });
            if let Err(e) = checked {
                acct.fail(format!("set-up hot entry {i}: {e}"));
            }
        }
    }
    for serial in 0..CLIENTS as u64 {
        let g = miss_kernel(!seed, serial);
        let line = compile_line("warm", vec![("xml".into(), Json::str(eit_ir::to_xml(&g)))]);
        let (reply, t) = host.timed(|| client.call(&line));
        norm_ms += t.norm_ms();
        acct.attempted += 1;
        if let Err(e) = reply.and_then(|r| check_miss(&parse_reply(&r)?)) {
            acct.fail(format!("warm-up miss: {e}"));
        }
    }
    let cost = SetupCost {
        norm_ms,
        dsl_ms,
        dsl_nodes,
    };
    Ok((Rig { server, hot }, cost))
}

/// What one client, or both over a phase, measured.
#[derive(Clone, Default)]
struct Samples {
    ops: LoopStats,
    /// Normalized `RequestTiming` of every reply, and solve time of misses.
    queue_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    /// Client-side `from_xml` of each miss request (traced only).
    xml_parse_ms: Vec<f64>,
    /// Wall-clock span of every sampled request (ms since the phase
    /// started), to measure how many were in flight at once.
    spans: Vec<(f64, f64)>,
}

impl Samples {
    fn new() -> Self {
        Samples {
            ops: LoopStats::new(KIND_NAMES.len()),
            ..Default::default()
        }
    }

    fn merge(&mut self, other: Samples) {
        self.ops.merge(other.ops);
        self.queue_ms.extend(other.queue_ms);
        self.solve_ms.extend(other.solve_ms);
        self.xml_parse_ms.extend(other.xml_parse_ms);
        self.spans.extend(other.spans);
    }
}

/// Closed loop of one client until `until`, claiming whole blocks.
fn client_loop(
    rig: &Rig,
    seed: u64,
    next: &AtomicU64,
    started: Instant,
    until: Instant,
    trace: bool,
    acct: &Mutex<Accounting>,
) -> Result<Samples, String> {
    let mut host = Host::new();
    let mut client = Client::connect(rig.server.local_addr())?;
    let mut st = Samples::new();
    while Instant::now() < until {
        let b = next.fetch_add(1, Ordering::Relaxed);
        for req in block(seed, b) {
            let (kind, line) = match req {
                Req::Hit(i) => (0, rig.hot[i].line.clone()),
                Req::Miss(serial) => {
                    let xml = eit_ir::to_xml(&miss_kernel(seed, serial));
                    if trace {
                        // The server's first call on a miss, made here on
                        // the same input so its cost is seen from outside.
                        let (parsed, t) = host.timed(|| eit_ir::from_xml(&xml));
                        st.xml_parse_ms.push(t.norm_ms());
                        if let Err(e) = parsed {
                            return Err(format!("miss {serial}: XML does not parse back: {e}"));
                        }
                    }
                    let id = format!("m{serial}");
                    (1, compile_line(&id, vec![("xml".into(), Json::str(xml))]))
                }
            };
            let ((sent, reply), t) = host.timed(|| (Instant::now(), client.call(&line)));
            let checked = reply.and_then(|text| {
                let r = parse_reply(&text)?;
                match req {
                    Req::Hit(i) => check_hit(&r, &rig.hot[i])?,
                    Req::Miss(_) => check_miss(&r)?,
                }
                Ok(r)
            });
            let mut a = acct.lock().expect("accounting lock");
            a.attempted += 1;
            match checked {
                Err(e) => a.fail(format!("{} {req:?}: {e}", KIND_NAMES[kind])),
                Ok(r) => {
                    st.ops.record(kind, t);
                    let at = (sent - started).as_secs_f64() * 1e3;
                    st.spans.push((at, at + t.wall_ms));
                    st.queue_ms.push(r.queue_us as f64 / 1e3 * t.scale());
                    if kind == 1 {
                        st.solve_ms.push(r.solve_us as f64 / 1e3 * t.scale());
                    }
                }
            }
        }
    }
    Ok(st)
}

/// Server cache and admission counters over one phase.
struct Counters {
    hits: u64,
    lookups: u64,
    inserts: u64,
    evictions: u64,
    rejected: u64,
}

fn counter(doc: &Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(doc, |d, k| d.get(k))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Both clients' closed loops for `seconds`, bracketed by `stats` ops.
fn run_phase(
    rig: &Rig,
    seed: u64,
    next_block: &AtomicU64,
    seconds: f64,
    trace: bool,
    acct: &Mutex<Accounting>,
) -> Result<(Samples, Counters), String> {
    let mut control = Client::connect(rig.server.local_addr())?;
    let before = control.stats()?;
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let results: Vec<Result<Samples, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client_loop(rig, seed, next_block, started, until, trace, acct)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let after = control.stats()?;
    let delta = |path: &[&str]| counter(&after, path) - counter(&before, path);
    let counters = Counters {
        hits: delta(&["cache", "hits"]),
        lookups: delta(&["cache", "hits"]) + delta(&["cache", "misses"]),
        inserts: delta(&["cache", "inserts"]),
        evictions: delta(&["cache", "evictions"]),
        rejected: delta(&["rejected_overload"]),
    };
    let mut all = Samples::new();
    for r in results {
        all.merge(r?);
    }
    all.ops.in_flight = mean_in_flight(&all.spans);
    Ok((all, counters))
}

/// The daemon workload as [`drive`] runs it.
struct Serve {
    seed: u64,
    host: Host,
    acct: Mutex<Accounting>,
    /// Next block of the stream to claim.
    blocks: AtomicU64,
    rig: Option<Rig>,
}

impl Serve {
    fn shut_down(&mut self) {
        if let Some(rig) = self.rig.take() {
            rig.server.request_shutdown();
            rig.server.join();
        }
    }
}

impl Workload for Serve {
    fn kind_names(&self) -> Vec<String> {
        KIND_NAMES.iter().map(|k| k.to_string()).collect()
    }

    fn set_up(&mut self) -> Result<SetupCost, String> {
        self.shut_down();
        let acct = self.acct.get_mut().expect("accounting lock");
        let (rig, cost) = setup(&mut self.host, self.seed, acct)?;
        self.rig = Some(rig);
        Ok(cost)
    }

    fn phase(&mut self, seconds: f64, trace: bool) -> Result<(LoopStats, Metrics), String> {
        let rig = self.rig.as_ref().ok_or("not set up")?;
        let (p, c) = run_phase(rig, self.seed, &self.blocks, seconds, trace, &self.acct)?;
        let mut m = Vec::new();
        if trace {
            let pct = |k: usize, q: f64| percentile(&p.ops.kinds[k].norm, q).unwrap_or(0.0);
            m.extend([
                ("ir.xml_parse_ms", median(&p.xml_parse_ms).unwrap_or(0.0)),
                ("serve.hit_rtt_p50_ms", pct(0, 50.0)),
                ("serve.hit_rtt_p90_ms", pct(0, 90.0)),
                ("serve.miss_rtt_p50_ms", pct(1, 50.0)),
                ("serve.miss_rtt_p90_ms", pct(1, 90.0)),
                (
                    "serve.queue_p90_ms",
                    percentile(&p.queue_ms, 90.0).unwrap_or(0.0),
                ),
                ("serve.solve_p50_ms", median(&p.solve_ms).unwrap_or(0.0)),
                ("serve.in_flight", p.ops.in_flight),
                ("serve.hit_ratio", c.hits as f64 / c.lookups.max(1) as f64),
                ("serve.inserts", c.inserts as f64),
                ("serve.evictions", c.evictions as f64),
                ("serve.rejected", c.rejected as f64),
            ]);
        }
        Ok((p.ops, m))
    }

    fn code(&self) -> (u64, u64) {
        let hot = self.rig.iter().flat_map(|r| &r.hot);
        hot.fold((0, 0), |(cc, slots), h| (cc + h.cc, slots + h.slots))
    }

    fn accounting(&self) -> Accounting {
        *self.acct.lock().expect("accounting lock")
    }
}

pub fn run(args: &crate::Args) -> Result<crate::Report, String> {
    let mut w = Serve {
        seed: args.seed,
        host: Host::new(),
        acct: Mutex::new(Accounting::default()),
        blocks: AtomicU64::new(0),
        rig: None,
    };
    let report = drive(args, SETUP_REPS, &mut w);
    w.shut_down();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn stream(seed: u64, blocks: u64) -> Vec<Req> {
        (0..blocks).flat_map(|b| block(seed, b)).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(stream(7, 200), stream(7, 200));
        assert_ne!(stream(7, 200), stream(8, 200));
    }

    #[test]
    fn hit_ratio_is_exactly_four_in_five() {
        for seed in 0..20 {
            for b in 0..50 {
                let blk = block(seed, b);
                let hits = blk.iter().filter(|r| matches!(r, Req::Hit(_))).count();
                assert_eq!(hits, HITS_PER_BLOCK);
                assert!(blk.iter().all(|r| match r {
                    Req::Hit(i) => *i < HOT,
                    Req::Miss(s) => *s == b,
                }));
            }
        }
    }

    #[test]
    fn no_miss_key_repeats() {
        let seed = 3;
        let mut keys = HashSet::new();
        for r in stream(seed, 300) {
            if let Req::Miss(serial) = r {
                let mut g = miss_kernel(seed, serial);
                g.validate().unwrap();
                eit_ir::merge_pipeline_ops(&mut g);
                eit_ir::eliminate_common_subexpressions(&mut g);
                assert!(
                    keys.insert(eit_core::ir_hash(&g)),
                    "miss {serial} repeats a key"
                );
            }
        }
        assert_eq!(keys.len(), 300);
    }

    #[test]
    fn misses_vary_their_kernel_with_the_seed() {
        let a = eit_ir::to_xml(&miss_kernel(1, 5));
        let b = eit_ir::to_xml(&miss_kernel(2, 5));
        assert_ne!(a, b);
        assert_eq!(a, eit_ir::to_xml(&miss_kernel(1, 5)));
    }
}
