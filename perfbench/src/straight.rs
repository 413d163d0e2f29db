//! `straight`: the one-shot `eitc <kernel>` path on one thread.
//!
//! Seven op kinds: each built-in kernel compiled straight-line at 64
//! slots with the memory model on, plus QRD overlapped ×4 on the
//! schedule computed during set-up. A kernel op is validate → CSE →
//! merge → schedule → generate → `verify_schedule` → `simulate` (every
//! output equal to the DSL reference) → `render_compiled`, and its
//! status must be `Optimal`.

use crate::harness::{run_single, Host, OpList, OpOut, Setup, SetupCost, Tracer};
use eit_apps::Kernel;
use eit_arch::{ArchSpec, Schedule};
use eit_core::pipeline::{compile, CompileOptions};
use eit_core::SchedulerOptions;
use eit_cp::SearchStatus;
use eit_ir::Graph;
use std::time::Duration;

pub const KERNELS: [&str; 6] = ["qrd", "arf", "matmul", "fir", "detector", "blockmm"];
const OVERLAP_ITERS: usize = 4;
/// Set-ups per run. Set-up is ~30 ms here, so many repetitions are cheap
/// and steady its median.
const SETUP_REPS: usize = 25;
/// Per-op solver budget; an op that needs longer is a failed op.
const BUDGET: Duration = Duration::from_secs(10);

pub struct Straight {
    spec: ArchSpec,
    kernels: Vec<Kernel>,
    /// QRD as compiled during set-up: the overlap op's input.
    qrd: (Graph, Schedule),
}

fn names() -> Vec<String> {
    KERNELS
        .iter()
        .map(|k| k.to_string())
        .chain([format!("qrd-overlap{OVERLAP_ITERS}")])
        .collect()
}

fn options() -> CompileOptions {
    CompileOptions {
        scheduler: SchedulerOptions {
            timeout: Some(BUDGET),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Build the named kernels through the DSL; returns their normalized
/// build time (ms).
pub fn build_kernels(host: &mut Host, names: &[&str]) -> Result<(Vec<Kernel>, f64), String> {
    let mut ms = 0.0;
    let mut kernels = Vec::new();
    for name in names {
        let (k, t) = host.timed(|| eit_apps::by_name(name));
        ms += t.norm_ms();
        kernels.push(k.ok_or_else(|| format!("unknown kernel {name}"))?);
    }
    Ok((kernels, ms))
}

/// The 64-slot EIT machine, resolved from its preset as `eitc` does.
pub fn resolve_spec(host: &mut Host) -> Result<(ArchSpec, f64), String> {
    let (spec, t) = host.timed(|| eit_arch::resolve_arch("eit"));
    Ok((spec?.with_slots(64), t.norm_ms()))
}

fn setup(host: &mut Host) -> Result<Setup<Straight>, String> {
    let (kernels, dsl_ms) = build_kernels(host, &KERNELS)?;
    let (spec, spec_ms) = resolve_spec(host)?;
    let (qrd, t) = host.timed(|| compile(kernels[0].graph.clone(), &spec, &options()));
    let qrd = qrd.map_err(|e| format!("qrd: {e}"))?;
    let nodes = kernels.iter().map(|k| k.graph.len() as u64).sum();
    Ok(Setup {
        list: Straight {
            spec,
            kernels,
            qrd: (qrd.graph, qrd.schedule),
        },
        cost: SetupCost {
            norm_ms: dsl_ms + spec_ms + t.norm_ms(),
            dsl_ms,
            dsl_nodes: nodes,
        },
    })
}

pub fn run(args: &crate::Args) -> Result<crate::Report, String> {
    run_single(args, names(), SETUP_REPS, setup)
}

impl Straight {
    fn kernel_op(&self, k: &Kernel, tr: &mut Tracer) -> Result<OpOut, String> {
        let out = compile(k.graph.clone(), &self.spec, &options()).map_err(|e| e.to_string())?;
        // The layer spans `compile()` records for itself; the scheduler's
        // `model_build` span includes its `longest_path` span.
        let span = |name| out.timings.get(name).unwrap_or_default();
        tr.push("ir.validate_ms", span("validate"));
        tr.push("ir.cse_ms", span("cse"));
        tr.push("ir.merge_ms", span("merge"));
        tr.push("cp.model_ms", span("model_build"));
        tr.push("cp.search_ms", span("search"));
        tr.push(
            "cp.schedule_ms",
            span("model_build") + span("search") + span("extract") + span("minimize_slots"),
        );
        tr.push("codegen.ms", span("codegen"));
        if out.status != SearchStatus::Optimal {
            return Err(format!("status {:?}, not Optimal", out.status));
        }
        let violations = tr.span("verify.ms", || {
            eit_arch::verify_schedule(&out.graph, &self.spec, &out.schedule, true)
        });
        if !violations.is_empty() {
            return Err(format!("verifier: {:?}", violations[0]));
        }
        let sim = tr.span("sim.ms", || {
            eit_arch::simulate(&out.graph, &self.spec, &out.schedule, &k.inputs)
        });
        if !sim.ok() {
            return Err(format!("simulator: {:?}", sim.violations[0]));
        }
        for (node, want) in &k.expected {
            match sim.values.get(node) {
                Some(got) if got.approx_eq(want, 1e-9) => {}
                got => return Err(format!("output {node:?}: got {got:?}, want {want:?}")),
            }
        }
        let text = tr.span("render.ms", || eit_core::render_compiled(&out));
        Ok(OpOut {
            cc: out.schedule.makespan as u64,
            slots: out.schedule.slots_used(&out.graph) as u64,
            counts: vec![
                ("ir.cse_removed", out.cse.ops_removed as u64),
                (
                    "ir.merged",
                    (out.merge.pre_merges + out.merge.post_merges) as u64,
                ),
                ("ir.nodes_after", out.graph.len() as u64),
                ("cp.nodes", out.solver.nodes),
                ("cp.fails", out.solver.fails),
                ("cp.propagations", out.solver.propagations),
                ("codegen.instructions", out.program.n_instructions as u64),
                ("verify.violations", violations.len() as u64),
                ("sim.lane_cycles", sim.lane_cycles),
                ("sim.reconfig_switches", sim.reconfig_switches as u64),
                ("render.bytes", text.len() as u64),
            ],
        })
    }

    fn overlap_op(&self, tr: &mut Tracer) -> Result<OpOut, String> {
        let (g, sched) = &self.qrd;
        let ov = tr.span("overlap.ms", || {
            let bundles = eit_core::bundles_from_schedule(g, sched);
            eit_core::overlapped_execution(g, &self.spec, &bundles, OVERLAP_ITERS)
        });
        let violations = tr.span("verify.ms", || {
            let mut v = eit_arch::verify_overlapped(&ov.graph, &self.spec, &ov.schedule);
            v.extend(eit_arch::validate_structure_with(
                &ov.graph,
                &self.spec,
                &ov.schedule,
                false,
            ));
            v
        });
        if !violations.is_empty() {
            return Err(format!("overlap verifier: {:?}", violations[0]));
        }
        Ok(OpOut {
            cc: ov.makespan as u64,
            slots: 0,
            counts: vec![("overlap.cc", ov.makespan as u64), ("verify.violations", 0)],
        })
    }
}

impl OpList for Straight {
    fn op(&mut self, kind: usize, tr: &mut Tracer) -> Result<OpOut, String> {
        match self.kernels.get(kind) {
            Some(k) => self.kernel_op(k, tr),
            None => self.overlap_op(tr),
        }
    }
}
