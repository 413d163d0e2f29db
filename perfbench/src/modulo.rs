//! `modulo`: the §4.3 software-pipelining path on one thread.
//!
//! Twenty op kinds. Sixteen are II sweeps through
//! `modulo_schedule_checked`: the CP backend with reconfigurations
//! excluded on all six kernels, the CP backend with reconfigurations
//! included and the SAT backend on qrd, arf, matmul, fir and blockmm.
//! Four are steady-state allocations (`allocate_modulo_memory_with`,
//! 4 iterations at 64 slots, default restarts) on qrd, matmul, fir and
//! detector, over the sweep result computed during set-up. Every sweep
//! must finish inside its budget with a proven II (each lower candidate
//! refuted) and pass `verify_modulo` and `validate_modulo`; every
//! allocation must pass `validate_structure` and `verify_schedule`.

use crate::harness::{run_single, Host, OpList, OpOut, Setup, SetupCost, Tracer};
use crate::straight::{build_kernels, resolve_spec, KERNELS};
use eit_arch::ArchSpec;
use eit_core::{AllocOptions, AllocOutcome, Backend, ModuloOptions, ModuloResult};
use eit_ir::Graph;
use std::time::Duration;

/// Kernels swept with reconfigurations included, and with SAT.
/// Detector is left out of both on cost (see NOTES.md).
const SWEEP5: [&str; 5] = ["qrd", "arf", "matmul", "fir", "blockmm"];
const ALLOC: [&str; 4] = ["qrd", "matmul", "fir", "detector"];
const ALLOC_ITERS: usize = 4;
/// Set-ups per run (~0.3 s each).
const SETUP_REPS: usize = 9;
/// Per-op budget; an op that runs it out is a failed op.
const BUDGET: Duration = Duration::from_secs(10);

#[derive(Clone, Copy)]
enum Kind {
    Sweep {
        kernel: usize,
        backend: Backend,
        include_reconfig: bool,
    },
    Alloc {
        kernel: usize,
    },
}

fn kernel_index(name: &str) -> usize {
    KERNELS
        .iter()
        .position(|k| *k == name)
        .expect("built-in kernel")
}

fn kinds() -> Vec<(String, Kind)> {
    let sweep = |name: &str, backend: Backend, include_reconfig: bool| {
        let tag = match (backend, include_reconfig) {
            (Backend::Sat, _) => "sat",
            (_, true) => "cp-incl",
            _ => "cp-excl",
        };
        let kind = Kind::Sweep {
            kernel: kernel_index(name),
            backend,
            include_reconfig,
        };
        (format!("{tag}:{name}"), kind)
    };
    let mut out: Vec<(String, Kind)> = KERNELS
        .iter()
        .map(|k| sweep(k, Backend::Cp, false))
        .collect();
    out.extend(SWEEP5.iter().map(|k| sweep(k, Backend::Cp, true)));
    out.extend(SWEEP5.iter().map(|k| sweep(k, Backend::Sat, false)));
    out.extend(ALLOC.iter().map(|k| {
        let kind = Kind::Alloc {
            kernel: kernel_index(k),
        };
        (format!("alloc:{k}"), kind)
    }));
    out
}

pub struct Modulo {
    spec: ArchSpec,
    kinds: Vec<Kind>,
    /// Validated, merged graphs, as `eitc --modulo` prepares them.
    graphs: Vec<Graph>,
    /// Reconfiguration-excluded CP sweep per kernel, for the
    /// allocation ops (`None` where no allocation op uses it).
    base: Vec<Option<ModuloResult>>,
}

fn sweep_options(backend: Backend, include_reconfig: bool) -> ModuloOptions {
    ModuloOptions {
        include_reconfig,
        backend,
        timeout_per_ii: BUDGET,
        total_timeout: BUDGET,
        jobs: 1,
        ..Default::default()
    }
}

fn setup(host: &mut Host) -> Result<Setup<Modulo>, String> {
    let (kernels, dsl_ms) = build_kernels(host, &KERNELS)?;
    let (spec, mut norm_ms) = resolve_spec(host)?;
    norm_ms += dsl_ms;
    let nodes = kernels.iter().map(|k| k.graph.len() as u64).sum();
    let mut graphs = Vec::new();
    for k in kernels {
        let mut g = k.graph;
        let (ok, t) = host.timed(|| {
            g.validate()?;
            eit_ir::merge_pipeline_ops(&mut g);
            Ok::<_, eit_ir::IrError>(())
        });
        ok.map_err(|e| format!("{}: invalid IR: {e}", k.name))?;
        norm_ms += t.norm_ms();
        graphs.push(g);
    }
    let mut base: Vec<Option<ModuloResult>> = graphs.iter().map(|_| None).collect();
    for name in ALLOC {
        let i = kernel_index(name);
        let opts = sweep_options(Backend::Cp, false);
        let (r, t) = host.timed(|| eit_core::modulo_schedule_checked(&graphs[i], &spec, &opts));
        norm_ms += t.norm_ms();
        match r {
            Ok(Some(r)) if !r.timed_out => base[i] = Some(r),
            other => return Err(format!("{name}: base sweep failed: {:?}", other.err())),
        }
    }
    Ok(Setup {
        list: Modulo {
            spec,
            kinds: kinds().into_iter().map(|(_, k)| k).collect(),
            graphs,
            base,
        },
        cost: SetupCost {
            norm_ms,
            dsl_ms,
            dsl_nodes: nodes,
        },
    })
}

pub fn run(args: &crate::Args) -> Result<crate::Report, String> {
    let names = kinds().into_iter().map(|(n, _)| n).collect();
    run_single(args, names, SETUP_REPS, setup)
}

impl Modulo {
    fn sweep(
        &self,
        g: &Graph,
        backend: Backend,
        include_reconfig: bool,
        tr: &mut Tracer,
    ) -> Result<OpOut, String> {
        let spec = &self.spec;
        let opts = sweep_options(backend, include_reconfig);
        let lb = tr.span("modulo.lb_ms", || eit_core::ii_lower_bound(g, spec));
        let span = match backend {
            Backend::Sat => "sat.sweep_ms",
            _ => "modulo.cp_sweep_ms",
        };
        let r = match tr.span(span, || eit_core::modulo_schedule_checked(g, spec, &opts)) {
            Ok(Some(r)) => r,
            Ok(None) => return Err("no modulo schedule within budget".into()),
            Err(e) => return Err(e.to_string()),
        };
        if r.timed_out {
            return Err("sweep hit its time budget".into());
        }
        if r.backend != backend.as_str() {
            return Err(format!(
                "answered by {}, not {}",
                r.backend,
                backend.as_str()
            ));
        }
        if let Some(p) = r
            .probes
            .iter()
            .find(|p| p.ii < r.ii_issue && p.outcome != "infeasible")
        {
            return Err(format!(
                "II {} is not proven: probe {} was {}",
                r.ii_issue, p.ii, p.outcome
            ));
        }
        let violations = tr.span("verify.ms", || {
            eit_arch::verify_modulo(g, spec, &r.s, r.ii_issue)
        });
        let structural = tr.span("sim.ms", || eit_core::validate_modulo(g, spec, &r, 3));
        if let Some(v) = violations.first().or(structural.first()) {
            return Err(format!("modulo II {}: {v:?}", r.ii_issue));
        }
        let mut counts = vec![
            ("modulo.ii_gap", (r.ii_issue - lb) as u64),
            ("verify.violations", 0),
        ];
        match &r.sat {
            Some(s) => {
                counts.extend([("sat.vars", s.vars), ("sat.clauses", s.clauses)]);
                tr.effort("sat.decisions", s.decisions);
                tr.effort("sat.conflicts", s.conflicts);
                tr.effort("sat.propagations", s.propagations);
            }
            None => counts.extend([
                ("modulo.probes", r.probes.len() as u64),
                (
                    "modulo.probes_infeasible",
                    r.probes
                        .iter()
                        .filter(|p| p.outcome == "infeasible")
                        .count() as u64,
                ),
                ("modulo.probe_nodes", r.probes.iter().map(|p| p.nodes).sum()),
                ("modulo.probe_fails", r.probes.iter().map(|p| p.fails).sum()),
            ]),
        }
        Ok(OpOut {
            cc: r.actual_ii as u64,
            slots: 0,
            counts,
        })
    }

    fn alloc(&self, kernel: usize, tr: &mut Tracer) -> Result<OpOut, String> {
        let g = &self.graphs[kernel];
        let r = self.base[kernel].as_ref().expect("base sweep from set-up");
        let opts = AllocOptions {
            timeout: BUDGET,
            jobs: 1,
            race: false,
            restarts: Some(eit_cp::RestartConfig::default()),
            ..Default::default()
        };
        let out = tr.span("alloc.ms", || {
            eit_core::allocate_modulo_memory_with(g, &self.spec, r, ALLOC_ITERS, &opts)
        });
        let (big, sched) = match out {
            AllocOutcome::Allocated(big, sched) => (big, sched),
            other => return Err(format!("allocation {other:?}")),
        };
        let structural = tr.span("sim.ms", || {
            eit_arch::validate_structure(&big, &self.spec, &sched)
        });
        let violations = tr.span("verify.ms", || {
            eit_arch::verify_schedule(&big, &self.spec, &sched, true)
        });
        if let Some(v) = structural.first().or(violations.first()) {
            return Err(format!("allocation: {v:?}"));
        }
        let slots = sched.slots_used(&big) as u64;
        Ok(OpOut {
            cc: 0,
            slots,
            counts: vec![("alloc.slots_used", slots), ("verify.violations", 0)],
        })
    }
}

impl OpList for Modulo {
    fn op(&mut self, kind: usize, tr: &mut Tracer) -> Result<OpOut, String> {
        match self.kinds[kind] {
            Kind::Sweep {
                kernel,
                backend,
                include_reconfig,
            } => self.sweep(&self.graphs[kernel], backend, include_reconfig, tr),
            Kind::Alloc { kernel } => self.alloc(kernel, tr),
        }
    }
}
