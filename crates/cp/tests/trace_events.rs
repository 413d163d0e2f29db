//! Tracing contract tests: a fixed CSP must produce the *identical*
//! event stream on every run (events carry no timestamps), the stream's
//! counts must agree with `SearchStats`, and the null sink must observe
//! exactly the same solver trajectory as no sink at all.

use eit_cp::props::basic::{MaxOf, NeqOffset};
use eit_cp::trace::{MemorySink, NullSink, SearchEvent, TraceHandle, TraceSink};
use eit_cp::{
    minimize, solve, Model, Phase, RecorderSink, SearchConfig, SearchResult, SearchStatus, Trace,
    TraceHeader, ValSel, VarId, VarSel,
};
use std::sync::{Arc, Mutex};

/// A small but non-trivial BnB instance: color 5 mutually-different vars,
/// minimize the max.
fn build() -> (Model, VarId, Vec<VarId>) {
    let mut m = Model::new();
    let vars: Vec<VarId> = (0..5).map(|_| m.new_var(0, 6)).collect();
    for i in 0..vars.len() {
        for j in (i + 1)..vars.len() {
            m.post(Box::new(NeqOffset {
                x: vars[i],
                y: vars[j],
                c: 0,
            }));
        }
    }
    let obj = m.new_var(0, 6);
    m.post(Box::new(MaxOf {
        xs: vars.clone(),
        y: obj,
    }));
    (m, obj, vars)
}

fn traced_run(val_sel: ValSel, restart: bool) -> (SearchResult, Vec<SearchEvent>) {
    let (mut m, obj, vars) = build();
    let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, VarSel::FirstFail, val_sel)],
        restart_on_solution: restart,
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..Default::default()
    };
    let r = minimize(&mut m, obj, &cfg);
    let events = sink.lock().unwrap().events.iter().cloned().collect();
    (r, events)
}

#[test]
fn event_stream_is_deterministic_across_runs() {
    for val_sel in [ValSel::Min, ValSel::Max, ValSel::Split] {
        for restart in [false, true] {
            let (r1, e1) = traced_run(val_sel, restart);
            let (r2, e2) = traced_run(val_sel, restart);
            assert_eq!(r1.objective, r2.objective);
            assert!(!e1.is_empty());
            assert_eq!(e1, e2, "stream differs for {val_sel:?} restart={restart}");
        }
    }
}

#[test]
fn event_counts_agree_with_search_stats() {
    let (r, events) = traced_run(ValSel::Min, true);
    assert_eq!(r.status, SearchStatus::Optimal);
    let count = |k: &str| events.iter().filter(|e| e.kind() == k).count() as u64;
    assert_eq!(count("start"), 1);
    assert_eq!(count("done"), 1);
    assert_eq!(count("fail"), r.stats.fails);
    assert_eq!(count("solution"), r.stats.solutions);
    // Every solution of a minimization updates the incumbent bound.
    assert_eq!(count("bound"), r.stats.solutions);
    // Every backtrack closes a level some branch opened (fails at node
    // entry — bound pruning — contribute fails without branches, so
    // branch and fail counts are not otherwise related).
    assert!(count("backtrack") <= count("branch"));
    assert!(count("branch") > 0);
    // The final event is the Done record carrying the exit status.
    match events.last().unwrap() {
        SearchEvent::Done {
            status,
            nodes,
            fails,
            solutions,
        } => {
            assert_eq!(*status, "optimal");
            assert_eq!(*nodes, r.stats.nodes);
            assert_eq!(*fails, r.stats.fails);
            assert_eq!(*solutions, r.stats.solutions);
        }
        other => panic!("expected Done last, got {other:?}"),
    }
}

#[test]
fn null_sink_does_not_change_the_search() {
    let (mut plain_model, obj, vars) = build();
    let plain_cfg = SearchConfig {
        phases: vec![Phase::new(vars.clone(), VarSel::FirstFail, ValSel::Min)],
        restart_on_solution: true,
        ..Default::default()
    };
    let plain = minimize(&mut plain_model, obj, &plain_cfg);

    let (mut traced_model, obj2, vars2) = build();
    let traced_cfg = SearchConfig {
        phases: vec![Phase::new(vars2, VarSel::FirstFail, ValSel::Min)],
        restart_on_solution: true,
        trace: Some(TraceHandle::new(NullSink)),
        ..Default::default()
    };
    let traced = minimize(&mut traced_model, obj2, &traced_cfg);

    assert_eq!(plain.objective, traced.objective);
    assert_eq!(plain.stats.nodes, traced.stats.nodes);
    assert_eq!(plain.stats.fails, traced.stats.fails);
    assert_eq!(plain.stats.propagations, traced.stats.propagations);
    let _ = vars;
}

#[test]
fn satisfaction_search_traces_without_objective() {
    let mut m = Model::new();
    let x = m.new_var(0, 3);
    let y = m.new_var(0, 3);
    m.post(Box::new(NeqOffset { x, y, c: 0 }));
    let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vec![x, y], VarSel::InputOrder, ValSel::Min)],
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..Default::default()
    };
    let r = solve(&mut m, &cfg);
    assert!(r.is_sat());
    let sink = sink.lock().unwrap();
    assert_eq!(sink.counts.solutions, 1);
    assert_eq!(sink.counts.bounds, 0, "no objective, no bound updates");
    assert!(sink.events.iter().any(|e| matches!(
        e,
        SearchEvent::Solution {
            objective: None,
            ..
        }
    )));
}

#[test]
fn node_limit_abort_is_traced() {
    let (mut m, obj, vars) = build();
    let sink = Arc::new(Mutex::new(MemorySink::unbounded()));
    let cfg = SearchConfig {
        phases: vec![Phase::new(vars, VarSel::FirstFail, ValSel::Min)],
        node_limit: Some(3),
        trace: Some(TraceHandle::new(Arc::clone(&sink))),
        ..Default::default()
    };
    let _ = minimize(&mut m, obj, &cfg);
    let sink = sink.lock().unwrap();
    assert_eq!(sink.counts.node_limits, 1);
}

/// The exact `to_json` line of every `SearchEvent` variant — both
/// `Solution` objective shapes and every `Done` status included. These
/// lines are what `eitc --replay T --emit jsonl` prints, so they are the
/// view's output contract.
fn golden() -> Vec<(SearchEvent, &'static str)> {
    vec![
        (
            SearchEvent::Start {
                vars: 7,
                propagators: 12,
            },
            r#"{"event":"start","vars":7,"propagators":12}"#,
        ),
        (
            SearchEvent::Branch {
                depth: 3,
                var: 4,
                val: -2,
            },
            r#"{"event":"branch","depth":3,"var":4,"val":-2}"#,
        ),
        (
            SearchEvent::Fail { depth: 2 },
            r#"{"event":"fail","depth":2}"#,
        ),
        (
            SearchEvent::Backtrack { depth: 1 },
            r#"{"event":"backtrack","depth":1}"#,
        ),
        (
            SearchEvent::Solution {
                objective: Some(-9),
                nodes: 41,
            },
            r#"{"event":"solution","objective":-9,"nodes":41}"#,
        ),
        (
            SearchEvent::Solution {
                objective: None,
                nodes: 42,
            },
            r#"{"event":"solution","objective":null,"nodes":42}"#,
        ),
        (
            SearchEvent::BoundUpdate { bound: 5 },
            r#"{"event":"bound","bound":5}"#,
        ),
        (
            SearchEvent::Restart { bound: 4 },
            r#"{"event":"restart","bound":4}"#,
        ),
        (
            SearchEvent::DeadlineHit { nodes: 100 },
            r#"{"event":"deadline","nodes":100}"#,
        ),
        (
            SearchEvent::NodeLimitHit { nodes: 200 },
            r#"{"event":"node_limit","nodes":200}"#,
        ),
        (
            SearchEvent::Cancelled { nodes: 300 },
            r#"{"event":"cancelled","nodes":300}"#,
        ),
        (
            SearchEvent::StateHash {
                nodes: 64,
                hash: 0x0ead_beef_0123_4567,
            },
            r#"{"event":"state_hash","nodes":64,"hash":"0eadbeef01234567"}"#,
        ),
        (
            SearchEvent::Stream { id: 11 },
            r#"{"event":"stream","id":11}"#,
        ),
        (
            SearchEvent::Done {
                status: "optimal",
                nodes: 99,
                fails: 55,
                solutions: 3,
            },
            r#"{"event":"done","status":"optimal","nodes":99,"fails":55,"solutions":3}"#,
        ),
        (
            SearchEvent::Done {
                status: "feasible",
                nodes: 9,
                fails: 2,
                solutions: 1,
            },
            r#"{"event":"done","status":"feasible","nodes":9,"fails":2,"solutions":1}"#,
        ),
        (
            SearchEvent::Done {
                status: "infeasible",
                nodes: 1,
                fails: 1,
                solutions: 0,
            },
            r#"{"event":"done","status":"infeasible","nodes":1,"fails":1,"solutions":0}"#,
        ),
        (
            SearchEvent::Done {
                status: "unknown",
                nodes: 0,
                fails: 0,
                solutions: 0,
            },
            r#"{"event":"done","status":"unknown","nodes":0,"fails":0,"solutions":0}"#,
        ),
    ]
}

#[test]
fn to_json_lines_are_pinned_for_every_variant() {
    for (e, line) in &golden() {
        assert_eq!(e.to_json(), *line, "{e:?}");
    }
}

/// Every variant survives the path the JSONL view takes: recorded to an
/// `eit-trace/1` file, read back, and rendered one `to_json` line per
/// event, in file order, with the pinned bytes.
#[test]
fn jsonl_roundtrip_covers_every_variant() {
    let (events, lines): (Vec<SearchEvent>, Vec<&str>) = golden().into_iter().unzip();
    let dir = std::env::temp_dir().join("eit-trace-events-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("view-{}.trace", std::process::id()));
    let header = TraceHeader {
        ir_hash: 1,
        arch_hash: 2,
        hash_every: 0,
        config: "mode=unit".into(),
    };
    let mut sink = RecorderSink::create(&path, &header).unwrap();
    for e in &events {
        sink.record(e);
    }
    sink.flush();
    drop(sink);
    let trace = Trace::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_eq!(trace.events, events);
    let view: Vec<String> = trace.events.iter().map(SearchEvent::to_json).collect();
    assert_eq!(view, lines);
}
