//! The `unreduced` workload: FIG6 × {R1A, RMA} with the reduction off,
//! exhaustive to 654,312 states each, on two explorer threads. One huge
//! state space on the packed fast path (arena, dedup, serial merge) and
//! SCC + fairness analysis over a 654k-node graph, with a working set in
//! the hundreds of MB. It bypasses the reduction layer and the general
//! expand path. The instance is fixed: the seed does not change the work.

use std::time::Instant;

use routelab_core::model::CommModel;
use routelab_explore::effects::Spec;
use routelab_explore::graph::{try_build_spec, ExploreConfig};
use routelab_explore::oscillation::{analyze_graph, try_analyze};
use routelab_spp::{gadgets, SppInstance};

use crate::explorer::{Counts, Kind};
use crate::report::{self, per_layer, repeat_for, setup_median, Checks, Metric, Outcome};
use crate::stats::{median, nearest_rank_value};
use crate::trace::{median_of, root_median, IterationSpans, Tracer};

/// Explorer threads of the timed builds.
pub const THREADS: usize = 2;

/// States of each cell's full unreduced graph (Theorem 3.9's convergence
/// proofs; see `exp-survey`).
pub const STATES: usize = 654_312;

const MODELS: [&str; 2] = ["R1A", "RMA"];

/// Least set-up repetitions (set-up takes microseconds).
const SETUP_REPS: usize = 25;

fn config(threads: usize, reduce: bool) -> ExploreConfig {
    ExploreConfig {
        channel_cap: 3,
        max_states: 1_500_000,
        max_steps_per_state: 20_000,
        threads: Some(threads),
        reduce,
        ..ExploreConfig::default()
    }
}

struct Setup {
    inst: SppInstance,
    models: Vec<CommModel>,
}

fn setup(tracer: &mut Tracer) -> Setup {
    let sp = tracer.open("spp.generate", "FIG6");
    let inst = gadgets::fig6();
    tracer.close(sp);
    Setup { inst, models: MODELS.iter().map(|m| m.parse().expect("static model")).collect() }
}

/// What one pass produced.
struct Pass {
    counts: Counts,
    /// Each cell's kind (`None` on an explorer error).
    kinds: Vec<Option<Kind>>,
    /// Seconds per cell.
    cell_secs: Vec<f64>,
}

/// Builds and analyzes both cells.
fn pass(s: &Setup, threads: usize, tracer: &mut Tracer, checks: &mut Checks) -> (f64, Pass) {
    let cfg = config(threads, false);
    let mut out = Pass { counts: Counts::default(), kinds: Vec::new(), cell_secs: Vec::new() };
    let t0 = Instant::now();
    let root = tracer.open("unreduced.cells", "");
    for &model in &s.models {
        checks.attempt(1);
        let c0 = Instant::now();
        let sp = tracer.open("explore.build", "FIG6");
        let built = try_build_spec(&s.inst, Spec::Uniform(model), &cfg);
        tracer.close(sp);
        let g = match built {
            Ok(g) => g,
            Err(e) => {
                checks.fail(1, format!("FIG6 {model}: {e}"));
                out.kinds.push(None);
                continue;
            }
        };
        let sp = tracer.open("explore.analyze", "FIG6");
        let verdict = analyze_graph(Spec::Uniform(model), &g);
        tracer.close(sp);
        out.cell_secs.push(c0.elapsed().as_secs_f64());
        out.counts.add(&g);
        let kind = Kind::of(&verdict);
        if g.len() != STATES || g.truncated || kind != Kind::Converges {
            checks.fail(
                1,
                format!(
                    "FIG6 {model}: {} states (want {STATES}), truncated {}, {}",
                    g.len(),
                    g.truncated,
                    kind.word()
                ),
            );
        }
        out.kinds.push(Some(kind));
    }
    tracer.close(root);
    (t0.elapsed().as_secs_f64(), out)
}

/// The plain single-thread baseline, outside the timed passes: both
/// builds again on one explorer thread (no analysis, which is serial
/// anyway). Returns their seconds.
fn builds_one_thread(s: &Setup, tracer: &mut Tracer, checks: &mut Checks) -> f64 {
    let cfg = config(1, false);
    let first = tracer.spans().len();
    let root = tracer.open("unreduced.builds_1t", "");
    for &model in &s.models {
        checks.attempt(1);
        let sp = tracer.open("explore.build", "FIG6");
        let built = try_build_spec(&s.inst, Spec::Uniform(model), &cfg);
        tracer.close(sp);
        match built {
            Ok(g) if g.len() == STATES => {}
            Ok(g) => checks.fail(1, format!("FIG6 {model} @1t: {} states", g.len())),
            Err(e) => checks.fail(1, format!("FIG6 {model} @1t: {e}")),
        }
    }
    tracer.close(root);
    IterationSpans::collect(tracer.spans(), first).total("explore.build")
}

/// Runs the workload for `seconds`. A traced run alternates untraced and
/// traced passes, then rebuilds both cells on one thread for the
/// single-thread baseline.
pub fn run(seconds: f64, trace: bool) -> Outcome {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(trace);
    let (s, setup_s, setup_reps) = setup_median(SETUP_REPS, || setup(&mut tracer));
    let mut walls = Vec::new();
    let mut cells = Vec::new();
    let mut traced = Vec::new();
    let mut counts: Option<Counts> = None;
    let mut kinds = Vec::new();
    repeat_for(seconds, || {
        let (wall, p) = pass(&s, THREADS, &mut Tracer::new(false), &mut checks);
        walls.push(wall);
        cells.extend(p.cell_secs);
        let mut total = wall;
        let mut seen = vec![p.counts];
        if trace {
            let first = tracer.spans().len();
            let (w, tp) = pass(&s, THREADS, &mut tracer, &mut checks);
            total += w;
            traced.push((w, IterationSpans::collect(tracer.spans(), first)));
            seen.push(tp.counts);
        }
        for c in seen {
            match &counts {
                Some(prev) if *prev != c => {
                    checks.fail(1, "explorer counters differ between passes".to_string());
                }
                _ => counts = Some(c),
            }
        }
        kinds = p.kinds;
        total
    });
    let rss = report::peak_rss_mb();

    // The reduced explorer must reach the same verdicts (a few hundred
    // states each; untimed).
    for (model, got) in s.models.iter().zip(&kinds) {
        match try_analyze(&s.inst, *model, &config(1, true)) {
            Ok(v) if Some(Kind::of(&v)) == *got => {}
            Ok(v) => checks.fail(1, format!("FIG6 {model}: reduced {v:?}, unreduced {got:?}")),
            Err(e) => checks.fail(1, format!("FIG6 {model} reduced: {e}")),
        }
    }

    let mut notes = vec![
        ("seed_dependent", "false".to_string()),
        ("explorer_threads", THREADS.to_string()),
        ("passes", walls.len().to_string()),
        ("pass_walls_s", format!("{walls:?}")),
        ("setup_reps", setup_reps.to_string()),
        ("cell_unit", "\"one unreduced verdict\"".to_string()),
        ("cell_samples", cells.len().to_string()),
        ("cell_percentile_rule_met", "false".to_string()),
    ];
    let metrics = if trace {
        let build_1t = builds_one_thread(&s, &mut tracer, &mut checks);
        notes.push(("traced_passes", traced.len().to_string()));
        let its: Vec<IterationSpans> = traced.iter().map(|t| t.1.clone()).collect();
        let build_s = median_of(&its, |i| i.total("explore.build"));
        let traced_wall = median(&traced.iter().map(|t| t.0).collect::<Vec<_>>()).unwrap_or(0.0);
        let generate = root_median(tracer.spans(), "spp.generate");
        let mut m = vec![
            ("spp.generate_s", generate),
            ("self.spp_s", generate),
            ("explore.build_s", build_s),
            ("explore.build_s.FIG6", build_s),
            ("explore.analyze_s", median_of(&its, |i| i.total("explore.analyze"))),
            (
                "self.explore_s",
                median_of(&its, |i| i.total("explore.build") + i.total("explore.analyze")),
            ),
            ("explore.build_1t_s", build_1t),
            ("explore.speedup_2t", if build_s > 0.0 { build_1t / build_s } else { 0.0 }),
            ("trace.unattributed_s", median_of(&its, |i| i.unattributed)),
            ("trace.overhead_s", traced_wall - median(&walls).unwrap_or(0.0)),
        ];
        m.extend(counts.map(|c| c.metrics(build_s)).unwrap_or_default());
        per_layer(m)
    } else {
        vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("wall_s", "s", median(&walls).expect("one pass ran")),
            // Two cells per pass: too few samples for a tail, so p50 is
            // their median and p90 the slower cell.
            Metric::new("cell_p50_s", "s", median(&cells).unwrap_or(0.0)),
            Metric::new("cell_p90_s", "s", nearest_rank_value(&cells, 90.0).unwrap_or(0.0)),
            Metric::new("peak_rss_mb", "MB", rss),
        ]
    };
    Outcome { checks, metrics, notes, tracer }
}
