//! The `montecarlo` workload: the pinned Monte-Carlo grid (7 instances × 8
//! models × 10 runs) plus the 10k-node Gao–Rexford family lane, on one
//! pool worker. It exercises instance generation, `RouteTable` and the
//! interned engine step kernel, and never touches the explorer.
//!
//! The grid is driven the way `montecarlo::try_run_grid_with` drives it —
//! `pool::execute_fold` over `montecarlo::run_one_with`, folded into
//! `CellAccum`s in run order — so that each run can be timed and checked
//! from outside; the route tables are built once, in set-up.

use std::time::Instant;

use routelab_core::model::CommModel;
use routelab_sim::montecarlo::{
    pinned, run_one_with, CellAccum, CellConfig, CellReport, RunRecord,
};
use routelab_sim::pool;
use routelab_spp::generator::{gao_rexford_instance, random_instance, RandomSppConfig};
use routelab_spp::{gadgets, RouteTable, SppInstance};

use crate::report::{per_layer, repeat_for, setup_median, write_golden, Checks, Metric, Outcome};
use crate::stats::{highest_percentile, nearest_rank_value, percentile, upper_quartile_per_unit};
use crate::trace::{median_of, ns_since, root_median, IterationSpans, Tracer};

/// The seed the golden statistics were recorded at; it reproduces the
/// published pinned grid exactly.
pub const DEFAULT_SEED: u64 = 42;

/// Runs per grid cell: a quarter of the `exp-montecarlo` default, so that a run
/// holds several passes.
const RUNS: usize = 10;

/// The family lane: nodes, runs and model.
const FAMILY_NODES: usize = 10_000;
const FAMILY_RUNS: usize = 4;
const FAMILY_MODEL: &str = "REA";

/// Least set-up repetitions (generation takes ~0.25 s).
const SETUP_REPS: usize = 5;

/// Cell statistics at [`DEFAULT_SEED`].
const GOLDEN: &str = include_str!("../golden/montecarlo.tsv");

/// Gao–Rexford and random-instance generator seeds for benchmark seed
/// `seed`: a bijection that maps [`DEFAULT_SEED`] to the pinned grid's
/// seeds (7 and 5).
pub fn generator_seeds(seed: u64) -> (u64, u64) {
    (seed ^ DEFAULT_SEED ^ 7, seed ^ DEFAULT_SEED ^ 5)
}

struct Setup {
    grid: Vec<(String, SppInstance, RouteTable)>,
    family: (String, SppInstance, RouteTable),
    models: Vec<CommModel>,
}

/// Generates the instances of `seed` and interns their routes.
fn setup(seed: u64, tracer: &mut Tracer) -> Setup {
    let (gr, rnd) = generator_seeds(seed);
    let sp = tracer.open("spp.generate", "");
    let mut insts = vec![
        ("DISAGREE".to_string(), gadgets::disagree()),
        ("BAD-GADGET".to_string(), gadgets::bad_gadget()),
        ("GOOD-GADGET".to_string(), gadgets::good_gadget()),
        ("FIG6".to_string(), gadgets::fig6()),
    ];
    for n in [8, 16] {
        insts.push((
            format!("GAO-REXFORD n={n}"),
            gao_rexford_instance(n, gr, 6, 5).expect("generator"),
        ));
    }
    let cfg = RandomSppConfig { nodes: 10, seed: rnd, ..Default::default() };
    insts.push(("RANDOM n=10".to_string(), random_instance(&cfg).expect("generator")));
    let family = gao_rexford_instance(FAMILY_NODES, gr, 6, 5).expect("generator");
    tracer.close(sp);
    let sp = tracer.open("spp.table", "");
    let grid = insts
        .into_iter()
        .map(|(name, inst)| {
            let table = RouteTable::new(&inst);
            (name, inst, table)
        })
        .collect();
    let family_table = RouteTable::new(&family);
    tracer.close(sp);
    Setup {
        grid,
        family: (format!("GAO-REXFORD n={FAMILY_NODES}"), family, family_table),
        models: pinned::models(),
    }
}

/// One line of the statistics table: instance, model, then the cell's
/// deterministic statistics.
fn stats_line(name: &str, c: &CellReport) -> String {
    let s = &c.stats;
    format!(
        "{name}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        c.model,
        s.runs,
        s.converged,
        s.converged_unfairly,
        s.stable_outcome,
        s.mean_steps,
        s.mean_messages,
        s.mean_dropped
    )
}

/// Runs `runs` runs of every model in `models` on one worker, timing each
/// (a span named `span` when tracing) and checking each record with
/// `check`. Returns the cells' reports and every run's seconds.
fn cell_runs(
    (name, inst, table): &(String, SppInstance, RouteTable),
    models: &[CommModel],
    cfg: &CellConfig,
    span: &'static str,
    tracer: &mut Tracer,
    checks: &mut Checks,
    check: impl Fn(&RunRecord) -> Option<&'static str>,
) -> (Vec<CellReport>, Vec<f64>) {
    let runs = cfg.runs;
    let origin = tracer.origin();
    let mut accums: Vec<CellAccum> = models.iter().map(|&m| CellAccum::new(m)).collect();
    let mut run_secs = Vec::with_capacity(models.len() * runs);
    let res = pool::execute_fold(
        models.len() * runs,
        1,
        &|job| {
            let start = ns_since(origin);
            let rec = run_one_with(inst, table, models[job / runs], cfg, job % runs);
            (rec, start, ns_since(origin))
        },
        &mut accums,
        &mut |accs, job, (rec, start, end)| {
            tracer.record(span, name, start, end);
            run_secs.push((end - start) as f64 * 1e-9);
            checks.attempt(1);
            if let Some(why) = check(&rec) {
                checks.fail(1, format!("{name} {} run {}: {why}", models[job / runs], rec.run));
            }
            accs[job / runs].push(&rec);
        },
    );
    if let Err(p) = res {
        checks.attempt(1);
        checks.fail(
            1,
            format!(
                "{name} {} run {}: panicked: {}",
                models[p.job / runs],
                p.job % runs,
                p.message
            ),
        );
    }
    (accums.iter().map(CellAccum::finish).collect(), run_secs)
}

/// What one pass produced.
struct Pass {
    /// Seconds per run, grid runs in job order then the family lane's,
    /// and last the rest of the pass (fold and loop overhead).
    unit_secs: Vec<f64>,
    lines: Vec<String>,
    steps: usize,
    converged: usize,
}

fn pass(s: &Setup, seed: u64, tracer: &mut Tracer, checks: &mut Checks) -> (f64, Pass) {
    let cfg = CellConfig { seed, ..pinned::config(RUNS) };
    let family_cfg = CellConfig {
        runs: FAMILY_RUNS,
        max_steps: pinned::family_max_steps(FAMILY_NODES),
        seed,
        drop_prob: cfg.drop_prob,
    };
    let family_models = [FAMILY_MODEL.parse().expect("static model")];
    let mut out = Pass { unit_secs: Vec::new(), lines: Vec::new(), steps: 0, converged: 0 };
    let t0 = Instant::now();
    let root = tracer.open("montecarlo.grid", "");
    let mut cells = Vec::new();
    for g in &s.grid {
        let sp = tracer.open("sim.grid", &g.0);
        let (reports, secs) = cell_runs(g, &s.models, &cfg, "engine.run", tracer, checks, |r| {
            (r.converged && !r.stable_outcome).then_some("converged to an unstable assignment")
        });
        out.unit_secs.extend(secs);
        tracer.close(sp);
        cells.extend(reports.into_iter().map(|c| (g.0.as_str(), c)));
    }
    let sp = tracer.open("sim.family", &s.family.0);
    let (reports, secs) =
        cell_runs(&s.family, &family_models, &family_cfg, "engine.family", tracer, checks, |r| {
            if !r.converged {
                Some("a Gao-Rexford run did not converge")
            } else if !r.stable_outcome {
                Some("converged to an unstable assignment")
            } else {
                None
            }
        });
    out.unit_secs.extend(secs);
    tracer.close(sp);
    cells.extend(reports.into_iter().map(|c| (s.family.0.as_str(), c)));
    tracer.close(root);
    let wall = t0.elapsed().as_secs_f64();
    let rest = wall - out.unit_secs.iter().sum::<f64>();
    out.unit_secs.push(rest);
    for (name, c) in &cells {
        out.lines.push(stats_line(name, c));
        out.steps += c.total_steps;
        out.converged += c.stats.converged;
    }
    (wall, out)
}

/// The golden statistics lines (comments and blank lines dropped).
fn golden_lines(text: &str) -> Vec<&str> {
    text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('#')).collect()
}

/// Counts a failure for every line of `got` that differs from `want`.
fn compare_golden(got: &[String], want: &[&str], checks: &mut Checks) {
    if got.len() != want.len() {
        checks.fail(1, format!("{} statistics lines, golden has {}", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        if g != w {
            checks.fail(1, format!("statistics differ from golden:\n  got  {g}\n  want {w}"));
        }
    }
}

/// Runs the workload for `seconds` at `seed`.
pub fn run(seed: u64, seconds: f64, trace: bool, record: bool) -> Outcome {
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(trace);
    let (s, setup_s, setup_reps) = setup_median(SETUP_REPS, || setup(seed, &mut tracer));
    let (mut walls, mut units) = (Vec::new(), Vec::new());
    let (mut traced_units, mut traced) = (Vec::new(), Vec::new());
    let mut last: Option<Pass> = None;
    repeat_for(seconds, || {
        let (wall, p) = pass(&s, seed, &mut Tracer::new(false), &mut checks);
        walls.push(wall);
        units.push(p.unit_secs.clone());
        let mut total = wall;
        if trace {
            let first = tracer.spans().len();
            let (w, tp) = pass(&s, seed, &mut tracer, &mut checks);
            total += w;
            if tp.lines != p.lines {
                checks.fail(1, "statistics differ between passes".to_string());
            }
            traced_units.push(tp.unit_secs);
            traced.push(IterationSpans::collect(tracer.spans(), first));
        }
        if last.as_ref().is_some_and(|prev| prev.lines != p.lines) {
            checks.fail(1, "statistics differ between passes".to_string());
        }
        last = Some(p);
        total
    });
    let last = last.expect("one pass ran");
    if record {
        let header = format!(
            "# Monte-Carlo cell statistics at seed {DEFAULT_SEED}: instance, model, runs,\n\
             # converged, converged_unfairly, stable_outcome, mean_steps,\n\
             # mean_messages, mean_dropped.\n"
        );
        write_golden("montecarlo.tsv", header + &last.lines.join("\n") + "\n");
    } else if seed == DEFAULT_SEED {
        compare_golden(&last.lines, &golden_lines(GOLDEN), &mut checks);
    }

    // A cell's time sums its runs' upper-quartile times. The 57 cells (56
    // grid cells and the family lane) are too few for a p90 with ten
    // samples beyond it, so p90 is the plain nearest-rank value.
    let typical = upper_quartile_per_unit(&units);
    let grid_runs = s.grid.len() * s.models.len() * RUNS;
    let mut cell_secs: Vec<f64> =
        typical[..grid_runs].chunks(RUNS).map(|c| c.iter().sum()).collect();
    cell_secs.push(typical[grid_runs..grid_runs + FAMILY_RUNS].iter().sum());
    let routes: usize = s.grid.iter().map(|g| g.2.len()).sum::<usize>() + s.family.2.len();
    let mut notes = vec![
        ("seed_dependent", "true".to_string()),
        ("golden_compared", (seed == DEFAULT_SEED && !record).to_string()),
        ("pool_threads", "1".to_string()),
        ("runs_per_cell", RUNS.to_string()),
        ("family_nodes", FAMILY_NODES.to_string()),
        ("family_runs", FAMILY_RUNS.to_string()),
        ("passes", walls.len().to_string()),
        ("pass_walls_s", format!("{walls:?}")),
        (
            "wall_statistic",
            "\"sum over runs, and the rest of the pass, of each one's upper-quartile pass\""
                .to_string(),
        ),
        ("setup_reps", setup_reps.to_string()),
        ("engine_steps", last.steps.to_string()),
        ("cell_unit", "\"one instance x model cell\"".to_string()),
        ("cell_samples", cell_secs.len().to_string()),
        (
            "cell_highest_percentile",
            highest_percentile(cell_secs.len()).map_or("null".into(), |p| p.to_string()),
        ),
    ];
    let metrics = if trace {
        notes.push(("traced_passes", traced.len().to_string()));
        let its = &traced;
        let generate = root_median(tracer.spans(), "spp.generate");
        let table = root_median(tracer.spans(), "spp.table");
        let run_s = median_of(its, |i| i.total("engine.run"));
        let family_s = median_of(its, |i| i.total("engine.family"));
        let pool_s = median_of(its, |i| {
            i.total("sim.grid") + i.total("sim.family")
                - i.total("engine.run")
                - i.total("engine.family")
        });
        let overhead = upper_quartile_per_unit(&traced_units).iter().sum::<f64>()
            - typical.iter().sum::<f64>();
        let engine_s = run_s + family_s;
        per_layer(vec![
            ("spp.generate_s", generate),
            ("spp.table_s", table),
            ("spp.routes", routes as f64),
            ("engine.run_s", run_s),
            ("engine.family_s", family_s),
            ("engine.steps", last.steps as f64),
            ("engine.steps_per_s", if engine_s > 0.0 { last.steps as f64 / engine_s } else { 0.0 }),
            ("engine.converged_runs", last.converged as f64),
            ("sim.pool_s", pool_s),
            ("self.spp_s", generate + table),
            ("self.engine_s", median_of(its, |i| i.total("engine.run") + i.total("engine.family"))),
            ("self.sim_s", pool_s),
            ("trace.unattributed_s", median_of(its, |i| i.unattributed)),
            ("trace.overhead_s", overhead),
        ])
    } else {
        vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("wall_s", "s", typical.iter().sum()),
            Metric::new("cell_p50_s", "s", percentile(&cell_secs, 50.0).unwrap_or(0.0)),
            Metric::new("cell_p90_s", "s", nearest_rank_value(&cell_secs, 90.0).unwrap_or(0.0)),
            Metric::new("peak_rss_mb", "MB", crate::report::peak_rss_mb()),
        ]
    };
    Outcome { checks, metrics, notes, tracer }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_sim::montecarlo::try_run_grid_with;
    use routelab_sim::pool::PoolConfig;

    #[test]
    fn default_seed_generates_the_pinned_grid() {
        assert_eq!(generator_seeds(DEFAULT_SEED), (7, 5));
        let s = setup(DEFAULT_SEED, &mut Tracer::new(false));
        let pinned = pinned::instances();
        assert_eq!(s.grid.len(), pinned.len());
        for ((name, inst, _), (pname, pinst)) in s.grid.iter().zip(&pinned) {
            assert_eq!(name, pname);
            assert!(inst == pinst, "{name} differs from the pinned instance");
        }
        assert!(s.family.1 == pinned::family_instance(FAMILY_NODES));
        assert_eq!(pinned::config(RUNS).seed, DEFAULT_SEED);
    }

    #[test]
    fn generator_seeds_differ_between_benchmark_seeds() {
        let seeds: std::collections::BTreeSet<(u64, u64)> = (0..64).map(generator_seeds).collect();
        assert_eq!(seeds.len(), 64);
    }

    #[test]
    fn driven_grid_matches_try_run_grid_with() {
        let inst = gadgets::bad_gadget();
        let entry = ("BAD-GADGET".to_string(), inst.clone(), RouteTable::new(&inst));
        let models = pinned::models();
        let cfg = CellConfig { runs: 3, ..pinned::config(3) };
        let mut checks = Checks::default();
        let (ours, secs) = cell_runs(
            &entry,
            &models,
            &cfg,
            "engine.run",
            &mut Tracer::new(true),
            &mut checks,
            |_| None,
        );
        let theirs = try_run_grid_with(&inst, &models, &cfg, &PoolConfig::with_threads(1)).unwrap();
        let lines =
            |cells: &[CellReport]| cells.iter().map(|c| stats_line("x", c)).collect::<Vec<_>>();
        assert_eq!(lines(&ours), lines(&theirs));
        assert_eq!(checks.attempted, (models.len() * 3) as u64);
        assert_eq!(secs.len(), models.len() * 3);
    }

    #[test]
    fn golden_mismatch_counts_as_failure() {
        let golden = golden_lines("# header\nA\tR1O\t1\n\nB\tRMA\t2\n");
        assert_eq!(golden, vec!["A\tR1O\t1", "B\tRMA\t2"]);
        let mut c = Checks::default();
        compare_golden(&["A\tR1O\t1".into(), "B\tRMA\t2".into()], &golden, &mut c);
        assert_eq!(c.failed, 0);
        compare_golden(&["A\tR1O\t1".into(), "B\tRMA\t3".into()], &golden, &mut c);
        assert_eq!(c.failed, 1);
        compare_golden(&["A\tR1O\t1".into()], &golden, &mut c);
        assert_eq!(c.failed, 2);
    }
}
