//! The `verdicts` workload: reduced exhaustive verdicts for every corpus
//! gadget × all 24 models at one pinned state budget, plus the eight
//! Appendix A.3–A.5 trace-realizability searches, on one explorer thread.
//! This is what `routelab check`, `exp-survey` and `exp-examples` users
//! wait on. The instances are the paper's fixed gadgets: the seed does not
//! change the work.

use std::time::Instant;

use routelab_core::model::CommModel;
use routelab_engine::paper_runs;
use routelab_engine::runner::Runner;
use routelab_engine::trace::PathTrace;
use routelab_explore::effects::Spec;
use routelab_explore::graph::{try_build_spec, ExploreConfig};
use routelab_explore::oscillation::analyze_graph;
use routelab_explore::trace_search::{try_search, SearchGoal, SearchResult};
use routelab_spp::{dispute, gadgets, SppInstance};

use crate::explorer::{is_decisive_flip, Counts, Kind};
use crate::report::{
    self, per_layer, repeat_for, setup_median, write_golden, Checks, Metric, Outcome,
};
use crate::stats::{highest_percentile, percentile, upper_quartile_per_unit};
use crate::trace::{median_of, root_median, IterationSpans, Tracer};

/// Per-cell state budget: small enough that a pass over the table takes
/// seconds, so that a run holds several passes. Cells that need more stay
/// bounded (FIG6 × REO among them), which the checks tolerate.
pub const BUDGET: usize = 500;

/// The expected verdict of every cell at [`BUDGET`].
const EXPECTED: &str = include_str!("../golden/verdicts.tsv");

/// Gadgets without a dispute wheel: none of their cells may oscillate.
const WHEEL_FREE: [&str; 5] = ["FIG7", "FIG8", "FIG9", "GOOD-GADGET", "LINE2"];

/// Least set-up repetitions (set-up takes under a millisecond).
const SETUP_REPS: usize = 25;

/// Bounds of one verdict cell.
pub fn cell_config() -> ExploreConfig {
    ExploreConfig {
        channel_cap: 3,
        max_states: BUDGET,
        max_steps_per_state: 20_000,
        threads: Some(1),
        ..ExploreConfig::default()
    }
}

/// Bounds of one trace search (those of `exp-examples`).
fn search_config() -> ExploreConfig {
    ExploreConfig {
        channel_cap: 6,
        max_states: 2_000_000,
        max_steps_per_state: 50_000,
        threads: Some(1),
        ..ExploreConfig::default()
    }
}

/// One Appendix A realizability claim.
struct Search {
    label: String,
    inst: SppInstance,
    model: CommModel,
    target: PathTrace,
    goal: SearchGoal,
    expect_found: bool,
}

/// The inputs of the workload.
struct Setup {
    corpus: Vec<(&'static str, SppInstance)>,
    models: Vec<CommModel>,
    wheel_free: Vec<bool>,
    searches: Vec<Search>,
}

impl Setup {
    fn new(tracer: &mut Tracer) -> Setup {
        let sp = tracer.open("spp.generate", "corpus");
        let corpus = gadgets::corpus();
        let runs = [paper_runs::a3_reo(), paper_runs::a4_rea(), paper_runs::a5_rea()];
        tracer.close(sp);
        let wheel_free = corpus.iter().map(|(_, inst)| dispute::is_wheel_free(inst)).collect();
        // (run, model, goal, the paper's answer), as in `exp-examples`.
        let claims = [
            (0, "R1O", SearchGoal::Exact, false),
            (0, "R1O", SearchGoal::Subsequence, true),
            (0, "RMS", SearchGoal::Exact, true),
            (1, "R1O", SearchGoal::Repetition, false),
            (1, "R1O", SearchGoal::Subsequence, true),
            (1, "R1S", SearchGoal::Repetition, true),
            (2, "R1S", SearchGoal::Exact, false),
            (2, "RMS", SearchGoal::Exact, true),
        ];
        let searches = claims
            .iter()
            .map(|&(r, model, goal, expect_found)| {
                let run = &runs[r];
                Search {
                    label: format!("{} {model} {goal:?}", run.name),
                    inst: run.instance.clone(),
                    model: model.parse().expect("static model"),
                    target: Runner::trace_of(&run.instance, &run.seq),
                    goal,
                    expect_found,
                }
            })
            .collect();
        Setup { corpus, models: CommModel::all(), wheel_free, searches }
    }
}

/// An expected-verdict table: `(gadget, model, kind)` per cell.
pub type Expected = Vec<(String, String, Kind)>;

/// Parses the expected table: one `gadget model verdict [states]` line per
/// cell; blank lines and `#` comments are skipped.
///
/// # Errors
///
/// A line with fewer than three fields or an unknown verdict word.
pub fn parse_expected(text: &str) -> Result<Expected, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let [gadget, model, verdict, ..] = f[..] else {
            return Err(format!("line {}: expected `gadget model verdict`", i + 1));
        };
        let kind = Kind::parse(verdict)
            .ok_or_else(|| format!("line {}: unknown verdict {verdict:?}", i + 1))?;
        out.push((gadget.to_string(), model.to_string(), kind));
    }
    Ok(out)
}

/// What one pass over the table produced.
struct Pass {
    /// Seconds per cell, then per search, in a fixed order.
    unit_secs: Vec<f64>,
    counts: Counts,
    table: Vec<(String, String, Kind, usize)>,
}

/// One pass: every cell, then every search. Checks each result as it
/// arrives; the checks are comparisons, a negligible share of the wall.
fn pass(s: &Setup, expected: &Expected, tracer: &mut Tracer, checks: &mut Checks) -> (f64, Pass) {
    let cfg = cell_config();
    let scfg = search_config();
    let mut out = Pass { unit_secs: Vec::new(), counts: Counts::default(), table: Vec::new() };
    let t0 = Instant::now();
    let root = tracer.open("verdicts.table", "");
    for (gi, (gadget, inst)) in s.corpus.iter().enumerate() {
        for &model in &s.models {
            checks.attempt(1);
            let c0 = Instant::now();
            let sp = tracer.open("explore.build", gadget);
            let built = try_build_spec(inst, Spec::Uniform(model), &cfg);
            tracer.close(sp);
            let g = match built {
                Ok(g) => g,
                Err(e) => {
                    out.unit_secs.push(c0.elapsed().as_secs_f64());
                    checks.fail(1, format!("{gadget} {model}: {e}"));
                    continue;
                }
            };
            let sp = tracer.open("explore.analyze", gadget);
            let verdict = analyze_graph(Spec::Uniform(model), &g);
            tracer.close(sp);
            out.unit_secs.push(c0.elapsed().as_secs_f64());
            out.counts.add(&g);
            let got = Kind::of(&verdict);
            let m = model.to_string();
            let want = expected.iter().find(|(eg, em, _)| eg == gadget && *em == m).map(|e| e.2);
            match want {
                None => checks.fail(1, format!("{gadget} {m}: no expected verdict")),
                Some(want) if is_decisive_flip(want, got) => checks
                    .fail(1, format!("{gadget} {m}: expected {}, got {}", want.word(), got.word())),
                Some(_) if got == Kind::Oscillates && s.wheel_free[gi] => checks
                    .fail(1, format!("{gadget} {m}: oscillates on a dispute-wheel-free gadget")),
                Some(_) => {}
            }
            out.table.push((gadget.to_string(), m, got, g.len()));
        }
    }
    for q in &s.searches {
        checks.attempt(1);
        let q0 = Instant::now();
        let sp = tracer.open("explore.search", &q.label);
        let res = try_search(&q.inst, q.model, &q.target, q.goal, &scfg);
        tracer.close(sp);
        out.unit_secs.push(q0.elapsed().as_secs_f64());
        match res {
            Ok(SearchResult::Found(_)) if q.expect_found => {}
            Ok(SearchResult::Impossible { visited }) if !q.expect_found => {
                out.counts.search_states += visited as u64;
            }
            Ok(other) => checks.fail(1, format!("search {}: got {other:?}", q.label)),
            Err(e) => checks.fail(1, format!("search {}: {e}", q.label)),
        }
    }
    tracer.close(root);
    (t0.elapsed().as_secs_f64(), out)
}

/// Runs the workload for `seconds`; traced runs alternate untraced and
/// traced passes so that the tracing overhead is measured in-process.
pub fn run(seconds: f64, trace: bool, record: bool) -> Outcome {
    let expected = parse_expected(EXPECTED).expect("the expected table is well-formed");
    let mut checks = Checks::default();
    let mut tracer = Tracer::new(trace);
    let (setup, setup_s, setup_reps) = setup_median(SETUP_REPS, || Setup::new(&mut tracer));
    for (gi, (gadget, _)) in setup.corpus.iter().enumerate() {
        if WHEEL_FREE.contains(gadget) && !setup.wheel_free[gi] {
            checks.fail(1, format!("{gadget}: dispute-wheel detector reports a wheel"));
        }
    }
    let (mut walls, mut units) = (Vec::new(), Vec::new());
    let (mut traced_units, mut traced) = (Vec::new(), Vec::new());
    let mut last: Option<Pass> = None;
    repeat_for(seconds, || {
        let (wall, p) = pass(&setup, &expected, &mut Tracer::new(false), &mut checks);
        walls.push(wall);
        units.push(p.unit_secs.clone());
        let mut total = wall;
        if trace {
            let first = tracer.spans().len();
            let (w, tp) = pass(&setup, &expected, &mut tracer, &mut checks);
            total += w;
            if tp.counts != p.counts {
                checks.fail(1, "explorer counters differ between passes".to_string());
            }
            traced_units.push(tp.unit_secs);
            traced.push(IterationSpans::collect(tracer.spans(), first));
        }
        if last.as_ref().is_some_and(|prev| prev.counts != p.counts) {
            checks.fail(1, "explorer counters differ between passes".to_string());
        }
        last = Some(p);
        total
    });
    let last = last.expect("one pass ran");
    if record {
        write_expected(&last.table);
    }

    let typical = upper_quartile_per_unit(&units);
    let cells = &typical[..setup.corpus.len() * setup.models.len()];
    let mut notes = vec![
        ("seed_dependent", "false".to_string()),
        ("explorer_threads", "1".to_string()),
        ("state_budget", BUDGET.to_string()),
        ("passes", walls.len().to_string()),
        ("pass_walls_s", format!("{walls:?}")),
        (
            "wall_statistic",
            "\"sum over cells and searches of each one's upper-quartile pass\"".to_string(),
        ),
        ("cell_unit", "\"one gadget x model verdict\"".to_string()),
        ("cell_samples", cells.len().to_string()),
        (
            "cell_highest_percentile",
            highest_percentile(cells.len()).map_or("null".into(), |p| p.to_string()),
        ),
        ("setup_reps", setup_reps.to_string()),
    ];
    let metrics = if trace {
        notes.push(("traced_passes", traced.len().to_string()));
        let build_s = median_of(&traced, |i| i.total("explore.build"));
        let generate_s = root_median(tracer.spans(), "spp.generate");
        let overhead = upper_quartile_per_unit(&traced_units).iter().sum::<f64>()
            - typical.iter().sum::<f64>();
        let mut m = vec![
            ("spp.generate_s", generate_s),
            ("explore.build_s", build_s),
            ("explore.analyze_s", median_of(&traced, |i| i.total("explore.analyze"))),
            ("explore.search_s", median_of(&traced, |i| i.total("explore.search"))),
            (
                "self.explore_s",
                median_of(&traced, |i| {
                    i.total("explore.build")
                        + i.total("explore.analyze")
                        + i.total("explore.search")
                }),
            ),
            ("self.spp_s", generate_s),
            ("trace.unattributed_s", median_of(&traced, |i| i.unattributed)),
            ("trace.overhead_s", overhead),
        ];
        for (gadget, _) in &setup.corpus {
            let name = report::PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_prefix("explore.build_s.") == Some(*gadget))
                .expect("every corpus gadget has a build metric")
                .0;
            m.push((name, median_of(&traced, |i| i.tagged("explore.build", gadget))));
        }
        m.extend(last.counts.metrics(build_s));
        per_layer(m)
    } else {
        vec![
            Metric::new("setup_s", "s", setup_s),
            Metric::new("wall_s", "s", typical.iter().sum()),
            Metric::new("cell_p50_s", "s", percentile(cells, 50.0).unwrap_or(0.0)),
            Metric::new("cell_p90_s", "s", percentile(cells, 90.0).unwrap_or(0.0)),
            Metric::new("peak_rss_mb", "MB", report::peak_rss_mb()),
        ]
    };
    Outcome { checks, metrics, notes, tracer }
}

/// Rewrites the expected table from the table just computed.
fn write_expected(table: &[(String, String, Kind, usize)]) {
    let mut text = format!(
        "# Expected verdicts at the pinned budget of {BUDGET} states per cell\n\
         # (channel cap 3, reduction on). Columns: gadget, model, verdict, states.\n\
         # A cell may move from bounded to decided; a flip between oscillates\n\
         # and converges fails the benchmark.\n"
    );
    for (g, m, k, n) in table {
        text.push_str(&format!("{g}\t{m}\t{}\t{n}\n", k.word()));
    }
    write_golden("verdicts.tsv", text);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_table_parses_and_covers_every_cell() {
        let t = parse_expected(EXPECTED).unwrap();
        assert_eq!(t.len(), 8 * 24);
        for (gadget, _) in gadgets::corpus() {
            for m in CommModel::all() {
                let m = m.to_string();
                assert_eq!(t.iter().filter(|(g, mm, _)| g == gadget && *mm == m).count(), 1);
            }
        }
    }

    #[test]
    fn expected_table_respects_the_wheel_free_oracle() {
        let t = parse_expected(EXPECTED).unwrap();
        for (g, m, k) in &t {
            if WHEEL_FREE.contains(&g.as_str()) {
                assert_ne!(*k, Kind::Oscillates, "{g} {m}");
            }
        }
    }

    #[test]
    fn malformed_expected_lines_are_errors() {
        assert_eq!(
            parse_expected("# c\n\nFIG6 R1A converges 12\nLINE2 R1O bounded\n").unwrap(),
            vec![
                ("FIG6".into(), "R1A".into(), Kind::Converges),
                ("LINE2".into(), "R1O".into(), Kind::Bounded)
            ]
        );
        assert!(parse_expected("FIG6 R1A").unwrap_err().contains("line 1"));
        assert!(parse_expected("FIG6 R1A diverges").unwrap_err().contains("diverges"));
    }
}
