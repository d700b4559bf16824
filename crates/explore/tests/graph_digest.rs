//! Graph-digest golden: every corpus gadget × all 24 models, reduced and
//! unreduced, at the reduction suite's budget on one thread, plus the eight
//! Appendix A.3–A.5 trace searches. Each cell records its state count, the
//! truncation flag, every `ReductionStats` field, an FNV-64 digest over the
//! interned state words, the edge lists and the π fingerprints, and the
//! fairness analysis of the graph: the verdict kind, the witnessing SCC's
//! size and, for oscillating cells, an FNV-64 digest of the witness prefix
//! and cycle. Each search records its outcome and how much it visited. Any
//! change to the explorer's successor function, normal forms, symmetry
//! quotient, enumeration order or SCC visiting order shows up here as a
//! changed line.
//!
//! The snapshot is `tests/golden/graph_digests.txt`. To regenerate it after
//! an intentional change to the explored graphs:
//!
//! ```text
//! ROUTELAB_BLESS=1 cargo test -p routelab-explore --test graph_digest
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use routelab_core::model::CommModel;
use routelab_core::step::ActivationSeq;
use routelab_engine::paper_runs;
use routelab_engine::runner::Runner;
use routelab_explore::effects::Spec;
use routelab_explore::graph::{try_build_spec, ExploreConfig, StateGraph};
use routelab_explore::oscillation::{analyze_graph, Verdict};
use routelab_explore::trace_search::{try_search, SearchGoal, SearchResult};
use routelab_explore::witness::witness_from_graph;
use routelab_spp::gadgets;

/// 64-bit FNV-1a, fed with little-endian integers.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn usizes(&mut self, xs: &[usize]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x as u64);
        }
    }
}

fn digest(g: &StateGraph) -> u64 {
    let mut h = Fnv::new();
    for i in 0..g.len() {
        let ws = g.nodes.node_vec(i as u32);
        h.u64(ws.len() as u64);
        for w in ws {
            h.bytes(&w.to_le_bytes());
        }
    }
    for out in &g.edges {
        h.u64(out.len() as u64);
        for e in out {
            h.u64(e.to as u64);
            h.u64(u64::from(e.sym));
            h.u64(u64::from(e.changes_pi));
            h.u64(u64::from(e.step().node.0));
            for ce in &e.step().effects {
                h.u64(ce.channel as u64);
                h.u64(ce.consume as u64);
                h.u64(ce.keep.map_or(0, |j| j as u64 + 1));
            }
            h.usizes(e.attended());
            h.usizes(e.kept());
            h.usizes(e.dropped());
        }
    }
    for &fp in &g.pi_fp {
        h.u64(fp);
    }
    h.0
}

fn seq_digest(h: &mut Fnv, seq: &ActivationSeq) {
    h.u64(seq.len() as u64);
    for step in seq {
        let text = step.to_string();
        h.u64(text.len() as u64);
        h.bytes(text.as_bytes());
    }
}

/// The fairness analysis of `g`: verdict kind, SCC size and, when the graph
/// can oscillate, a digest of the witness extracted from it (`none` when the
/// graph itself yields no witness, as a symmetry quotient may not).
fn analysis(spec: Spec<'_>, g: &StateGraph) -> String {
    match analyze_graph(spec, g) {
        Verdict::CanOscillate { scc_size, .. } => {
            let witness = witness_from_graph(spec, g).map_or_else(
                || "none".to_string(),
                |w| {
                    let mut h = Fnv::new();
                    seq_digest(&mut h, &w.prefix);
                    seq_digest(&mut h, &w.cycle);
                    format!("{:016x}", h.0)
                },
            );
            format!("verdict=oscillates scc={scc_size} witness={witness}")
        }
        Verdict::AlwaysConverges { .. } => "verdict=converges".to_string(),
        Verdict::NoOscillationWithinBound { .. } => "verdict=bounded".to_string(),
    }
}

fn cell_line(out: &mut String, gadget: &str, model: CommModel, mode: &str, g: &StateGraph) {
    let r = &g.reduction;
    writeln!(
        out,
        "{gadget} {model} {mode} states={} truncated={} enabled={} canon_rewrites={} \
         absorb_pops={} set_collapses={} sym_hits={} group_order={} digest={:016x} {}",
        g.len(),
        g.truncated,
        r.enabled,
        r.canon_rewrites,
        r.absorb_pops,
        r.set_collapses,
        r.sym_hits,
        r.group_order,
        digest(g),
        analysis(Spec::Uniform(model), g)
    )
    .expect("writing to a String");
}

fn searches(out: &mut String) {
    let runs = [paper_runs::a3_reo(), paper_runs::a4_rea(), paper_runs::a5_rea()];
    // The claims `exp-examples` checks: (run, model, goal).
    let claims = [
        (0, "R1O", SearchGoal::Exact),
        (0, "R1O", SearchGoal::Subsequence),
        (0, "RMS", SearchGoal::Exact),
        (1, "R1O", SearchGoal::Repetition),
        (1, "R1O", SearchGoal::Subsequence),
        (1, "R1S", SearchGoal::Repetition),
        (2, "R1S", SearchGoal::Exact),
        (2, "RMS", SearchGoal::Exact),
    ];
    let cfg = ExploreConfig {
        channel_cap: 6,
        max_states: 2_000_000,
        max_steps_per_state: 50_000,
        threads: Some(1),
        ..ExploreConfig::default()
    };
    for (r, model, goal) in claims {
        let run = &runs[r];
        let target = Runner::trace_of(&run.instance, &run.seq);
        let res = try_search(&run.instance, model.parse().unwrap(), &target, goal, &cfg)
            .unwrap_or_else(|e| panic!("search {} {model} {goal:?}: {e}", run.name));
        let outcome = match res {
            SearchResult::Found(seq) => format!("found steps={}", seq.len()),
            SearchResult::Impossible { visited } => format!("impossible visited={visited}"),
            SearchResult::BoundExceeded { visited } => format!("bounded visited={visited}"),
        };
        writeln!(out, "search {} {model} {goal:?} {outcome}", run.name)
            .expect("writing to a String");
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/graph_digests.txt")
}

#[test]
fn explored_graphs_and_searches_match_the_digest_golden() {
    let cfg = ExploreConfig {
        channel_cap: 2,
        max_states: 1_500,
        max_steps_per_state: 20_000,
        threads: Some(1),
        reduce: true,
        ..ExploreConfig::default()
    };
    let mut got = String::new();
    for (name, inst) in gadgets::corpus() {
        for model in CommModel::all() {
            let spec = Spec::Uniform(model);
            for (mode, reduce) in [("reduced", true), ("unreduced", false)] {
                let c = ExploreConfig { reduce, ..cfg.clone() };
                let g = try_build_spec(&inst, spec, &c)
                    .unwrap_or_else(|e| panic!("{name} × {model} {mode}: {e}"));
                cell_line(&mut got, name, model, mode, &g);
            }
        }
    }
    searches(&mut got);

    let path = golden_path();
    if std::env::var_os("ROUTELAB_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("creating the golden dir");
        fs::write(&path, &got).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); generate it with \
             `ROUTELAB_BLESS=1 cargo test -p routelab-explore --test graph_digest`",
            path.display()
        )
    });
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(g, w, "line {} of {} differs", i + 1, path.display());
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count of {}", path.display());
}
