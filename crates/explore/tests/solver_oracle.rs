//! Stable-assignment oracle: under a reliable model a quiescent state has
//! every queue drained into ρ, so its π is a fixpoint of the best-route
//! choice — a stable path assignment. For every corpus gadget × the 12
//! reliable (`R··`) models, reduced and unreduced, every quiescent state the
//! explorer reaches must be accepted by `routelab_spp::solve::is_stable`,
//! which shares no code with the explorer. BAD-GADGET has no stable
//! assignment at all, so it must reach no quiescent state.
//!
//! Symmetry quotients keep this property: a reduced quiescent state is an
//! automorphic image of a reachable one, and automorphisms map stable
//! assignments to stable assignments.

use routelab_core::dims::Reliability;
use routelab_core::model::CommModel;
use routelab_explore::effects::Spec;
use routelab_explore::graph::{try_build_spec, ExploreConfig};
use routelab_spp::gadgets;
use routelab_spp::solve::{fmt_assignment, is_stable};

#[test]
fn every_reachable_quiescent_state_is_a_stable_assignment() {
    let base = ExploreConfig {
        channel_cap: 2,
        max_states: 1_500,
        max_steps_per_state: 20_000,
        ..ExploreConfig::default()
    };
    let mut checked = 0usize;
    for (name, inst) in gadgets::corpus() {
        for model in CommModel::all().into_iter().filter(|m| m.reliability == Reliability::Reliable)
        {
            for reduce in [true, false] {
                let cell = format!("{name} × {model} (reduce: {reduce})");
                let cfg = ExploreConfig { reduce, ..base.clone() };
                let g = try_build_spec(&inst, Spec::Uniform(model), &cfg)
                    .unwrap_or_else(|e| panic!("{cell}: {e}"));
                for i in (0..g.len()).filter(|&i| g.codec.is_quiescent(&g.packed(i))) {
                    let pi = g.state(i).assignment();
                    assert_ne!(name, "BAD-GADGET", "{cell}: reached quiescent state {i}");
                    assert!(
                        is_stable(&inst, &pi),
                        "{cell}: quiescent state {i} has the unstable assignment {}",
                        fmt_assignment(&inst, &pi)
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "the sweep reached no quiescent state at all");
}
