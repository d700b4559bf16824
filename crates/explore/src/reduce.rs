//! The state-space reduction layer: verdict-preserving normal forms and
//! symmetry quotients for the frontier engine.
//!
//! Four reductions compose, each exact for the fair-oscillation question
//! (soundness arguments in EXPERIMENTS.md):
//!
//! 1. **Observational route-class projection.** A route in channel
//!    `c = (u, v)` — queued or already learned as ρ — influences the
//!    execution in exactly one way: through the candidate extension
//!    `(v)·r` in `v`'s best-route computation. Routes whose extension is
//!    not permitted at `v` (and ε, and everything at channels into the
//!    destination) are therefore observationally interchangeable, and the
//!    normal form projects them all onto ε, the class representative. The
//!    projection is a strong bisimulation respecting π, quiescence and the
//!    fairness labels: step enumeration depends only on queue lengths
//!    (which it preserves), reads learn pointwise-equivalent values, and
//!    choices, announcements and drops are unchanged. It also makes the
//!    absorbed-read normalization below *class-aware* — a pending
//!    announcement that is merely equivalent to ρ pops just like an equal
//!    one — which is where most of its state-count reduction comes from.
//! 2. **Absorbed-read normalization** (partial-order reduction). A message
//!    at the head of channel `c` that equals the channel's ρ is *absorbed*
//!    when read: ρ keeps its value, the reader's re-choice is a no-op (π is
//!    always consistent with the ρ vector), nothing is announced. That read
//!    therefore commutes with every other enabled activation, and the
//!    explorer expands only the canonical interleaving in which it fires
//!    immediately — successors are normalized by popping absorbed heads.
//!    Applied only where the standalone absorbing read is a real step of
//!    the model: readers of scope `1`/`M` (scope `E` must read all
//!    channels at once), any policy for which a head-keeping read exists
//!    (`O`/`F`/`S` directly; `A` via the newest-collapse below, which
//!    leaves at most one message). Each popped channel is recorded on the
//!    merged edge as attended *and* kept, preserving the fairness labels.
//! 3. **Per-channel newest-collapse.** For a reliable channel whose reader
//!    is on policy `A`, a read always consumes the whole queue and learns
//!    only the newest message — older entries are unobservable. This
//!    refines the previous whole-model `collapsible()` gate to single
//!    channels, so heterogeneous and mixed-policy models benefit too.
//! 4. **Unreliable-All set-collapse.** For an *unreliable* channel whose
//!    reader is on policy `A`, a read consumes the whole queue and ρ
//!    becomes any one element (or none); order and multiplicity are
//!    unobservable, so the queue is kept as a sorted, deduplicated set.
//!    Such channels are bounded by the sender's announcement universe and
//!    are therefore exempt from the channel cap — the `U·A` state spaces
//!    become finite and the survey's `?` cells decidable.
//!
//! The packed kernel ([`crate::exec_packed`]) applies the four as word
//! edits to the channels a step touches, from the per-channel mode table
//! [`channel_modes`] compiles; this module owns the tables, the symmetry
//! quotient and the counters.
//!
//! On top, **symmetry reduction**: states are canonicalized to the
//! lexicographically least image under the instance's automorphism group
//! (detected once per gadget in `routelab_spp::automorphism`). Each edge
//! records which group element canonicalized its target; fairness analysis
//! un-folds the quotient into the orbit graph ([`unfold_symmetry`]) because
//! per-channel attendance is not group-invariant (the Emerson–Sistla
//! caveat), so running the Streett-style check directly on the quotient
//! would be unsound.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use routelab_core::dims::{MessagePolicy, NeighborScope, Reliability};
use routelab_engine::index::ChannelIndex;
use routelab_spp::{automorphisms, Channel, NodeId, Route, SppInstance};

use crate::arena::NodeArena;
use crate::effects::Spec;
use crate::exec_packed::{ChannelMode, NormCounts};
use crate::graph::{EdgeLabel, StateGraph, StepInfo};
use crate::pack::StateCodec;

/// Aggregated reduction activity of one graph build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// `true` when the build ran with the reduction layer on.
    pub enabled: bool,
    /// Learned or queued routes projected onto their observational class
    /// representative (unusable-at-the-reader routes becoming ε).
    pub canon_rewrites: u64,
    /// Messages removed by absorbed-read normalization.
    pub absorb_pops: u64,
    /// Queues rewritten by the unreliable-All set collapse.
    pub set_collapses: u64,
    /// Successors replaced by a lexicographically smaller symmetric image.
    pub sym_hits: u64,
    /// Order of the instance's automorphism group (1 = no usable symmetry).
    pub group_order: usize,
}

/// The queue normal forms of channel `c` under `spec`, with the identity
/// route projection.
fn mode_for(spec: Spec<'_>, index: &ChannelIndex, c: usize) -> ChannelMode {
    let ch = index.channel(c);
    let policy = spec.messages(ch.to);
    let scope = spec.scope(ch.to);
    let all = policy == MessagePolicy::All;
    let unreliable = spec.reliability(ch) == Reliability::Unreliable;
    let set = all && unreliable;
    ChannelMode {
        newest: all && !unreliable,
        set,
        // For a set-collapsed queue "head" is meaningless, and a scope-E
        // reader cannot perform the standalone absorbing read.
        absorb: scope != NeighborScope::Every && !set,
        class: Vec::new(),
    }
}

/// The reduced build's mode table for the packed kernel: per channel
/// `c = (u, v)`, the normal forms of [`mode_for`] plus the route-class
/// projection as an id table. A route is *usable* on `c` when it is the
/// tail of one of `v`'s permitted paths whose next hop is `u`; on reachable
/// states (channel contents are announcements of `u`, i.e. routes sourced
/// at `u`, or ε) that coincides exactly with [`SppInstance::candidate`]
/// succeeding at `v`. Usable routes map to themselves; every other route —
/// ε, and everything on channels into the destination, whose choice is
/// always `(d)` — is observationally ⊥ there and maps to ε (id 0).
pub(crate) fn channel_modes(
    inst: &SppInstance,
    index: &ChannelIndex,
    codec: &StateCodec,
    spec: Spec<'_>,
) -> Vec<ChannelMode> {
    (0..index.len())
        .map(|c| {
            let ch = index.channel(c);
            let usable: HashSet<Route> = inst
                .permitted(ch.to)
                .iter()
                .filter(|rp| rp.path.len() >= 2 && rp.path.next_hop() == Some(ch.from))
                .map(|rp| Route::path(rp.path.suffix(1)))
                .collect();
            let class = codec
                .routes()
                .iter()
                .enumerate()
                .map(|(id, r)| if usable.contains(r) { id as u16 } else { 0 })
                .collect();
            ChannelMode { class, ..mode_for(spec, index, c) }
        })
        .collect()
}

/// Per-build reduction state: symmetry tables and counters.
#[derive(Debug)]
pub(crate) struct Reducer {
    pub(crate) sym: Option<Arc<SymTables>>,
    canon_rewrites: AtomicU64,
    pops: AtomicU64,
    set_collapses: AtomicU64,
    sym_hits: AtomicU64,
}

impl Reducer {
    pub(crate) fn new(
        inst: &SppInstance,
        index: &ChannelIndex,
        codec: &StateCodec,
        spec: Spec<'_>,
    ) -> Self {
        Reducer {
            sym: SymTables::detect(inst, index, codec, spec).map(Arc::new),
            canon_rewrites: AtomicU64::new(0),
            pops: AtomicU64::new(0),
            set_collapses: AtomicU64::new(0),
            sym_hits: AtomicU64::new(0),
        }
    }

    /// Adds the packed kernel's normal-form activity to the counters.
    pub(crate) fn record(&self, counts: NormCounts) {
        self.canon_rewrites.fetch_add(counts.rewrites, Ordering::Relaxed);
        self.pops.fetch_add(counts.pops, Ordering::Relaxed);
        self.set_collapses.fetch_add(counts.set_collapses, Ordering::Relaxed);
    }

    /// Word-level canonicalization for the frontier hot loop: returns the
    /// replacement buffer when a strictly smaller symmetric image exists
    /// (`None` means `ws` is already canonical) plus the group element
    /// applied.
    pub(crate) fn canonicalize_words(&self, ws: &[u16]) -> (Option<Vec<u16>>, u16) {
        match &self.sym {
            Some(t) => {
                let (img, g) = t.canonicalize_words(ws);
                if g != 0 {
                    self.sym_hits.fetch_add(1, Ordering::Relaxed);
                }
                (img, g)
            }
            None => (None, 0),
        }
    }

    /// Snapshot of the counters.
    pub(crate) fn stats(&self) -> ReductionStats {
        ReductionStats {
            enabled: true,
            canon_rewrites: self.canon_rewrites.load(Ordering::Relaxed),
            absorb_pops: self.pops.load(Ordering::Relaxed),
            set_collapses: self.set_collapses.load(Ordering::Relaxed),
            sym_hits: self.sym_hits.load(Ordering::Relaxed),
            group_order: self.sym.as_ref().map_or(1, |t| t.order()),
        }
    }
}

/// Precomputed packed-layout action of the instance's automorphism group:
/// per group element, the node, channel, and route-id permutations, plus
/// the group's multiplication and inverse tables.
#[derive(Debug)]
pub(crate) struct SymTables {
    n: usize,
    m: usize,
    elems: Vec<SymElem>,
    inv: Vec<usize>,
    mult: Vec<Vec<usize>>,
    /// Channels kept in set normal form (sorted by route order); their
    /// queue segments are re-sorted after a transform so images stay in
    /// normal form and lex-minimization compares like with like.
    set_channels: Vec<bool>,
    /// `sort_key[id]` = position of route `id` under the route ordering
    /// (the order the set collapse sorts queues by).
    sort_key: Vec<u32>,
}

#[derive(Debug)]
struct SymElem {
    node_map: Vec<usize>,
    channel_map: Vec<usize>,
    /// `channel_unmap[c'] = c` with `channel_map[c] = c'`.
    channel_unmap: Vec<usize>,
    route_map: Vec<u16>,
}

impl SymTables {
    /// Detects the automorphism group and compiles it against the codec's
    /// layout; `None` when the group is trivial.
    ///
    /// Instance automorphisms are filtered to those that also preserve the
    /// *model*: a heterogeneous spec can break the gadget's symmetry (e.g.
    /// DISAGREE with only one disputant polling), and folding states along
    /// a non-model symmetry would conflate inequivalent executions. The
    /// model-preserving automorphisms form a subgroup, so the group tables
    /// below stay closed.
    pub(crate) fn detect(
        inst: &SppInstance,
        index: &ChannelIndex,
        codec: &StateCodec,
        spec: Spec<'_>,
    ) -> Option<SymTables> {
        let auts: Vec<_> = automorphisms(inst)
            .into_iter()
            .filter(|a| {
                inst.nodes().all(|v| {
                    let w = a.apply(v);
                    spec.scope(v) == spec.scope(w) && spec.messages(v) == spec.messages(w)
                }) && (0..index.len()).all(|c| {
                    let ch = index.channel(c);
                    let img = Channel::new(a.apply(ch.from), a.apply(ch.to));
                    spec.reliability(ch) == spec.reliability(img)
                })
            })
            .collect();
        if auts.len() <= 1 {
            return None;
        }
        let n = codec.n();
        let m = codec.m();
        let elems = auts
            .iter()
            .map(|a| {
                let node_map: Vec<usize> =
                    (0..n).map(|v| a.apply(NodeId(v as u32)).index()).collect();
                let channel_map: Vec<usize> = (0..m)
                    .map(|c| {
                        let ch = index.channel(c);
                        index
                            .id(Channel::new(a.apply(ch.from), a.apply(ch.to)))
                            .expect("automorphisms preserve the channel set")
                    })
                    .collect();
                let mut channel_unmap = vec![0usize; m];
                for (c, &cc) in channel_map.iter().enumerate() {
                    channel_unmap[cc] = c;
                }
                let route_map: Vec<u16> = codec
                    .routes()
                    .iter()
                    .map(|r| {
                        codec
                            .route_id(&a.map_route(r))
                            .expect("automorphisms preserve the route universe")
                    })
                    .collect();
                SymElem { node_map, channel_map, channel_unmap, route_map }
            })
            .collect();
        let pos = |x: &routelab_spp::Automorphism| {
            auts.iter().position(|b| b == x).expect("automorphism groups are closed")
        };
        let inv: Vec<usize> = auts.iter().map(|a| pos(&a.inverse())).collect();
        let mult: Vec<Vec<usize>> =
            auts.iter().map(|a| auts.iter().map(|b| pos(&a.compose(b))).collect()).collect();
        let set_channels: Vec<bool> = (0..m).map(|c| mode_for(spec, index, c).set).collect();
        Some(SymTables { n, m, elems, inv, mult, set_channels, sort_key: codec.route_order() })
    }

    /// Group order.
    pub(crate) fn order(&self) -> usize {
        self.elems.len()
    }

    /// Index of `g⁻¹`.
    pub(crate) fn inverse(&self, g: usize) -> usize {
        self.inv[g]
    }

    /// Index of `g ∘ h` (apply `h` first).
    pub(crate) fn compose(&self, g: usize, h: usize) -> usize {
        self.mult[g][h]
    }

    /// The image of dense channel `c` under element `g`.
    pub(crate) fn map_channel(&self, g: usize, c: usize) -> usize {
        self.elems[g].channel_map[c]
    }

    /// The image of a packed buffer under element `g` (same layout).
    pub(crate) fn transform(&self, p: &[u16], g: usize) -> Vec<u16> {
        let e = &self.elems[g];
        let (n, m) = (self.n, self.m);
        let mut out = vec![0u16; p.len()];
        for v in 0..n {
            out[e.node_map[v]] = e.route_map[usize::from(p[v])];
            out[n + e.node_map[v]] = e.route_map[usize::from(p[n + v])];
        }
        for c in 0..m {
            out[2 * n + e.channel_map[c]] = e.route_map[usize::from(p[2 * n + c])];
            out[2 * n + m + e.channel_map[c]] = p[2 * n + m + c];
        }
        // Queue contents: source segment offsets, emitted in target order.
        let mut src_off = vec![0usize; m + 1];
        src_off[0] = 2 * n + 2 * m;
        for c in 0..m {
            src_off[c + 1] = src_off[c] + usize::from(p[2 * n + m + c]);
        }
        let mut at = 2 * n + 2 * m;
        for tc in 0..m {
            let sc = e.channel_unmap[tc];
            let start = at;
            for &id in &p[src_off[sc]..src_off[sc + 1]] {
                out[at] = e.route_map[usize::from(id)];
                at += 1;
            }
            if self.set_channels[tc] {
                // Keep set-collapsed queues in their sorted normal form.
                out[start..at].sort_unstable_by_key(|&id| self.sort_key[usize::from(id)]);
            }
        }
        debug_assert_eq!(at, p.len());
        out
    }

    /// The lexicographically least image of `raw` over the group, with the
    /// element that produced it; `None` when `raw` is already the least
    /// element of its orbit (ties resolve to the smallest element index, so
    /// the result is a function of the buffer alone).
    pub(crate) fn canonicalize_words(&self, raw: &[u16]) -> (Option<Vec<u16>>, u16) {
        let mut best: Option<(Vec<u16>, usize)> = None;
        for g in 1..self.elems.len() {
            let img = self.transform(raw, g);
            let better = match &best {
                None => img.as_slice() < raw,
                Some((b, _)) => img < *b,
            };
            if better {
                best = Some((img, g));
            }
        }
        match best {
            Some((b, g)) => (Some(b), g as u16),
            None => (None, 0),
        }
    }
}

/// Un-folds a symmetry quotient into the orbit graph the fairness check
/// runs on: nodes are (representative, group element) pairs — the real
/// state is the element's image of the representative — and a quotient
/// edge annotated with canonicalizer `a` continues from `(q, g)` to
/// `(q', g ∘ a⁻¹)`, with its channel labels mapped through `g`. Per-channel
/// attendance is not invariant under the group action, so the Streett-style
/// fairness refinement must run here, not on the quotient itself.
///
/// The `step` field of un-folded edges is *not* relabeled: witnesses are
/// only ever extracted from unreduced graphs.
pub(crate) fn unfold_symmetry(g: &StateGraph) -> StateGraph {
    let _span = routelab_obs::span("explore.unfold");
    let t = g.sym.as_ref().expect("unfold_symmetry requires symmetry tables").clone();
    let mut ids: HashMap<(usize, usize), usize> = HashMap::new();
    let mut nodes: Vec<(usize, usize)> = Vec::new();
    let mut arena = NodeArena::new(g.codec.cell());
    let mut pi_fp: Vec<u64> = Vec::new();
    let mut intern = |q: usize,
                      gi: usize,
                      nodes: &mut Vec<(usize, usize)>,
                      arena: &mut NodeArena,
                      pi_fp: &mut Vec<u64>|
     -> usize {
        *ids.entry((q, gi)).or_insert_with(|| {
            nodes.push((q, gi));
            let base = g.nodes.node_vec(q as u32);
            let ws = if gi == 0 { base } else { t.transform(&base, gi) };
            pi_fp.push(g.codec.pi_fingerprint_words(&ws));
            arena.intern_full(&ws).expect("resident arenas cannot fail to intern");
            nodes.len() - 1
        })
    };
    intern(0, 0, &mut nodes, &mut arena, &mut pi_fp);
    let mut edges: Vec<Vec<EdgeLabel>> = Vec::new();
    let mut head = 0usize;
    while head < nodes.len() {
        let (q, gi) = nodes[head];
        let mut out = Vec::with_capacity(g.edges[q].len());
        for e in &g.edges[q] {
            let a = usize::from(e.sym);
            let to = intern(e.to, t.compose(gi, t.inverse(a)), &mut nodes, &mut arena, &mut pi_fp);
            out.push(EdgeLabel {
                to,
                info: Arc::new(StepInfo {
                    step: e.step().clone(),
                    attended: e.attended().iter().map(|&c| t.map_channel(gi, c)).collect(),
                    kept: e.kept().iter().map(|&c| t.map_channel(gi, c)).collect(),
                    dropped: e.dropped().iter().map(|&c| t.map_channel(gi, c)).collect(),
                }),
                changes_pi: e.changes_pi,
                sym: 0,
            });
        }
        edges.push(out);
        head += 1;
    }
    StateGraph {
        codec: g.codec.clone(),
        index: g.index.clone(),
        nodes: arena,
        pi_fp,
        edges,
        truncated: g.truncated,
        stats: g.stats,
        reduction: g.reduction,
        sym: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack::PackedState;
    use routelab_engine::state::NetworkState;
    use routelab_spp::gadgets;

    /// The canonical representative of `p` and the group element applied.
    fn canonicalize(t: &SymTables, p: PackedState) -> (PackedState, u16) {
        match t.canonicalize_words(p.as_u16s()) {
            (Some(ws), g) => (PackedState::from_u16s(ws), g),
            (None, _) => (p, 0),
        }
    }

    fn uniform() -> Spec<'static> {
        Spec::Uniform("R1O".parse().unwrap())
    }

    fn tables(inst: &SppInstance) -> (ChannelIndex, StateCodec, SymTables) {
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(inst, &index, "test-cell").expect("codec");
        let t = SymTables::detect(inst, &index, &codec, uniform()).expect("nontrivial group");
        (index, codec, t)
    }

    #[test]
    fn trivial_groups_detect_as_none() {
        let inst = gadgets::fig6();
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(&inst, &index, "t").unwrap();
        assert!(SymTables::detect(&inst, &index, &codec, uniform()).is_none());
    }

    #[test]
    fn hetero_models_break_instance_symmetry() {
        // DISAGREE's x↔y swap is an instance automorphism, but once only x
        // polls it no longer preserves the model — folding along it would
        // conflate inequivalent executions, so detection must reject it.
        use routelab_core::dims::{MessagePolicy, NeighborScope};
        use routelab_core::hetero::{HeteroModel, NodeModel};
        let inst = gadgets::disagree();
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(&inst, &index, "t").unwrap();
        let mut h = HeteroModel::uniform(inst.node_count(), "R1O".parse().unwrap());
        assert!(SymTables::detect(&inst, &index, &codec, Spec::Hetero(&h)).is_some());
        h.set_node(
            inst.node_by_name("x").unwrap(),
            NodeModel { scope: NeighborScope::Every, messages: MessagePolicy::All },
        );
        assert!(SymTables::detect(&inst, &index, &codec, Spec::Hetero(&h)).is_none());
    }

    #[test]
    fn transform_round_trips_through_decode() {
        // The packed transform must equal the semantic action: decode,
        // relabel with the automorphism, re-encode.
        let inst = gadgets::disagree();
        let (index, codec, t) = tables(&inst);
        let auts = automorphisms(&inst);
        let mut state = NetworkState::initial(&inst, &index);
        // Drive a few steps to populate queues and ρ.
        use routelab_core::step::{ActivationStep, ChannelAction, NodeUpdate};
        use routelab_engine::exec::execute_step;
        for _ in 0..3 {
            for v in inst.nodes() {
                let actions = index
                    .in_channels(v)
                    .iter()
                    .map(|&cid| ChannelAction::read_all(index.channel(cid)))
                    .collect();
                let step = ActivationStep::single(NodeUpdate::new(v, actions));
                execute_step(&inst, &index, &mut state, &step);
                let p = codec.encode(&state).unwrap();
                for (g, a) in auts.iter().enumerate().take(t.order()) {
                    let img = t.transform(p.as_u16s(), g);
                    let back = codec.decode(&PackedState::from_u16s(img.clone())).unwrap();
                    for v in inst.nodes() {
                        assert_eq!(*back.chosen(a.apply(v)), a.map_route(state.chosen(v)));
                        assert_eq!(*back.announced(a.apply(v)), a.map_route(state.announced(v)));
                    }
                    for c in 0..index.len() {
                        let ch = index.channel(c);
                        let cc = index
                            .id(Channel::new(a.apply(ch.from), a.apply(ch.to)))
                            .expect("channel image");
                        assert_eq!(*back.learned(cc), a.map_route(state.learned(c)));
                        let q: Vec<_> = state.queue(c).iter().map(|r| a.map_route(r)).collect();
                        let qq: Vec<_> = back.queue(cc).iter().cloned().collect();
                        assert_eq!(q, qq);
                    }
                }
            }
        }
    }

    #[test]
    fn canonicalization_is_idempotent_and_invariant() {
        let inst = gadgets::bad_gadget();
        let (index, codec, t) = tables(&inst);
        let state = NetworkState::initial(&inst, &index);
        let p = codec.encode(&state).unwrap();
        for g in 0..t.order() {
            let img = PackedState::from_u16s(t.transform(p.as_u16s(), g));
            let (canon, _) = canonicalize(&t, img);
            let (again, e2) = canonicalize(&t, canon.clone());
            assert_eq!(canon, again, "idempotent");
            assert_eq!(e2, 0, "canonical forms are fixed points");
            let (base, _) = canonicalize(&t, p.clone());
            assert_eq!(canon, base, "same orbit, same representative");
        }
    }

    #[test]
    fn group_tables_are_consistent() {
        let inst = gadgets::bad_gadget();
        let (_, _, t) = tables(&inst);
        for g in 0..t.order() {
            assert_eq!(t.compose(g, t.inverse(g)), 0);
            assert_eq!(t.compose(t.inverse(g), g), 0);
            assert_eq!(t.compose(g, 0), g);
            assert_eq!(t.compose(0, g), g);
        }
    }

    mod canonicalization_props {
        use super::*;
        use proptest::prelude::*;
        use routelab_core::step::{ActivationStep, ChannelAction, NodeUpdate};
        use routelab_engine::exec::execute_step;
        use routelab_spp::NodeId;

        /// A reachable state of a symmetric gadget: the initial state driven
        /// by an arbitrary finite activation walk (read-all activations of
        /// the chosen nodes, which reach a rich slice of the space).
        fn walk_state(inst: &SppInstance, index: &ChannelIndex, walk: &[usize]) -> NetworkState {
            let mut state = NetworkState::initial(inst, index);
            for &pick in walk {
                let v = NodeId((pick % inst.node_count()) as u32);
                let actions = index
                    .in_channels(v)
                    .iter()
                    .map(|&cid| ChannelAction::read_all(index.channel(cid)))
                    .collect();
                execute_step(
                    inst,
                    index,
                    &mut state,
                    &ActivationStep::single(NodeUpdate::new(v, actions)),
                );
            }
            state
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            #[test]
            fn idempotent_and_permutation_invariant(
                gadget in 0usize..3,
                walk in prop::collection::vec(0usize..64, 0..14),
            ) {
                let inst = match gadget {
                    0 => gadgets::disagree(),
                    1 => gadgets::bad_gadget(),
                    _ => gadgets::wheel(4),
                };
                let (index, codec, t) = tables(&inst);
                let state = walk_state(&inst, &index, &walk);
                let p = codec.encode(&state).expect("reachable states encode");
                let (canon, _) = canonicalize(&t, p.clone());
                // Idempotence: a canonical form is its own representative.
                let (again, g2) = canonicalize(&t, canon.clone());
                prop_assert_eq!(&again, &canon);
                prop_assert_eq!(g2, 0);
                // Permutation invariance: every image of the orbit
                // canonicalizes to the same representative.
                for g in 0..t.order() {
                    let img = PackedState::from_u16s(t.transform(p.as_u16s(), g));
                    let (c2, _) = canonicalize(&t, img);
                    prop_assert_eq!(&c2, &canon, "element {}", g);
                }
            }
        }
    }

    #[test]
    fn class_projection_rewrites_unusable_routes_to_epsilon() {
        // FIG6: x reads (d) and announces xd on (x, a) and (x, d). On
        // (x, a) the route xd is usable (axd is permitted at a) and must
        // survive the projection; on (x, d) the same announcement can never
        // extend at the destination and projects onto ε, where the
        // absorbed-read normalization then pops it.
        use crate::effects::{CanonicalStep, ChannelEffect};
        use crate::exec_packed::{Applied, ExecTables, PackedScratch};
        let inst = gadgets::fig6();
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(&inst, &index, "t").unwrap();
        let tables =
            ExecTables::new(&inst, &index, &codec, channel_modes(&inst, &index, &codec, uniform()));
        let x = inst.node_by_name("x").unwrap();
        let a = inst.node_by_name("a").unwrap();
        let d = inst.dest();
        let dx = index.id(Channel::new(d, x)).unwrap();
        let xa = index.id(Channel::new(x, a)).unwrap();
        let xd_chan = index.id(Channel::new(x, d)).unwrap();
        let trivial = Route::path(routelab_spp::Path::trivial(d));
        let xd = codec.route_id(&Route::path(inst.parse_path("xd").unwrap())).unwrap();
        let init = NetworkState::initial(&inst, &index);
        let mut queues = vec![Vec::new(); index.len()];
        queues[dx].push(trivial.clone());
        let mut announced: Vec<Route> = inst.nodes().map(|v| init.announced(v).clone()).collect();
        announced[d.index()] = trivial;
        let parent = NetworkState::from_parts(
            init.assignment(),
            announced,
            (0..index.len()).map(|c| init.learned(c).clone()).collect(),
            queues,
        );
        let mut words = Vec::new();
        codec.encode_into(&parent, &mut words).unwrap();
        let step = CanonicalStep {
            node: x,
            effects: vec![ChannelEffect { channel: dx, consume: 1, keep: Some(1) }],
        };
        let mut scratch = PackedScratch::default();
        tables.prepare(&words, &mut scratch);
        let mut out = Vec::new();
        let applied = tables.apply(&words, &mut scratch, &step, 3, &mut out);
        assert!(matches!(applied, Applied::Ok { new_rid, .. } if new_rid == xd), "{applied:?}");
        let next = codec.decode_words(&out).unwrap();
        assert_eq!(next.queue(xa).iter().collect::<Vec<_>>(), vec![&codec.routes()[xd as usize]]);
        // The unusable announcement became ε and was then absorbed against
        // the channel's ε ρ — the queue is empty and the edge must attend.
        assert!(next.queue(xd_chan).is_empty());
        assert_eq!(scratch.absorbed, vec![xd_chan]);
        assert_eq!(scratch.counts, NormCounts { rewrites: 1, pops: 1, set_collapses: 0 });
    }

    #[test]
    fn modes_follow_the_reader() {
        let inst = gadgets::disagree();
        let index = ChannelIndex::new(inst.graph());
        // R1A: reliable policy-A readers — newest-collapse + absorb.
        let spec = Spec::Uniform("R1A".parse().unwrap());
        for c in 0..index.len() {
            let m = mode_for(spec, &index, c);
            assert!(m.newest && m.absorb && !m.set, "{m:?}");
        }
        // UEA: unreliable policy-A scope-E — set-collapse only.
        let spec = Spec::Uniform("UEA".parse().unwrap());
        for c in 0..index.len() {
            let m = mode_for(spec, &index, c);
            assert!(m.set && !m.absorb && !m.newest, "{m:?}");
        }
        // REO: reliable scope-E policy-O — nothing applies.
        let spec = Spec::Uniform("REO".parse().unwrap());
        for c in 0..index.len() {
            let m = mode_for(spec, &index, c);
            assert!(!m.set && !m.absorb && !m.newest, "{m:?}");
        }
        // U1O: unreliable scope-1 policy-O — absorb only.
        let spec = Spec::Uniform("U1O".parse().unwrap());
        for c in 0..index.len() {
            let m = mode_for(spec, &index, c);
            assert!(m.absorb && !m.set && !m.newest, "{m:?}");
        }
    }
}
