//! The explorer's one successor function: Definition 2.3 steps applied
//! directly to packed state words.
//!
//! Every client of the frontier engine — unreduced builds, reduced builds
//! and trace searches — produces successors with [`ExecTables::apply`]. No
//! state is ever decoded into a [`NetworkState`] during expansion: a
//! successor is the parent's word buffer with a handful of slots patched.
//! The route-value executor
//! [`execute_step`](routelab_engine::exec::execute_step) remains the
//! reference the differential tests compare against.
//!
//! In packed space one activation step is pure integer lookups.
//! Processing a channel effect `(consume i, keep j)` sets ρ to the queue
//! word at offset `j-1` and drops the first `i` queue words; the re-choice
//! is a minimum over per-channel candidate entries of a table precomputed
//! from the instance (`route id → (rank, tie-break ordinal, extended route
//! id)` — the extension of a permitted route is itself in the codec's
//! universe, so the table is total); announcing appends one word to each
//! out-channel queue.
//!
//! Each touched queue is then brought into its channel's normal form
//! ([`ChannelMode`]): the appended word is projected onto its route class,
//! the queue is collapsed to its newest message or to a sorted set, and
//! absorbed heads (messages equal to ρ) are popped. These are the word-level
//! forms of the reduction layer's normal forms ([`crate::reduce`]). The
//! root state is normal, and a channel the step does not touch keeps its
//! parent's (normal) contents, so normalizing the touched channels alone
//! yields the normal form of the whole successor.
//!
//! Equivalence with the engine (pinned by the differential test below and
//! the graph-level suites):
//!
//! * `choose_best` takes the minimum by `(rank, path)`; the table stores
//!   each candidate's ordinal within the node's `Path`-sorted permitted
//!   set, so `(rank, ordinal)` induces the same order.
//! * ρ is updated only when a message is kept (`keep = Some(j)`), exactly
//!   when `FifoChannel::process` reports a learned route.
//! * π and the announcement are written under the same conditions as
//!   `execute_step` phase 3; with every mode off the successor is
//!   `execute_step`'s result word for word, and newest-collapse on every
//!   channel equals [`NetworkState::collapse_queues_to_newest`].
//!
//! [`NetworkState`]: routelab_engine::state::NetworkState
//! [`NetworkState::collapse_queues_to_newest`]: routelab_engine::state::NetworkState::collapse_queues_to_newest

use routelab_engine::index::ChannelIndex;
use routelab_spp::{Path, Route, SppInstance};

use crate::effects::CanonicalStep;
use crate::pack::StateCodec;

/// One candidate entry: extending a learned route at the reading node
/// yields the permitted path with this rank and route id. `ord` is the
/// path's position in the node's `Path`-sorted permitted set, the proxy for
/// `choose_best`'s lexicographic tie-break.
#[derive(Debug, Clone, Copy)]
struct Cand {
    rank: u32,
    ord: u32,
    ext: u16,
}

/// How [`ExecTables::apply`] normalizes one channel's queue after a step
/// touches it. The default (everything off) is the literal Definition 2.3
/// queue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ChannelMode {
    /// Keep only the newest message (reliable channel, policy-`A` reader).
    pub(crate) newest: bool,
    /// Keep a set sorted by route order (unreliable channel, policy-`A`
    /// reader); exempt from the channel cap.
    pub(crate) set: bool,
    /// Pop head messages equal to the channel's ρ (absorbed reads).
    pub(crate) absorb: bool,
    /// `class[id]`: the route-class representative of an appended route
    /// id; empty for the identity projection.
    pub(crate) class: Vec<u16>,
}

/// Normal-form activity accumulated by [`ExecTables::apply`], counted for
/// every candidate — including those the channel cap then cuts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct NormCounts {
    /// Appended routes projected onto a different class representative.
    pub(crate) rewrites: u64,
    /// Absorbed head messages popped.
    pub(crate) pops: u64,
    /// Queues the set collapse reordered or deduplicated.
    pub(crate) set_collapses: u64,
}

/// Precompiled packed-space execution tables for one instance × codec ×
/// channel-mode table.
#[derive(Debug)]
pub(crate) struct ExecTables {
    n: usize,
    m: usize,
    dest: usize,
    trivial_id: u16,
    modes: Vec<ChannelMode>,
    /// `sort_key[id]`: position of route `id` under the route order (the
    /// set collapse's order); empty when no channel is set-collapsed.
    sort_key: Vec<u32>,
    in_channels: Vec<Vec<usize>>,
    out_channels: Vec<Vec<usize>>,
    /// `cand[v][rid]`: the candidate `v` obtains by extending route `rid`,
    /// `None` when the extension is ε, loops, or is not permitted.
    cand: Vec<Vec<Option<Cand>>>,
}

/// Reusable per-worker scratch: queue start offsets of the current parent,
/// the per-candidate patch list of [`ExecTables::apply`], and what its
/// normalization did.
#[derive(Debug, Default)]
pub(crate) struct PackedScratch {
    qstart: Vec<usize>,
    touch: Vec<Touch>,
    /// Channels whose head the last `apply` absorbed, ascending. The edge
    /// attends and keeps on them.
    pub(crate) absorbed: Vec<usize>,
    /// Running normal-form counters; the caller drains them.
    pub(crate) counts: NormCounts,
}

/// One channel whose queue a candidate step changes; every other channel's
/// length word and contents copy verbatim from the parent.
#[derive(Debug, Clone, Copy)]
struct Touch {
    c: usize,
    consume: usize,
    append: bool,
}

/// Outcome of applying one step in packed space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Applied {
    /// The successor words were written; `new_rid` is the updater's chosen
    /// route afterwards.
    Ok { new_rid: u16 },
    /// Some queue that is not set-collapsed would exceed the channel cap;
    /// the caller must discard the partial output.
    Capped,
}

impl ExecTables {
    /// Compiles the tables; `modes` holds one entry per dense channel id.
    pub(crate) fn new(
        inst: &SppInstance,
        index: &ChannelIndex,
        codec: &StateCodec,
        modes: Vec<ChannelMode>,
    ) -> Self {
        debug_assert_eq!(modes.len(), index.len());
        let trivial_id = codec
            .route_id(&Route::path(Path::trivial(inst.dest())))
            .expect("the trivial route is interned by construction");
        let cand = inst
            .nodes()
            .map(|v| {
                if v == inst.dest() {
                    return vec![None; codec.route_count()];
                }
                let mut sorted: Vec<Path> =
                    inst.permitted(v).iter().map(|rp| rp.path.clone()).collect();
                sorted.sort_unstable();
                codec
                    .routes()
                    .iter()
                    .map(|r| {
                        inst.candidate(v, r).map(|(ext, rank)| {
                            let ord = sorted
                                .binary_search(&ext)
                                .expect("candidate extensions are permitted paths")
                                as u32;
                            let ext = codec
                                .route_id(&Route::path(ext))
                                .expect("permitted paths are in the route universe");
                            Cand { rank, ord, ext }
                        })
                    })
                    .collect()
            })
            .collect();
        let sort_key = if modes.iter().any(|md| md.set) { codec.route_order() } else { Vec::new() };
        ExecTables {
            n: inst.node_count(),
            m: index.len(),
            dest: inst.dest().index(),
            trivial_id,
            modes,
            sort_key,
            in_channels: inst.nodes().map(|v| index.in_channels(v).to_vec()).collect(),
            out_channels: inst.nodes().map(|v| index.out_channels(v).to_vec()).collect(),
            cand,
        }
    }

    /// Computes the queue start offsets of `node` into `scratch` — once per
    /// parent, shared by all its candidate applications.
    pub(crate) fn prepare(&self, node: &[u16], scratch: &mut PackedScratch) {
        scratch.qstart.clear();
        scratch.qstart.reserve(self.m);
        let mut at = 2 * self.n + 2 * self.m;
        for c in 0..self.m {
            scratch.qstart.push(at);
            at += usize::from(node[2 * self.n + self.m + c]);
        }
    }

    /// Queue length of channel `c` in `node`.
    pub(crate) fn queue_len(&self, node: &[u16], c: usize) -> usize {
        usize::from(node[2 * self.n + self.m + c])
    }

    /// The queue-length profile of `node`: one word per channel, already
    /// contiguous in the packed layout. States with equal profiles
    /// enumerate equal canonical-step sets, which is what the expansion
    /// catalog keys on.
    pub(crate) fn qlen_profile<'a>(&self, node: &'a [u16]) -> &'a [u16] {
        &node[2 * self.n + self.m..2 * self.n + 2 * self.m]
    }

    /// Applies `cs` to the normal state `node` and appends the normal form
    /// of the successor to `out`. On [`Applied::Capped`] the caller must
    /// truncate `out` back to its pre-call length. `scratch` must hold
    /// `node`'s offsets (see [`ExecTables::prepare`]); afterwards it lists
    /// the absorbed channels and has the normalization counted.
    pub(crate) fn apply(
        &self,
        node: &[u16],
        scratch: &mut PackedScratch,
        cs: &CanonicalStep,
        cap: usize,
        out: &mut Vec<u16>,
    ) -> Applied {
        let (n, m) = (self.n, self.m);
        let v = cs.node.index();
        let mark = out.len();

        // Phase 2 (choice) first — it only reads the parent. ρ' on an
        // in-channel is the kept queue word when the step keeps one there,
        // else the parent's ρ.
        let new_rid = if v == self.dest {
            self.trivial_id
        } else {
            let mut best: Option<Cand> = None;
            for &c in &self.in_channels[v] {
                let mut rho = node[2 * n + c];
                for e in &cs.effects {
                    if e.channel == c {
                        if let Some(j) = e.keep {
                            rho = node[scratch.qstart[c] + j - 1];
                        }
                        break;
                    }
                }
                if let Some(cand) = self.cand[v][usize::from(rho)] {
                    let better = match best {
                        None => true,
                        Some(b) => (cand.rank, cand.ord) < (b.rank, b.ord),
                    };
                    if better {
                        best = Some(cand);
                    }
                }
            }
            best.map_or(0, |c| c.ext) // route id 0 is ε
        };
        let announcing = new_rid != node[n + v];

        // Header: chosen (π'ᵥ = the new choice — writing it unconditionally
        // equals execute_step's guarded write), announced, learned.
        out.extend_from_slice(&node[..n]);
        out[mark + v] = new_rid;
        out.extend_from_slice(&node[n..2 * n]);
        if announcing {
            out[mark + n + v] = new_rid;
        }
        out.extend_from_slice(&node[2 * n..2 * n + m]);
        for e in &cs.effects {
            if let Some(j) = e.keep {
                out[mark + 2 * n + e.channel] = node[scratch.qstart[e.channel] + j - 1];
            }
        }

        // Patch plan: the few channels this step consumes from or appends
        // to. Every other channel's length word and contents are identical
        // to the parent's and copy verbatim in bulk runs below — per
        // candidate the work is a handful of touched channels plus two or
        // three `memcpy`s, not an `m`-way scan with per-channel branching.
        scratch.touch.clear();
        for e in &cs.effects {
            if e.consume > 0 {
                scratch.touch.push(Touch { c: e.channel, consume: e.consume, append: false });
            }
        }
        if announcing {
            for &c in &self.out_channels[v] {
                match scratch.touch.iter_mut().find(|t| t.c == c) {
                    Some(t) => t.append = true,
                    None => scratch.touch.push(Touch { c, consume: 0, append: true }),
                }
            }
        }
        scratch.touch.sort_unstable_by_key(|t| t.c);
        scratch.absorbed.clear();

        // Queue lengths: the parent's header, patched at each touched
        // channel once its contents are written. Only touched queues can
        // change, so the cap check is theirs alone — untouched lengths were
        // checked when the parent was. The check runs after normalization
        // and after every touched channel is counted, so that the counters
        // see capped candidates too.
        out.extend_from_slice(&node[2 * n + m..2 * n + 2 * m]);
        let qbase = mark + 2 * n + m;
        let mut capped = false;
        let mut copy_from = 2 * n + 2 * m;
        for t in &scratch.touch {
            let qs = scratch.qstart[t.c];
            let qe = qs + self.queue_len(node, t.c);
            out.extend_from_slice(&node[copy_from..qs]);
            copy_from = qe;
            let mode = &self.modes[t.c];
            let appended = t.append.then(|| match mode.class.get(usize::from(new_rid)) {
                Some(&k) if k != new_rid => {
                    scratch.counts.rewrites += 1;
                    k
                }
                _ => new_rid,
            });
            let start = out.len();
            if mode.newest {
                if let Some(r) = appended {
                    out.push(r);
                } else if qe > qs + t.consume {
                    out.push(node[qe - 1]); // the newest survivor
                }
            } else {
                out.extend_from_slice(&node[qs + t.consume..qe]);
                out.extend(appended);
                if mode.set && self.collapse_to_set(out, start) {
                    scratch.counts.set_collapses += 1;
                }
            }
            if mode.absorb {
                let rho = out[mark + 2 * n + t.c];
                let popped = out[start..].iter().take_while(|&&w| w == rho).count();
                if popped > 0 {
                    out.drain(start..start + popped);
                    scratch.counts.pops += popped as u64;
                    scratch.absorbed.push(t.c);
                }
            }
            let len = out.len() - start;
            capped |= !mode.set && len > cap;
            out[qbase + t.c] = len as u16;
        }
        out.extend_from_slice(&node[copy_from..]);
        if capped {
            Applied::Capped
        } else {
            Applied::Ok { new_rid }
        }
    }

    /// Sorts `out[start..]` by route order and removes duplicates; `true`
    /// when that changed anything.
    fn collapse_to_set(&self, out: &mut Vec<u16>, start: usize) -> bool {
        let key = |w: u16| self.sort_key[usize::from(w)];
        if out[start..].windows(2).all(|w| key(w[0]) < key(w[1])) {
            return false;
        }
        let mut set = out.split_off(start);
        set.sort_unstable_by_key(|&w| key(w));
        set.dedup();
        out.append(&mut set);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    use routelab_engine::exec::execute_step;
    use routelab_engine::state::NetworkState;
    use routelab_spp::gadgets;

    use crate::effects::{all_steps, Spec};

    /// Differential mini-BFS: every candidate successor computed in packed
    /// space must equal the engine's decode → clone → execute_step →
    /// (collapse) → encode result word for word, including the cap verdict
    /// and the kept/changed metadata, over a few hundred reachable states
    /// per gadget × model. Two mode tables are checked: the unreduced
    /// build's (newest-collapse on every channel iff the model is
    /// collapsible) and the trace search's (every mode off, so collapsible
    /// models too must match the uncollapsed engine).
    #[test]
    fn packed_execution_matches_the_engine_differentially() {
        for (name, inst) in gadgets::corpus() {
            for model in ["R1O", "R1A", "RMA", "REA", "RES", "U1O", "UMA"] {
                let spec = Spec::Uniform(model.parse().unwrap());
                for collapse in [true, false] {
                    if collapse && !spec.collapsible() {
                        continue;
                    }
                    let cell = format!("{name} {model} collapse={collapse}");
                    walk_and_compare(&inst, spec, collapse, &cell);
                }
            }
        }
    }

    /// Set-collapsed channels keep a sorted, deduplicated queue and are
    /// exempt from the channel cap; every other queue is capped.
    #[test]
    fn set_channels_sort_dedup_and_skip_the_cap() {
        use crate::effects::CanonicalStep;
        use routelab_spp::{Channel, Path};

        let inst = gadgets::disagree();
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(&inst, &index, "set-cell").unwrap();
        let set = ChannelMode { set: true, ..ChannelMode::default() };
        let sets = ExecTables::new(&inst, &index, &codec, vec![set; index.len()]);
        let plain =
            ExecTables::new(&inst, &index, &codec, vec![ChannelMode::default(); index.len()]);
        let (d, x, y) =
            (inst.dest(), inst.node_by_name("x").unwrap(), inst.node_by_name("y").unwrap());
        let dx = index.id(Channel::new(d, x)).unwrap();
        let xy = index.id(Channel::new(x, y)).unwrap();
        let trivial = Route::path(Path::trivial(d));
        let xd = Route::path(inst.parse_path("xd").unwrap());
        let init = NetworkState::initial(&inst, &index);
        // `init` with the given announcements and queue contents.
        let state = |announced: &[(routelab_spp::NodeId, Route)], queued: &[(usize, Route)]| {
            let mut ann: Vec<Route> = inst.nodes().map(|v| init.announced(v).clone()).collect();
            for (v, r) in announced {
                ann[v.index()] = r.clone();
            }
            let mut queues = vec![Vec::new(); index.len()];
            for (c, r) in queued {
                queues[*c].push(r.clone());
            }
            let s = NetworkState::from_parts(
                init.assignment(),
                ann,
                (0..index.len()).map(|c| init.learned(c).clone()).collect(),
                queues,
            );
            let mut ws = Vec::new();
            codec.encode_into(&s, &mut ws).unwrap();
            ws
        };
        let run = |tables: &ExecTables, words: &[u16], v, cap| {
            let mut scratch = PackedScratch::default();
            tables.prepare(words, &mut scratch);
            let mut out = Vec::new();
            let step = CanonicalStep { node: v, effects: Vec::new() };
            let applied = tables.apply(words, &mut scratch, &step, cap, &mut out);
            (applied, codec.decode_words(&out).ok(), scratch.counts.set_collapses)
        };
        let queue = |s: &Option<NetworkState>, c| -> Vec<Route> {
            s.as_ref().unwrap().queue(c).iter().cloned().collect()
        };

        // d's bootstrap announcement: capped at cap 0 unless set-collapsed.
        let root = state(&[], &[]);
        assert_eq!(run(&plain, &root, d, 0).0, Applied::Capped);
        let (applied, next, collapses) = run(&sets, &root, d, 0);
        assert!(matches!(applied, Applied::Ok { .. }), "{applied:?}");
        assert_eq!((queue(&next, dx), collapses), (vec![trivial.clone()], 0));
        // A duplicate announcement is deduplicated.
        let (_, next, collapses) = run(&sets, &state(&[], &[(dx, trivial.clone())]), d, 0);
        assert_eq!((queue(&next, dx), collapses), (vec![trivial], 1));
        // x withdraws xd: ε sorts before the queued xd.
        let (_, next, collapses) =
            run(&sets, &state(&[(x, xd.clone())], &[(xy, xd.clone())]), x, 0);
        assert_eq!((queue(&next, xy), collapses), (vec![Route::empty(), xd], 1));
    }

    fn walk_and_compare(inst: &SppInstance, spec: Spec<'_>, collapse: bool, cell: &str) {
        let cap = 3usize;
        let index = ChannelIndex::new(inst.graph());
        let codec = StateCodec::new(inst, &index, "diff-cell").unwrap();
        let mode = ChannelMode { newest: collapse, ..ChannelMode::default() };
        let tables = ExecTables::new(inst, &index, &codec, vec![mode; index.len()]);
        let mut root = Vec::new();
        codec.encode_into(&NetworkState::initial(inst, &index), &mut root).unwrap();

        let mut seen: HashSet<Vec<u16>> = HashSet::new();
        seen.insert(root.clone());
        let mut frontier: Vec<Vec<u16>> = vec![root];
        let mut scratch = PackedScratch::default();
        let mut fast = Vec::new();
        let mut head = 0;
        while head < frontier.len() && seen.len() < 200 {
            let words = frontier[head].clone();
            head += 1;
            let state = codec.decode_words(&words).unwrap();
            let (steps, _) = all_steps(spec, &index, &state, inst.node_count(), 10_000);
            tables.prepare(&words, &mut scratch);
            for cs in steps {
                // Engine oracle.
                let activation = cs.to_activation(spec, &index);
                let mut next = state.clone();
                let effect = execute_step(inst, &index, &mut next, &activation);
                if collapse {
                    next.collapse_queues_to_newest();
                }
                let capped = next.max_queue_len() > cap;

                // Packed kernel.
                fast.clear();
                let applied = tables.apply(&words, &mut scratch, &cs, cap, &mut fast);
                assert!(scratch.absorbed.is_empty(), "{cell} {cs:?}");
                if capped {
                    assert_eq!(applied, Applied::Capped, "{cell} {cs:?}");
                    continue;
                }
                let mut oracle = Vec::new();
                codec.encode_into(&next, &mut oracle).unwrap();
                let Applied::Ok { new_rid } = applied else {
                    panic!("{cell} {cs:?}: spurious cap")
                };
                assert_eq!(fast, oracle, "{cell} {cs:?}");
                let changed = !effect.changed.is_empty();
                assert_eq!(new_rid != words[cs.node.index()], changed, "{cell} {cs:?}");
                let kept: Vec<usize> =
                    cs.effects.iter().filter(|e| e.keep.is_some()).map(|e| e.channel).collect();
                assert_eq!(kept, effect.kept_on, "{cell} {cs:?}");
                let dropped: Vec<usize> =
                    cs.effects.iter().filter(|e| e.dropped() > 0).map(|e| e.channel).collect();
                assert_eq!(dropped, effect.dropped_on, "{cell} {cs:?}");
                if seen.insert(oracle.clone()) {
                    frontier.push(oracle);
                }
            }
        }
        assert!(seen.len() > 1, "{cell}: walk never left the root");
        assert_eq!(scratch.counts, NormCounts::default(), "{cell}: no reduction modes are on");
    }
}
