//! Canonical enumeration of the distinct step effects a model admits.
//!
//! A channel action `(f, g)` only influences the network through the pair
//! "(number of messages deleted, index of the message learned)", so instead
//! of enumerating the exponentially many `(f, g)` pairs the explorer
//! enumerates these *channel effects* — `O(m)` per channel for reliable
//! models and `O(m²)` for unreliable ones — and rebuilds a legal action for
//! each.

use routelab_core::dims::{MessagePolicy, NeighborScope, Reliability};
use routelab_core::hetero::HeteroModel;
use routelab_core::model::CommModel;
use routelab_core::step::{ActivationStep, ChannelAction, NodeUpdate, Take};
use routelab_engine::index::ChannelIndex;
use routelab_engine::state::NetworkState;
use routelab_spp::{Channel, NodeId};

/// Uniform-or-heterogeneous model view used throughout the explorer.
#[derive(Debug, Clone, Copy)]
pub enum Spec<'a> {
    /// One of the 24 uniform taxonomy models.
    Uniform(CommModel),
    /// A mixed per-node / per-channel model (the paper's future work).
    Hetero(&'a HeteroModel),
}

impl Spec<'_> {
    /// Neighbor scope of node `v`.
    pub fn scope(&self, v: NodeId) -> NeighborScope {
        match self {
            Spec::Uniform(m) => m.scope,
            Spec::Hetero(h) => h.node(v).scope,
        }
    }

    /// Message policy of node `v`.
    pub fn messages(&self, v: NodeId) -> MessagePolicy {
        match self {
            Spec::Uniform(m) => m.messages,
            Spec::Hetero(h) => h.node(v).messages,
        }
    }

    /// Reliability of channel `c`.
    pub fn reliability(&self, c: Channel) -> Reliability {
        match self {
            Spec::Uniform(m) => m.reliability,
            Spec::Hetero(h) => h.reliability(c),
        }
    }

    /// `true` when the queue-to-newest abstraction is exact: all channels
    /// reliable and every node on policy `A`.
    pub fn collapsible(&self) -> bool {
        match self {
            Spec::Uniform(m) => {
                m.reliability == Reliability::Reliable && m.messages == MessagePolicy::All
            }
            Spec::Hetero(h) => h.collapsible(),
        }
    }
}

/// The effect of processing one channel: delete the first `consume`
/// messages, learn the `keep`-th (1-based) if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChannelEffect {
    /// Dense channel id.
    pub channel: usize,
    /// Messages deleted from the head.
    pub consume: usize,
    /// 1-based index (≤ `consume`) of the learned message; `None` when all
    /// deleted messages are dropped (or none is deleted).
    pub keep: Option<usize>,
}

impl ChannelEffect {
    /// Number of messages dropped by this effect (with the minimal drop
    /// set: everything above the kept index).
    pub fn dropped(&self) -> usize {
        match self.keep {
            Some(j) => self.consume - j,
            None => self.consume,
        }
    }
}

/// Enumerates the distinct channel effects a message policy admits on a
/// channel currently holding `m` messages. The boolean per entry records
/// whether it is reachable without drops (needed to honor reliability).
fn channel_effects(
    policy: MessagePolicy,
    reliability: Reliability,
    channel: usize,
    m: usize,
) -> Vec<ChannelEffect> {
    let mut out = Vec::new();
    let consumes: Vec<usize> = match policy {
        MessagePolicy::One => vec![1.min(m)],
        MessagePolicy::All => vec![m],
        MessagePolicy::Forced => {
            if m == 0 {
                vec![0]
            } else {
                (1..=m).collect()
            }
        }
        MessagePolicy::Some => (0..=m).collect(),
    };
    for i in consumes {
        if i == 0 {
            out.push(ChannelEffect { channel, consume: 0, keep: None });
            continue;
        }
        match reliability {
            Reliability::Reliable => {
                out.push(ChannelEffect { channel, consume: i, keep: Some(i) });
            }
            Reliability::Unreliable => {
                out.push(ChannelEffect { channel, consume: i, keep: None });
                for j in 1..=i {
                    out.push(ChannelEffect { channel, consume: i, keep: Some(j) });
                }
            }
        }
    }
    out
}

/// Rebuilds a legal [`ChannelAction`] for an effect under the given policy.
fn action_for(
    policy: MessagePolicy,
    index: &ChannelIndex,
    effect: &ChannelEffect,
) -> ChannelAction {
    let c = index.channel(effect.channel);
    let take = match policy {
        MessagePolicy::One => Take::Count(1),
        MessagePolicy::All => Take::All,
        MessagePolicy::Forced => Take::Count(effect.consume.max(1) as u32),
        MessagePolicy::Some => Take::Count(effect.consume as u32),
    };
    // Minimal drop set realizing the effect: ρ becomes the *largest*
    // non-dropped index ≤ consume, so only indices above `keep` need
    // dropping (none when the newest consumed message is kept — the
    // lossless read, mandatory under reliable channels).
    let drops: std::collections::BTreeSet<u32> = match effect.keep {
        Some(j) => (j as u32 + 1..=effect.consume as u32).collect(),
        None => (1..=effect.consume as u32).collect(),
    };
    ChannelAction::new(c, take, drops).expect("canonical effects satisfy Definition 2.2")
}

/// A canonical single-node step: the updater and its channel effects.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalStep {
    /// The updating node.
    pub node: NodeId,
    /// Effects, one per processed channel.
    pub effects: Vec<ChannelEffect>,
}

impl CanonicalStep {
    /// Rebuilds the activation step.
    pub fn to_activation(&self, spec: Spec<'_>, index: &ChannelIndex) -> ActivationStep {
        let policy = spec.messages(self.node);
        let actions = self.effects.iter().map(|e| action_for(policy, index, e)).collect();
        ActivationStep::single(NodeUpdate::new(self.node, actions))
    }

    /// Channels this step attends (reads with `f ≥ 1`): every processed
    /// channel except `f = 0` reads, which only policy `S` produces (the
    /// rebuilt action for a zero-consume effect has `f = 1` under `O`/`F`
    /// and `f = ∞` under `A`).
    pub fn attended(&self, spec: Spec<'_>) -> Vec<usize> {
        let policy = spec.messages(self.node);
        self.effects
            .iter()
            .filter(|e| e.consume > 0 || policy != MessagePolicy::Some)
            .map(|e| e.channel)
            .collect()
    }
}

/// Enumerates all canonical steps of `spec` for updater `v` in `state`,
/// capped at `max_steps` (the boolean marks the cap was hit).
pub fn node_steps(
    spec: Spec<'_>,
    index: &ChannelIndex,
    state: &NetworkState,
    v: NodeId,
    max_steps: usize,
) -> (Vec<CanonicalStep>, bool) {
    node_steps_with(spec, index, &|cid| state.queue(cid).len(), v, max_steps)
}

/// [`node_steps`] with queue lengths read through a closure — a canonical
/// step depends on the state only through its queue lengths, so the
/// explorer enumerates steps straight off a packed header without decoding
/// a [`NetworkState`].
pub fn node_steps_with(
    spec: Spec<'_>,
    index: &ChannelIndex,
    queue_len: &impl Fn(usize) -> usize,
    v: NodeId,
    max_steps: usize,
) -> (Vec<CanonicalStep>, bool) {
    let ins = index.in_channels(v);
    let policy = spec.messages(v);
    let per_channel: Vec<Vec<ChannelEffect>> = ins
        .iter()
        .map(|&cid| {
            channel_effects(policy, spec.reliability(index.channel(cid)), cid, queue_len(cid))
        })
        .collect();

    let mut out = Vec::new();
    let mut capped = false;
    match spec.scope(v) {
        NeighborScope::One => {
            for opts in &per_channel {
                for &e in opts {
                    out.push(CanonicalStep { node: v, effects: vec![e] });
                }
            }
        }
        NeighborScope::Every => {
            // Cartesian product over all channels.
            capped = product(v, &per_channel, false, max_steps, &mut out);
        }
        NeighborScope::Multiple => {
            // Product over ({absent} ∪ options) per channel; `absent` and a
            // zero-consume read have identical state effect, so drop
            // zero-consume options here to avoid duplicates.
            let trimmed: Vec<Vec<ChannelEffect>> = per_channel
                .iter()
                .map(|opts| opts.iter().copied().filter(|e| e.consume > 0).collect())
                .collect();
            capped = product(v, &trimmed, true, max_steps, &mut out);
        }
    }
    if ins.is_empty() {
        // A node with no neighbors can only perform a bare update; only
        // scope M admits it (no channels to process).
        if spec.scope(v) == NeighborScope::Multiple {
            out.push(CanonicalStep { node: v, effects: Vec::new() });
        }
    }
    (out, capped)
}

/// Cartesian product of per-channel options; with `optional` each channel
/// may also be absent. Returns `true` when `max` was hit.
fn product(
    v: NodeId,
    per_channel: &[Vec<ChannelEffect>],
    optional: bool,
    max: usize,
    out: &mut Vec<CanonicalStep>,
) -> bool {
    let mut stack: Vec<Vec<ChannelEffect>> = vec![Vec::new()];
    for opts in per_channel {
        let mut next = Vec::new();
        for partial in &stack {
            if optional {
                next.push(partial.clone());
            }
            for &e in opts {
                let mut ext = partial.clone();
                ext.push(e);
                next.push(ext);
                if next.len() + out.len() > max {
                    return true;
                }
            }
            if next.len() + out.len() > max {
                return true;
            }
        }
        stack = next;
    }
    for effects in stack {
        if out.len() >= max {
            return true;
        }
        out.push(CanonicalStep { node: v, effects });
    }
    false
}

/// Enumerates canonical steps for *every* node.
pub fn all_steps(
    spec: Spec<'_>,
    index: &ChannelIndex,
    state: &NetworkState,
    node_count: usize,
    max_steps: usize,
) -> (Vec<CanonicalStep>, bool) {
    all_steps_with(spec, index, &|cid| state.queue(cid).len(), node_count, max_steps)
}

/// [`all_steps`] with queue lengths read through a closure (see
/// [`node_steps_with`]).
pub fn all_steps_with(
    spec: Spec<'_>,
    index: &ChannelIndex,
    queue_len: &impl Fn(usize) -> usize,
    node_count: usize,
    max_steps: usize,
) -> (Vec<CanonicalStep>, bool) {
    let mut out = Vec::new();
    let mut capped = false;
    for i in 0..node_count {
        let (steps, c) = node_steps_with(
            spec,
            index,
            queue_len,
            NodeId(i as u32),
            max_steps.saturating_sub(out.len()),
        );
        out.extend(steps);
        capped |= c;
    }
    (out, capped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_core::validate::check_step;
    use routelab_engine::runner::Runner;
    use routelab_spp::gadgets;

    fn setup() -> (routelab_spp::SppInstance, ChannelIndex, NetworkState) {
        let inst = gadgets::disagree();
        let index = ChannelIndex::new(inst.graph());
        let state = NetworkState::initial(&inst, &index);
        (inst, index, state)
    }

    #[test]
    fn channel_effect_counts() {
        use MessagePolicy as P;
        use Reliability as R;
        // Empty channel: exactly one effect whatever the policy.
        for p in P::ALL {
            assert_eq!(channel_effects(p, R::Reliable, 0, 0).len(), 1, "{p:?}");
        }
        // m = 3: O -> 1; A -> 1; F -> 3; S -> 4 (reliable).
        assert_eq!(channel_effects(P::One, R::Reliable, 0, 3).len(), 1);
        assert_eq!(channel_effects(P::All, R::Reliable, 0, 3).len(), 1);
        assert_eq!(channel_effects(P::Forced, R::Reliable, 0, 3).len(), 3);
        assert_eq!(channel_effects(P::Some, R::Reliable, 0, 3).len(), 4);
        // Unreliable m = 3: O -> 2 (keep or drop); A -> 4 (none or keep j).
        assert_eq!(channel_effects(P::One, R::Unreliable, 0, 3).len(), 2);
        assert_eq!(channel_effects(P::All, R::Unreliable, 0, 3).len(), 4);
    }

    #[test]
    fn effects_rebuild_into_legal_steps() {
        let (inst, index, _) = setup();
        // Put messages in flight first.
        let mut runner = Runner::new(&inst);
        let mut sched = routelab_engine::schedule::RoundRobin::new(&inst, "RMS".parse().unwrap());
        for _ in 0..4 {
            use routelab_engine::schedule::Scheduler;
            let s = sched.next_step(&runner.state()).unwrap();
            runner.step(&s);
        }
        let ns = runner.state().to_network_state();
        for model in CommModel::all() {
            let (steps, capped) =
                all_steps(Spec::Uniform(model), &index, &ns, inst.node_count(), 100_000);
            assert!(!capped, "{model}");
            assert!(!steps.is_empty(), "{model}");
            for cs in &steps {
                let step = cs.to_activation(Spec::Uniform(model), &index);
                check_step(model, inst.graph(), &step)
                    .unwrap_or_else(|e| panic!("{model} {cs:?}: {e}"));
            }
        }
    }

    #[test]
    fn scope_one_enumerates_per_channel() {
        let (inst, index, state) = setup();
        let x = inst.node_by_name("x").unwrap();
        let (steps, _) = node_steps(Spec::Uniform("R1O".parse().unwrap()), &index, &state, x, 1000);
        // Two in-channels, both empty: one effect each.
        assert_eq!(steps.len(), 2);
        assert!(steps.iter().all(|s| s.effects.len() == 1));
    }

    #[test]
    fn scope_every_takes_product() {
        let (inst, index, state) = setup();
        let x = inst.node_by_name("x").unwrap();
        let (steps, _) = node_steps(Spec::Uniform("RES".parse().unwrap()), &index, &state, x, 1000);
        // Both channels empty: 1 option each -> single product entry.
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].effects.len(), 2);
    }

    #[test]
    fn scope_multiple_allows_absence() {
        let (inst, index, state) = setup();
        let x = inst.node_by_name("x").unwrap();
        let (steps, _) = node_steps(Spec::Uniform("RMA".parse().unwrap()), &index, &state, x, 1000);
        // Empty channels have only zero-consume effects, which `absent`
        // subsumes: the single remaining step is the bare update.
        assert_eq!(steps.len(), 1);
        assert!(steps[0].effects.is_empty());
    }

    #[test]
    fn caps_are_reported() {
        let (inst, index, state) = setup();
        let (_, capped) =
            all_steps(Spec::Uniform("UMS".parse().unwrap()), &index, &state, inst.node_count(), 1);
        assert!(capped);
    }

    #[test]
    fn dropped_counts() {
        let e = ChannelEffect { channel: 0, consume: 3, keep: Some(2) };
        assert_eq!(e.dropped(), 1); // only the message above the kept one
        let e = ChannelEffect { channel: 0, consume: 3, keep: Some(3) };
        assert_eq!(e.dropped(), 0); // the lossless batch read
        let e = ChannelEffect { channel: 0, consume: 3, keep: None };
        assert_eq!(e.dropped(), 3);
        let e = ChannelEffect { channel: 0, consume: 0, keep: None };
        assert_eq!(e.dropped(), 0);
    }

    #[test]
    fn attendance_classification() {
        let (inst, index, _) = setup();
        let x = inst.node_by_name("x").unwrap();
        let cid = index.in_channels(x)[0];
        let cs = CanonicalStep {
            node: x,
            effects: vec![ChannelEffect { channel: cid, consume: 0, keep: None }],
        };
        // Under O the rebuilt action is f = 1: attending even when nothing
        // is consumed; under S it is f = 0: not attending.
        assert_eq!(cs.attended(Spec::Uniform("R1O".parse().unwrap())).len(), 1);
        assert_eq!(cs.attended(Spec::Uniform("R1S".parse().unwrap())).len(), 0);
        let busy = CanonicalStep {
            node: x,
            effects: vec![ChannelEffect { channel: cid, consume: 2, keep: Some(2) }],
        };
        assert_eq!(busy.attended(Spec::Uniform("R1S".parse().unwrap())).len(), 1);
    }
}
