//! The complete network state (Definition 2.1).

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use routelab_spp::{NodeId, Path, Route, SppInstance};

use crate::channel::FifoChannel;
use crate::index::ChannelIndex;

/// Everything Definition 2.1 tracks: path assignments π, known routes ρ,
/// channel contents — plus each node's last announcement, which determines
/// whether step 4 writes an update.
///
/// The initial state has `π_d = (d)` and `π_v = ε` otherwise, all ρ = ε, all
/// channels empty, and *nothing announced yet*: the destination's first
/// activation therefore announces `(d)` (as in every Appendix A example),
/// resolving the bootstrap ambiguity in Definition 2.3's "π changed" test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NetworkState {
    /// π: the route each node currently chooses.
    chosen: Vec<Route>,
    /// Each node's last written announcement (ε = nothing announced yet).
    announced: Vec<Route>,
    /// ρ, indexed by dense channel id: the last route successfully processed
    /// from that channel.
    learned: Vec<Route>,
    /// Channel contents, indexed by dense channel id.
    queues: Vec<FifoChannel>,
}

impl NetworkState {
    /// The initial state for an instance.
    pub fn initial(inst: &SppInstance, index: &ChannelIndex) -> Self {
        let n = inst.node_count();
        let mut chosen = vec![Route::empty(); n];
        chosen[inst.dest().index()] = Route::path(Path::trivial(inst.dest()));
        NetworkState {
            chosen,
            announced: vec![Route::empty(); n],
            learned: vec![Route::empty(); index.len()],
            queues: vec![FifoChannel::new(); index.len()],
        }
    }

    /// π_v.
    pub fn chosen(&self, v: NodeId) -> &Route {
        &self.chosen[v.index()]
    }

    /// The full assignment π (indexed by node id).
    pub fn assignment(&self) -> Vec<Route> {
        self.chosen.clone()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.chosen.len()
    }

    /// `v`'s last announcement (ε before the first one).
    pub fn announced(&self, v: NodeId) -> &Route {
        &self.announced[v.index()]
    }

    /// ρ for the channel with dense id `c`.
    pub fn learned(&self, c: usize) -> &Route {
        &self.learned[c]
    }

    /// The queue of the channel with dense id `c`.
    pub fn queue(&self, c: usize) -> &FifoChannel {
        &self.queues[c]
    }

    /// Total messages in flight.
    pub fn messages_in_flight(&self) -> usize {
        self.queues.iter().map(FifoChannel::len).sum()
    }

    /// `true` when every channel is empty *and* every node's choice equals
    /// its last announcement — a quiescent state. Because a node re-chooses
    /// in the same step in which it reads, and has nothing new to announce,
    /// no future step can change any π or send any message: the network has
    /// converged. (The second condition matters only before the
    /// destination's first activation, which still owes its bootstrap
    /// announcement.)
    pub fn is_quiescent(&self) -> bool {
        self.queues.iter().all(FifoChannel::is_empty) && self.chosen == self.announced
    }

    /// Length of the longest queue (used for channel-bound bookkeeping).
    pub fn max_queue_len(&self) -> usize {
        self.queues.iter().map(FifoChannel::len).max().unwrap_or(0)
    }

    /// A 64-bit fingerprint of the full state (for cycle detection).
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.hash(&mut h);
        h.finish()
    }

    pub(crate) fn chosen_mut(&mut self, v: NodeId) -> &mut Route {
        &mut self.chosen[v.index()]
    }

    pub(crate) fn announced_mut(&mut self, v: NodeId) -> &mut Route {
        &mut self.announced[v.index()]
    }

    pub(crate) fn learned_mut(&mut self, c: usize) -> &mut Route {
        &mut self.learned[c]
    }

    pub(crate) fn queue_mut(&mut self, c: usize) -> &mut FifoChannel {
        &mut self.queues[c]
    }

    /// Rebuilds a state from its four components (the inverse of the
    /// accessor view). This is the decode hook for external state codecs —
    /// exhaustive explorers intern states in packed form and reconstruct
    /// them on demand — and performs no validation beyond shape: `chosen`
    /// and `announced` must have one entry per node, `learned` and `queues`
    /// one entry per dense channel id, with each queue oldest-first.
    pub fn from_parts(
        chosen: Vec<Route>,
        announced: Vec<Route>,
        learned: Vec<Route>,
        queues: Vec<Vec<Route>>,
    ) -> Self {
        debug_assert_eq!(chosen.len(), announced.len());
        debug_assert_eq!(learned.len(), queues.len());
        let queues = queues
            .into_iter()
            .map(|routes| {
                let mut q = FifoChannel::new();
                for r in routes {
                    q.push(r);
                }
                q
            })
            .collect();
        NetworkState { chosen, announced, learned, queues }
    }

    /// Collapses every queue to its newest message. An exact abstraction
    /// (bisimulation) for reliable all-messages models (`R1A`, `RMA`,
    /// `REA`): every read consumes the whole queue and ρ becomes its newest
    /// message, so older entries can never influence the execution.
    pub fn collapse_queues_to_newest(&mut self) {
        for q in &mut self.queues {
            q.collapse_to_newest();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_spp::gadgets;

    #[test]
    fn initial_state_matches_definition_2_1() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let s = NetworkState::initial(&inst, &idx);
        assert_eq!(s.chosen(inst.dest()), &Route::path(Path::trivial(inst.dest())));
        let x = inst.node_by_name("x").unwrap();
        assert!(s.chosen(x).is_epsilon());
        assert!(s.announced(inst.dest()).is_epsilon());
        for c in 0..idx.len() {
            assert!(s.learned(c).is_epsilon());
            assert!(s.queue(c).is_empty());
        }
        // Not quiescent: the destination still owes its bootstrap
        // announcement (chosen (d) ≠ announced ε).
        assert!(!s.is_quiescent());
        assert_eq!(s.messages_in_flight(), 0);
        assert_eq!(s.max_queue_len(), 0);
    }

    #[test]
    fn fingerprint_distinguishes_states() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let a = NetworkState::initial(&inst, &idx);
        let mut b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        b.queue_mut(0).push(Route::empty());
        assert_ne!(a, b);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert!(!b.is_quiescent());
        assert_eq!(b.max_queue_len(), 1);
    }

    #[test]
    fn from_parts_round_trips() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let mut s = NetworkState::initial(&inst, &idx);
        s.queue_mut(0).push(Route::empty());
        s.queue_mut(0).push(Route::path(Path::trivial(inst.dest())));
        *s.learned_mut(1) = Route::path(Path::trivial(inst.dest()));
        let rebuilt = NetworkState::from_parts(
            s.assignment(),
            (0..inst.node_count()).map(|v| s.announced(NodeId(v as u32)).clone()).collect(),
            (0..idx.len()).map(|c| s.learned(c).clone()).collect(),
            (0..idx.len()).map(|c| s.queue(c).iter().cloned().collect()).collect(),
        );
        assert_eq!(s, rebuilt);
    }

    #[test]
    fn assignment_snapshot() {
        let inst = gadgets::disagree();
        let idx = ChannelIndex::new(inst.graph());
        let s = NetworkState::initial(&inst, &idx);
        let pi = s.assignment();
        assert_eq!(pi.len(), 3);
        assert!(pi[1].is_epsilon());
    }
}
