//! What the two explorer workloads share: verdict kinds and the
//! decisive-flip rule, the counters read off each built graph, and the
//! explorer's per-layer metrics.

use routelab_explore::graph::StateGraph;
use routelab_explore::oscillation::Verdict;

/// The decision a verdict carries, without its state counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A fair oscillation exists.
    Oscillates,
    /// Exhaustive, and every fair execution converges.
    Converges,
    /// No oscillation found within the state budget: undecided.
    Bounded,
}

impl Kind {
    /// The kind of `v`.
    pub fn of(v: &Verdict) -> Kind {
        match v {
            Verdict::CanOscillate { .. } => Kind::Oscillates,
            Verdict::AlwaysConverges { .. } => Kind::Converges,
            Verdict::NoOscillationWithinBound { .. } => Kind::Bounded,
        }
    }

    /// The word used in the expected-verdict table.
    pub fn word(self) -> &'static str {
        match self {
            Kind::Oscillates => "oscillates",
            Kind::Converges => "converges",
            Kind::Bounded => "bounded",
        }
    }

    /// Parses [`Kind::word`].
    pub fn parse(s: &str) -> Option<Kind> {
        [Kind::Oscillates, Kind::Converges, Kind::Bounded].into_iter().find(|k| k.word() == s)
    }
}

/// `true` when `got` contradicts `expected`: one says a fair oscillation
/// exists and the other that every fair execution converges. A bounded
/// cell on either side decides nothing, so it never flips: a reduction
/// that lets a bounded cell decide is an improvement, and a cell that
/// falls back to bounded contradicts nothing (its state count shows in
/// the traced counters).
pub fn is_decisive_flip(expected: Kind, got: Kind) -> bool {
    matches!(
        (expected, got),
        (Kind::Oscillates, Kind::Converges) | (Kind::Converges, Kind::Oscillates)
    )
}

/// Work counters summed (or, for peaks, maximized) over built graphs.
/// Deterministic: the same iteration repeats them exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub states: u64,
    pub expanded: u64,
    pub candidates: u64,
    pub dedup_hits: u64,
    pub blocks: u64,
    pub peak_frontier: u64,
    pub truncated_cells: u64,
    pub bytes_resident: u64,
    pub canon_rewrites: u64,
    pub absorb_pops: u64,
    pub set_collapses: u64,
    pub sym_hits: u64,
    pub search_states: u64,
}

impl Counts {
    /// Adds one built graph's counters.
    pub fn add(&mut self, g: &StateGraph) {
        self.states += g.len() as u64;
        self.expanded += g.stats.expanded;
        self.candidates += g.stats.candidates;
        self.dedup_hits += g.stats.dedup_hits;
        self.blocks += g.stats.blocks;
        self.peak_frontier = self.peak_frontier.max(g.stats.peak_frontier as u64);
        self.truncated_cells += u64::from(g.truncated);
        self.bytes_resident = self.bytes_resident.max(g.stats.bytes_resident);
        self.canon_rewrites += g.reduction.canon_rewrites;
        self.absorb_pops += g.reduction.absorb_pops;
        self.set_collapses += g.reduction.set_collapses;
        self.sym_hits += g.reduction.sym_hits;
    }

    /// The counters as per-layer metrics; `build_s` is the time the
    /// counted builds took.
    pub fn metrics(&self, build_s: f64) -> Vec<(&'static str, f64)> {
        let ratio = |a: u64, b: f64| if b > 0.0 { a as f64 / b } else { 0.0 };
        vec![
            ("explore.states", self.states as f64),
            ("explore.expanded", self.expanded as f64),
            ("explore.candidates", self.candidates as f64),
            ("explore.dedup_hits", self.dedup_hits as f64),
            ("explore.blocks", self.blocks as f64),
            ("explore.peak_frontier", self.peak_frontier as f64),
            ("explore.truncated_cells", self.truncated_cells as f64),
            ("explore.fresh_ratio", ratio(self.states, self.candidates as f64)),
            ("explore.candidates_per_s", ratio(self.candidates, build_s)),
            ("explore.bytes_resident", self.bytes_resident as f64),
            ("reduce.canon_rewrites", self.canon_rewrites as f64),
            ("reduce.absorb_pops", self.absorb_pops as f64),
            ("reduce.set_collapses", self.set_collapses as f64),
            ("reduce.sym_hits", self.sym_hits as f64),
            ("explore.search_states", self.search_states as f64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_oscillates_against_converges_is_a_flip() {
        use Kind::*;
        assert!(is_decisive_flip(Oscillates, Converges));
        assert!(is_decisive_flip(Converges, Oscillates));
        // Bounded to decided is a stronger answer, not a failure.
        assert!(!is_decisive_flip(Bounded, Converges));
        assert!(!is_decisive_flip(Bounded, Oscillates));
        // Decided to bounded loses an answer but contradicts nothing.
        assert!(!is_decisive_flip(Converges, Bounded));
        assert!(!is_decisive_flip(Oscillates, Bounded));
        for k in [Oscillates, Converges, Bounded] {
            assert!(!is_decisive_flip(k, k));
            assert_eq!(Kind::parse(k.word()), Some(k));
        }
        assert_eq!(Kind::parse("diverges"), None);
    }
}
