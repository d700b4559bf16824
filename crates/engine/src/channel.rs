//! FIFO channels and the `(f, g)` message-processing rule of Definition 2.3.

use std::collections::VecDeque;

use routelab_core::step::Take;
use routelab_spp::Route;

/// A FIFO communication channel holding route announcements (possibly ε —
/// withdrawals).
///
/// Messages are ordered oldest first; the processing rule consumes a prefix.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct FifoChannel {
    queue: VecDeque<Route>,
}

/// Result of processing a channel with `(f(c), g(c))` (Definition 2.3,
/// steps 2(b)–2(d)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessOutcome {
    /// `i`: number of messages deleted from the head of the channel.
    pub consumed: usize,
    /// Number of consumed messages that were dropped (indices in `g`).
    pub dropped: usize,
    /// The route in the `j`-th message, where `j` is the largest non-dropped
    /// index `≤ i`; `None` when every processed message was dropped (or none
    /// was processed), in which case ρ keeps its previous value.
    pub learned: Option<Route>,
}

impl FifoChannel {
    /// An empty channel.
    pub fn new() -> Self {
        FifoChannel::default()
    }

    /// Number of queued messages (`m_c`).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when no message is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Appends an announcement (Definition 2.3, step 4).
    pub fn push(&mut self, route: Route) {
        self.queue.push_back(route);
    }

    /// The `i`-th message (1-based, oldest first), if present.
    pub fn peek(&self, i: usize) -> Option<&Route> {
        if i == 0 {
            return None;
        }
        self.queue.get(i - 1)
    }

    /// Iterates oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.queue.iter()
    }

    /// Discards every message except the newest. Used by the explorer as an
    /// exact state abstraction for reliable all-messages models, where a
    /// read always consumes the whole queue and learns only the newest
    /// message.
    pub fn collapse_to_newest(&mut self) {
        if self.queue.len() > 1 {
            let newest = self.queue.pop_back().expect("nonempty");
            self.queue.clear();
            self.queue.push_back(newest);
        }
    }

    /// Processes the channel with count `take` and 1-based drop set `drops`:
    /// computes `i = min(f, m_c)` (all of `m_c` for [`Take::All`]), learns
    /// the last non-dropped message among the first `i`, and deletes the
    /// first `i` messages.
    ///
    /// The paper's step 2(b) literally says `max{f(c), m_c(t)}`, which would
    /// delete more messages than exist; every example in Appendix A behaves
    /// as `min`, which is what we implement.
    pub fn process<I>(&mut self, take: Take, drops: I) -> ProcessOutcome
    where
        I: IntoIterator<Item = u32>,
    {
        let m = self.queue.len();
        let i = match take {
            Take::All => m,
            Take::Count(k) => (k as usize).min(m),
        };
        let drop_set: Vec<usize> =
            drops.into_iter().map(|d| d as usize).filter(|&d| d >= 1 && d <= i).collect();
        let mut learned = None;
        for j in (1..=i).rev() {
            if !drop_set.contains(&j) {
                learned = Some(self.queue[j - 1].clone());
                break;
            }
        }
        self.queue.drain(..i);
        ProcessOutcome { consumed: i, dropped: drop_set.len(), learned }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use routelab_spp::Path;

    fn r(ids: &[u32]) -> Route {
        Route::from(Path::from_ids(ids.iter().copied()).unwrap())
    }

    #[test]
    fn fifo_order_and_peek() {
        let mut c = FifoChannel::new();
        assert!(c.is_empty());
        c.push(r(&[1, 0]));
        c.push(r(&[2, 0]));
        assert_eq!(c.len(), 2);
        assert_eq!(c.peek(1), Some(&r(&[1, 0])));
        assert_eq!(c.peek(2), Some(&r(&[2, 0])));
        assert_eq!(c.peek(0), None);
        assert_eq!(c.peek(3), None);
    }

    #[test]
    fn process_one_keeps_head() {
        let mut c = FifoChannel::new();
        c.push(r(&[1, 0]));
        c.push(r(&[2, 0]));
        let out = c.process(Take::Count(1), []);
        assert_eq!(out, ProcessOutcome { consumed: 1, dropped: 0, learned: Some(r(&[1, 0])) });
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn process_all_learns_newest() {
        let mut c = FifoChannel::new();
        c.push(r(&[1, 0]));
        c.push(r(&[2, 0]));
        c.push(Route::empty());
        let out = c.process(Take::All, []);
        // The last message (a withdrawal) is what gets learned.
        assert_eq!(out.learned, Some(Route::empty()));
        assert_eq!(out.consumed, 3);
        assert!(c.is_empty());
    }

    #[test]
    fn count_caps_at_queue_length() {
        let mut c = FifoChannel::new();
        c.push(r(&[1, 0]));
        let out = c.process(Take::Count(5), []);
        assert_eq!(out.consumed, 1);
        assert_eq!(out.learned, Some(r(&[1, 0])));
        // Empty channel: nothing processed, nothing learned.
        let out = c.process(Take::Count(1), []);
        assert_eq!(out, ProcessOutcome { consumed: 0, dropped: 0, learned: None });
    }

    #[test]
    fn drops_skip_messages() {
        let mut c = FifoChannel::new();
        c.push(r(&[1, 0]));
        c.push(r(&[2, 0]));
        c.push(r(&[3, 0]));
        // Process 3, dropping the newest: learn the 2nd.
        let out = c.process(Take::Count(3), [3]);
        assert_eq!(out.learned, Some(r(&[2, 0])));
        assert_eq!(out.dropped, 1);
        assert_eq!(out.consumed, 3);
    }

    #[test]
    fn dropping_everything_learns_nothing() {
        let mut c = FifoChannel::new();
        c.push(r(&[1, 0]));
        c.push(r(&[2, 0]));
        let out = c.process(Take::Count(2), [1, 2]);
        assert_eq!(out.learned, None);
        assert_eq!(out.dropped, 2);
        assert!(c.is_empty());
    }

    #[test]
    fn drop_indices_beyond_i_ignored() {
        let mut c = FifoChannel::new();
        c.push(r(&[1, 0]));
        // f = 1 with a drop index 2: index 2 exceeds i = 1, so it is inert.
        let out = c.process(Take::Count(1), [2]);
        assert_eq!(out.learned, Some(r(&[1, 0])));
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn process_zero_is_noop() {
        let mut c = FifoChannel::new();
        c.push(r(&[1, 0]));
        let out = c.process(Take::Count(0), []);
        assert_eq!(out, ProcessOutcome { consumed: 0, dropped: 0, learned: None });
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn iteration_is_oldest_first() {
        let mut c = FifoChannel::new();
        c.push(r(&[1, 0]));
        c.push(r(&[2, 0]));
        let all: Vec<&Route> = c.iter().collect();
        assert_eq!(all, vec![&r(&[1, 0]), &r(&[2, 0])]);
    }
}
