//! Dependence tags and the scheduler-side tag scoreboard.

use std::collections::VecDeque;

/// A renamed dependence tag.
///
/// "When a load or store instruction enters the memory dependence predictor
/// ... \[it\] obtains a dependence tag from the LFPT's free list ... The
/// scheduler tracks the availability of dependence tags in much the same
/// manner as it tracks the availability of physical registers" (§2.1).
///
/// Tags are numbered monotonically; the scoreboard treats sufficiently old
/// tags as ready, modeling the finite hardware free list without ever
/// deadlocking the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DepTag(pub u64);

/// Readiness tracking for in-flight dependence tags.
///
/// * A tag is allocated by a dispatching *producer* ([`TagScoreboard::alloc`]).
/// * Consumers poll [`TagScoreboard::is_ready`]; a not-ready tag keeps the
///   consumer out of the issue pool.
/// * The producer marks the tag ready when it completes
///   ([`TagScoreboard::mark_ready`]). A squashed producer also marks its tag
///   ready so surviving consumers can never deadlock on it.
///
/// The scoreboard is a dense window of tags, from the oldest tag it still
/// tracks to the newest allocated. Marking a tag ready drops the window's
/// ready prefix, so memory stays bounded by the tags allocated since the
/// oldest pending one. Tags older than the window (their producers long
/// done) and tags never allocated read as ready.
///
/// Each pending tag carries a payload of type `L`, default-initialised at
/// [`alloc`](TagScoreboard::alloc) and handed back by
/// [`mark_ready`](TagScoreboard::mark_ready): an event-driven scheduler
/// hangs the tag's consumer list there.
///
/// # Examples
///
/// ```
/// use aim_predictor::TagScoreboard;
///
/// let mut sb = TagScoreboard::new();
/// let t = sb.alloc();
/// assert!(!sb.is_ready(t));
/// sb.mark_ready(t);
/// assert!(sb.is_ready(t));
/// assert_eq!(sb.tracked(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TagScoreboard<L = ()> {
    /// The tag number of `window[0]`.
    base: u64,
    /// Tags `base..base + window.len()`: `None` once ready, else the
    /// pending tag's payload.
    window: VecDeque<Option<L>>,
}

impl TagScoreboard {
    /// Creates an empty scoreboard without per-tag payloads.
    pub fn new() -> TagScoreboard {
        TagScoreboard::default()
    }
}

impl<L> Default for TagScoreboard<L> {
    fn default() -> TagScoreboard<L> {
        TagScoreboard {
            base: 0,
            window: VecDeque::new(),
        }
    }
}

impl<L: Default> TagScoreboard<L> {
    /// Allocates a fresh, not-ready tag.
    pub fn alloc(&mut self) -> DepTag {
        let tag = DepTag(self.base + self.window.len() as u64);
        self.window.push_back(Some(L::default()));
        tag
    }

    fn slot(&self, tag: DepTag) -> Option<&Option<L>> {
        tag.0
            .checked_sub(self.base)
            .and_then(|i| self.window.get(i as usize))
    }

    /// Whether `tag`'s producer has completed (or the tag is older than the
    /// window, or was never allocated).
    pub fn is_ready(&self, tag: DepTag) -> bool {
        !matches!(self.slot(tag), Some(Some(_)))
    }

    /// The payload of a pending `tag`; `None` if it reads ready.
    pub fn payload_mut(&mut self, tag: DepTag) -> Option<&mut L> {
        let i = tag.0.checked_sub(self.base)?;
        self.window.get_mut(i as usize)?.as_mut()
    }

    /// Marks `tag` ready (producer completed or was squashed) and returns
    /// its payload, or `None` if it already read ready.
    pub fn mark_ready(&mut self, tag: DepTag) -> Option<L> {
        let i = tag.0.checked_sub(self.base)?;
        let payload = self.window.get_mut(i as usize)?.take();
        while matches!(self.window.front(), Some(None)) {
            self.window.pop_front();
            self.base += 1;
        }
        payload
    }

    /// Number of tags in the window: from the oldest pending tag to the
    /// newest allocated one (0 when none is pending).
    pub fn tracked(&self) -> usize {
        self.window.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_monotonic() {
        let mut sb = TagScoreboard::new();
        let a = sb.alloc();
        let b = sb.alloc();
        assert!(a < b);
    }

    #[test]
    fn fresh_tags_not_ready_until_marked() {
        let mut sb = TagScoreboard::new();
        let t = sb.alloc();
        assert!(!sb.is_ready(t));
        assert_eq!(sb.mark_ready(t), Some(()));
        assert!(sb.is_ready(t));
        assert_eq!(sb.mark_ready(t), None, "a second mark finds nothing");
    }

    #[test]
    fn unknown_tags_read_ready() {
        let mut sb = TagScoreboard::new();
        assert!(sb.is_ready(DepTag(999)));
        let t = sb.alloc();
        assert!(sb.is_ready(DepTag(t.0 + 1)), "not yet allocated");
    }

    #[test]
    fn ready_prefix_is_dropped_and_payloads_come_back() {
        let mut sb: TagScoreboard<u32> = TagScoreboard::default();
        let a = sb.alloc();
        let b = sb.alloc();
        let c = sb.alloc();
        *sb.payload_mut(b).unwrap() = 7;
        // Out of order: b's slot stays in the window behind pending a.
        assert_eq!(sb.mark_ready(b), Some(7));
        assert_eq!(sb.tracked(), 3);
        assert!(sb.payload_mut(b).is_none());
        assert_eq!(sb.mark_ready(a), Some(0));
        assert_eq!(sb.tracked(), 1, "a and b dropped, c pending");
        assert!(sb.is_ready(a) && sb.is_ready(b) && !sb.is_ready(c));
        sb.mark_ready(c);
        assert_eq!(sb.tracked(), 0);
        assert!(sb.is_ready(c));
    }
}
