//! The typed event taxonomy every lane records.

/// What a recorded event describes. Durational kinds carry a
/// `[t0, t1]` window; instant kinds carry only `t0` (`t1 == t0`).
///
/// The `a`/`b` payload words are kind-specific (see each variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u64)]
pub enum EventKind {
    /// One `run_epoch` on one rank. `a` = epoch index on that rank,
    /// `b` = the request span id threaded through the epoch tuning
    /// (0 when the epoch belongs to no tracked request).
    Epoch = 1,
    /// The epoch-boundary fence (barrier + pool reset).
    Fence = 2,
    /// One (possibly blocking) claim round-trip against the pool.
    /// `a` = programs claimed.
    Claim = 3,
    /// One patch-program `compute` call. `a` = patch id, `b` = task
    /// tag.
    Compute = 4,
    /// Serialising one outgoing frame. `a` = destination rank,
    /// `b` = payload bytes.
    Pack = 5,
    /// Routing one worker report through the route table. `a` =
    /// streams routed.
    Route = 6,
    /// Compiling a coarse replay plan. `a` = mesh generation.
    PlanCompile = 7,
    /// Instant: one frame handed to the transport. `a` = destination
    /// rank, `b` = payload bytes.
    Send = 8,
    /// Instant: one frame received from the transport. `a` = source
    /// rank, `b` = payload bytes.
    Recv = 9,
    /// Instant: a fault was observed (contained panic, stall, rank
    /// death). `a` = kind-specific word (e.g. blamed rank or patch).
    Fault = 10,
    /// Instant: a plan-cache lookup hit. `a` = mesh generation.
    CacheHit = 11,
    /// Instant: a plan-cache lookup missed. `a` = mesh generation.
    CacheMiss = 12,
}

/// Every kind, in taxonomy order.
pub const EVENT_KINDS: [EventKind; 12] = [
    EventKind::Epoch,
    EventKind::Fence,
    EventKind::Claim,
    EventKind::Compute,
    EventKind::Pack,
    EventKind::Route,
    EventKind::PlanCompile,
    EventKind::Send,
    EventKind::Recv,
    EventKind::Fault,
    EventKind::CacheHit,
    EventKind::CacheMiss,
];

impl EventKind {
    /// Display / trace-event name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Epoch => "epoch",
            EventKind::Fence => "fence",
            EventKind::Claim => "claim",
            EventKind::Compute => "compute",
            EventKind::Pack => "pack",
            EventKind::Route => "route",
            EventKind::PlanCompile => "plan-compile",
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Fault => "fault",
            EventKind::CacheHit => "cache-hit",
            EventKind::CacheMiss => "cache-miss",
        }
    }

    /// True for point-in-time kinds (no duration).
    pub fn is_instant(self) -> bool {
        matches!(
            self,
            EventKind::Send
                | EventKind::Recv
                | EventKind::Fault
                | EventKind::CacheHit
                | EventKind::CacheMiss
        )
    }

    /// Decode a ring-slot word back into a kind (`None` for a word no
    /// kind maps to — e.g. a never-written slot).
    pub fn from_u64(v: u64) -> Option<EventKind> {
        EVENT_KINDS.into_iter().find(|k| *k as u64 == v)
    }
}

/// One recorded event. Timestamps are nanoseconds on the owning
/// [`super::Telemetry`]'s monotonic clock (shared origin across every
/// lane of the process, so cross-thread ordering is meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Start (or occurrence, for instants), nanoseconds.
    pub t0: u64,
    /// End, nanoseconds (`== t0` for instants).
    pub t1: u64,
    /// First kind-specific payload word (see [`EventKind`]).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_through_u64() {
        for k in EVENT_KINDS {
            assert_eq!(EventKind::from_u64(k as u64), Some(k));
        }
        assert_eq!(EventKind::from_u64(0), None);
        assert_eq!(EventKind::from_u64(999), None);
    }

    #[test]
    fn kind_names_unique() {
        let mut names: Vec<&str> = EVENT_KINDS.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EVENT_KINDS.len());
    }
}
