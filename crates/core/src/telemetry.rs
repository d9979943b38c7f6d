//! Runtime telemetry integration: the seam between the engine and
//! [`obs`].
//!
//! Telemetry is always compiled in; recording is switched at run time.
//! A detached [`TelemetryHandle`] (the default) records nowhere, and
//! an attached one gates every hook on the arming atomic of its
//! [`obs::Telemetry`]: attached-but-unarmed costs one relaxed atomic
//! load per hook.
//!
//! The engine threads one [`TelemetryHandle`] through
//! `RuntimeConfig`; every rank's master and workers obtain per-thread
//! [`Recorder`] lanes from it at launch, and epoch boundaries feed the
//! metrics registry. See `docs/observability.md` for the event
//! taxonomy and exporter formats.

use crate::stats::RunStats;
use std::sync::Arc;

pub mod obs;

pub use obs::EventKind;

/// A shareable reference to the process-wide telemetry (or to nothing:
/// the default handle is detached and records nowhere). Cloning is
/// cheap; every clone reaches the same `Telemetry`.
#[derive(Clone, Default)]
pub struct TelemetryHandle {
    inner: Option<Arc<obs::Telemetry>>,
}

impl std::fmt::Debug for TelemetryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = if self.inner.is_some() {
            "attached"
        } else {
            "detached"
        };
        write!(f, "TelemetryHandle({state})")
    }
}

impl TelemetryHandle {
    /// Wrap a telemetry instance into a handle the runtime config can
    /// carry.
    pub fn attach(telemetry: Arc<obs::Telemetry>) -> TelemetryHandle {
        TelemetryHandle {
            inner: Some(telemetry),
        }
    }

    /// The attached telemetry, if any.
    pub fn telemetry(&self) -> Option<&Arc<obs::Telemetry>> {
        self.inner.as_ref()
    }

    /// Whether recording is attached *and* armed right now.
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed_telemetry().is_some()
    }

    /// The attached telemetry while it is armed (`None` while detached
    /// or disarmed): the gate of every cold-path metrics hook.
    pub fn armed_telemetry(&self) -> Option<&Arc<obs::Telemetry>> {
        self.inner.as_ref().filter(|t| t.is_armed())
    }

    /// Register a recording lane for one thread (`lane` 0 = master,
    /// `w + 1` = worker `w`) and hand out its single-writer recorder.
    pub fn recorder(&self, rank: u32, lane: u32) -> Recorder {
        Recorder {
            inner: self.inner.as_ref().map(|t| t.recorder(rank, lane)),
        }
    }

    /// A start-of-span stamp on the shared driver lane's clock (0
    /// while detached/disarmed).
    pub fn global_now(&self) -> u64 {
        self.armed_telemetry().map_or(0, |t| t.now_nanos())
    }

    /// Record a durational event on the shared driver lane (for
    /// threads that own no rank lane, e.g. a session driver compiling
    /// a plan).
    pub fn global_span(&self, kind: EventKind, t0: u64, a: u64, b: u64) {
        if let Some(t) = self.inner.as_ref() {
            t.global_span(kind, t0, a, b);
        }
    }

    /// Record an instant event on the shared driver lane.
    pub fn global_instant(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(t) = self.inner.as_ref() {
            t.global_instant(kind, a, b);
        }
    }

    /// Feed one epoch's per-rank stats into the metrics registry
    /// (epoch-boundary cold path; no-op while detached or disarmed).
    /// `wire` is the transport's own `(bytes sent, bytes received,
    /// frames received)` accounting, which includes wire framing where
    /// the backend has any.
    pub fn epoch_metrics(&self, rank: usize, stats: &RunStats, wire: (u64, u64, u64)) {
        let Some(t) = self.armed_telemetry() else {
            return;
        };
        let m = t.metrics();
        m.describe("jsweep_epochs_total", "Epochs run, per rank.");
        m.describe(
            "jsweep_epoch_wall_seconds",
            "Wall time of one epoch on one rank.",
        );
        m.describe(
            "jsweep_compute_calls_total",
            "Patch-program compute invocations.",
        );
        m.describe(
            "jsweep_work_done_total",
            "Workload units completed (vertices for sweeps).",
        );
        m.describe("jsweep_streams_sent_total", "Streams sent to other ranks.");
        m.describe(
            "jsweep_streams_received_total",
            "Streams received from other ranks.",
        );
        m.describe(
            "jsweep_frames_sent_total",
            "Coalesced multi-stream frames sent to other ranks.",
        );
        m.describe(
            "jsweep_frames_received_total",
            "Frames received from other ranks.",
        );
        m.describe(
            "jsweep_bytes_sent_total",
            "Stream payload bytes sent to other ranks.",
        );
        m.describe(
            "jsweep_wire_bytes_sent",
            "Transport-level bytes pushed into the fabric (framing included).",
        );
        m.describe(
            "jsweep_wire_bytes_received",
            "Transport-level bytes received from the fabric.",
        );
        m.describe(
            "jsweep_wire_frames_received",
            "Transport-level frames received from the fabric.",
        );
        let lab = format!("{{rank=\"{rank}\"}}");
        m.counter(&format!("jsweep_epochs_total{lab}")).inc();
        m.histogram(
            &format!("jsweep_epoch_wall_seconds{lab}"),
            obs::SECONDS_BUCKETS,
        )
        .observe(stats.wall_seconds);
        m.counter(&format!("jsweep_compute_calls_total{lab}"))
            .add(stats.compute_calls);
        m.counter(&format!("jsweep_work_done_total{lab}"))
            .add(stats.work_done);
        m.counter(&format!("jsweep_streams_sent_total{lab}"))
            .add(stats.streams_sent);
        m.counter(&format!("jsweep_streams_received_total{lab}"))
            .add(stats.streams_received);
        m.counter(&format!("jsweep_frames_sent_total{lab}"))
            .add(stats.frames_sent);
        m.counter(&format!("jsweep_frames_received_total{lab}"))
            .add(stats.frames_received);
        m.counter(&format!("jsweep_bytes_sent_total{lab}"))
            .add(stats.bytes_sent);
        m.gauge(&format!("jsweep_wire_bytes_sent{lab}"))
            .set(wire.0 as f64);
        m.gauge(&format!("jsweep_wire_bytes_received{lab}"))
            .set(wire.1 as f64);
        m.gauge(&format!("jsweep_wire_frames_received{lab}"))
            .set(wire.2 as f64);
    }

    /// Observe one outgoing frame's payload size into the frame-bytes
    /// histogram (no-op while detached or disarmed).
    pub fn observe_frame_bytes(&self, rank: usize, bytes: usize) {
        let Some(t) = self.armed_telemetry() else {
            return;
        };
        let m = t.metrics();
        m.describe(
            "jsweep_frame_bytes",
            "Payload size of one coalesced outgoing frame.",
        );
        m.histogram(
            &format!("jsweep_frame_bytes{{rank=\"{rank}\"}}"),
            obs::BYTES_BUCKETS,
        )
        .observe(bytes as f64);
    }
}

/// One thread's event writer (see [`obs::Recorder`]); a detached one
/// records nowhere.
pub struct Recorder {
    inner: Option<obs::Recorder>,
}

impl Recorder {
    /// Whether recording is live right now (one relaxed load).
    #[inline]
    pub fn armed(&self) -> bool {
        self.inner.as_ref().is_some_and(|r| r.armed())
    }

    /// A start-of-span stamp (0 while detached/disarmed; the matching
    /// [`Recorder::span`] then drops the event).
    #[inline]
    pub fn now(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.now())
    }

    /// Record a durational event `[t0, now]` on this lane.
    #[inline]
    pub fn span(&self, kind: EventKind, t0: u64, a: u64, b: u64) {
        if let Some(r) = self.inner.as_ref() {
            r.span(kind, t0, a, b);
        }
    }

    /// Record an instant event on this lane.
    #[inline]
    pub fn instant(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(r) = self.inner.as_ref() {
            r.instant(kind, a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_handle_is_inert() {
        let h = TelemetryHandle::default();
        assert!(!h.armed());
        assert_eq!(h.global_now(), 0);
        let rec = h.recorder(0, 0);
        assert!(!rec.armed());
        assert_eq!(rec.now(), 0);
        // All no-ops, must not panic.
        rec.span(EventKind::Compute, 0, 0, 0);
        rec.instant(EventKind::Send, 0, 0);
        h.global_instant(EventKind::Fault, 0, 0);
        h.global_span(EventKind::PlanCompile, 0, 0, 0);
        h.observe_frame_bytes(0, 100);
        let stats = crate::stats::RunStats::default();
        h.epoch_metrics(0, &stats, (0, 0, 0));
    }

    #[test]
    fn attached_handle_records_when_armed() {
        let t = Arc::new(obs::Telemetry::new());
        let h = TelemetryHandle::attach(t.clone());
        assert!(!h.armed(), "not armed yet");
        t.arm();
        assert!(h.armed());
        let rec = h.recorder(3, 1);
        let t0 = rec.now();
        assert!(t0 > 0);
        rec.span(EventKind::Compute, t0, 9, 0);
        h.global_instant(EventKind::CacheHit, 1, 0);
        let lanes = t.snapshot();
        assert!(lanes
            .iter()
            .any(|l| l.rank == 3 && l.lane == 1 && l.events.len() == 1));
        assert!(lanes
            .iter()
            .any(|l| l.rank == obs::GLOBAL_RANK && !l.events.is_empty()));
    }

    #[test]
    fn epoch_metrics_feed_the_registry() {
        let t = Arc::new(obs::Telemetry::new());
        let h = TelemetryHandle::attach(t.clone());
        t.arm();
        let stats = crate::stats::RunStats {
            wall_seconds: 0.25,
            compute_calls: 7,
            frames_sent: 3,
            bytes_sent: 1000,
            ..Default::default()
        };
        h.epoch_metrics(2, &stats, (1100, 900, 4));
        h.observe_frame_bytes(2, 512);
        let text = t.metrics().render_prometheus();
        assert!(text.contains("jsweep_epochs_total{rank=\"2\"} 1"), "{text}");
        assert!(
            text.contains("jsweep_compute_calls_total{rank=\"2\"} 7"),
            "{text}"
        );
        assert!(
            text.contains("jsweep_wire_bytes_sent{rank=\"2\"} 1100"),
            "{text}"
        );
        assert!(
            text.contains("jsweep_frame_bytes_count{rank=\"2\"} 1"),
            "{text}"
        );
    }
}
