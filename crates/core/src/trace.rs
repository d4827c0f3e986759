//! Session trace rendering: turns a [`SessionMetrics`] chunk log into a
//! human-readable per-path activity timeline (an ASCII Gantt chart). Used
//! by the CLI (`msplayer run --timeline`) and handy when debugging scheduler
//! behaviour.

use crate::metrics::SessionMetrics;
use std::fmt::Write as _;

/// Renders an activity timeline of the session, one lane per path that
/// fetched a chunk.
///
/// `#` marks time where a chunk was in flight, `.` idle time, and `!` lane
/// time inside a stall episode (playback frozen).
pub fn render_timeline(metrics: &SessionMetrics, width: usize) -> String {
    let width = width.clamp(20, 400);
    let start = metrics.started_at;
    let end = metrics
        .ended_at
        .or_else(|| metrics.chunks.iter().map(|c| c.completed_at).max())
        .unwrap_or(start);
    let span = end.saturating_since(start).as_secs_f64().max(1e-9);
    let col_of = |t: msim_core::time::SimTime| -> usize {
        (((t.saturating_since(start).as_secs_f64()) / span) * (width - 1) as f64).round() as usize
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "session timeline: 0 .. {:.2}s  ({} chunks, {} stalls)",
        span,
        metrics.chunks.len(),
        metrics.stalls.len()
    );
    let lanes = metrics.chunks.iter().map(|c| c.path + 1).max().unwrap_or(0);
    for path in 0..lanes {
        let chunks: Vec<_> = metrics.chunks.iter().filter(|c| c.path == path).collect();
        if chunks.is_empty() {
            continue;
        }
        let mut lane = vec![b'.'; width];
        for c in &chunks {
            let a = col_of(c.requested_at);
            let b = col_of(c.completed_at).min(width - 1);
            for slot in lane.iter_mut().take(b + 1).skip(a) {
                *slot = b'#';
            }
        }
        let _ = writeln!(
            out,
            "path{path}  {}",
            String::from_utf8(lane).expect("ascii")
        );
    }
    // Stall lane.
    if !metrics.stalls.is_empty() {
        let mut lane = vec![b' '; width];
        for (s, e) in &metrics.stalls {
            let a = col_of(*s);
            let b = col_of(e.unwrap_or(end)).min(width - 1);
            for slot in lane.iter_mut().take(b + 1).skip(a) {
                *slot = b'!';
            }
        }
        let _ = writeln!(out, "stall  {}", String::from_utf8(lane).expect("ascii"));
    }
    // Marker line for prebuffer completion.
    if let Some(done) = metrics.prebuffer_done_at {
        let mut lane = vec![b' '; width];
        lane[col_of(done).min(width - 1)] = b'P';
        let _ = writeln!(
            out,
            "       {}  (P = pre-buffer target reached)",
            String::from_utf8(lane).expect("ascii")
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{ChunkRecord, TrafficPhase};
    use msim_core::time::SimTime;

    fn sample_metrics() -> SessionMetrics {
        let mut m = SessionMetrics {
            started_at: SimTime::ZERO,
            ended_at: Some(SimTime::from_secs(10)),
            ..SessionMetrics::default()
        };
        for (path, s, e) in [
            (0usize, 0.5, 2.0),
            (1, 1.0, 4.0),
            (0, 2.0, 5.0),
            (2, 3.0, 4.5),
            (4, 4.0, 6.0),
        ] {
            m.chunks.push(ChunkRecord {
                path,
                bytes: 1_000_000,
                requested_at: SimTime::from_secs_f64(s),
                first_byte_at: SimTime::from_secs_f64(s),
                completed_at: SimTime::from_secs_f64(e),
                phase: TrafficPhase::PreBuffering,
            });
        }
        m.prebuffer_done_at = Some(SimTime::from_secs(5));
        m.stalls
            .push((SimTime::from_secs(7), Some(SimTime::from_secs(8))));
        m
    }

    #[test]
    fn timeline_contains_every_used_lane_and_markers() {
        let s = render_timeline(&sample_metrics(), 60);
        assert!(s.contains("path0"));
        assert!(s.contains("path1"));
        assert!(s.contains("path2"), "lanes past the second are drawn");
        assert!(!s.contains("path3"), "a path without chunks has no lane");
        assert!(s.contains("path4"));
        assert!(s.contains('#'), "activity drawn");
        assert!(s.contains('!'), "stall drawn");
        assert!(s.contains('P'), "prebuffer marker drawn");
    }

    #[test]
    fn timeline_width_is_clamped() {
        let s = render_timeline(&sample_metrics(), 5);
        let lane = s.lines().find(|l| l.starts_with("path0")).unwrap();
        assert!(lane.len() <= 20 + 10, "clamped to minimum width: {lane}");
    }

    #[test]
    fn empty_session_renders() {
        let m = SessionMetrics::default();
        let s = render_timeline(&m, 60);
        assert!(s.contains("0 chunks"));
    }
}
