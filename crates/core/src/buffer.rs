//! The playout buffer and its ON/OFF download cycles.
//!
//! Paper §4: "MSPlayer leaves the pre-buffering phase when more than
//! 40-second video data is received. It then consumes the video data until
//! the playout buffer contains less than 10-second video. MSPlayer resumes
//! requesting chunks from both YouTube servers and refills the playout
//! buffer until 20 seconds of video data are retrieved." (the "periodic
//! downloading or ON/OFF cycles" of \[23\]).
//!
//! The buffer is a pure state machine over (time, playable bytes):
//! the driver feeds `on_playable(now, bytes)` when the contiguous prefix
//! grows and `advance_to(now)` for the passage of time; it reads
//! [`PlayoutBuffer::wants_download`] to gate chunk requests and
//! [`PlayoutBuffer::next_event_after`] to schedule wakeups.

use crate::config::{LOW_WATERMARK_SECS, STALL_RESUME_SECS};
use msim_core::time::{SimDuration, SimTime};

/// Playback / buffering phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BufferPhase {
    /// Accumulating the initial pre-buffer; playback has not started.
    PreBuffering,
    /// Playing with the downloader paused (buffer above low watermark).
    PlayingOff,
    /// Playing while refilling (ON period of an ON/OFF cycle).
    PlayingOn,
    /// Buffer ran dry during playback: playback halted, still downloading.
    Stalled,
    /// Playback consumed the entire video.
    Finished,
}

/// One completed refill cycle (ON period), for Fig. 5 style reporting.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefillRecord {
    /// When the ON period began (buffer crossed the low watermark).
    pub started_at: SimTime,
    /// When the target amount had been fetched.
    pub completed_at: SimTime,
    /// Bytes fetched during the cycle, in the buffer's byte space: for a
    /// session that switched rungs, video seconds × the starting rung's
    /// rate.
    pub bytes: u64,
}

impl RefillRecord {
    /// Duration of the refill.
    pub fn duration(&self) -> SimDuration {
        self.completed_at.saturating_since(self.started_at)
    }
}

/// The playout buffer state machine.
#[derive(Debug)]
pub struct PlayoutBuffer {
    /// Stream bytes per second of playback (from the video format).
    bytes_per_sec: f64,
    /// Total stream length in bytes (f64: a closed-loop ABR player reports
    /// its mixed-rung prefix as video seconds × the starting rung's rate,
    /// which is not integral).
    total_bytes: f64,
    /// Pre-buffer threshold in bytes.
    prebuffer_bytes: f64,
    /// Low watermark in bytes.
    low_bytes: f64,
    /// Refill amount per ON cycle in bytes.
    refill_bytes: f64,
    /// Stall-recovery threshold in bytes.
    stall_resume_bytes: f64,

    phase: BufferPhase,
    /// Playable (contiguous) bytes delivered so far.
    playable: f64,
    /// Bytes consumed by playback so far.
    consumed: f64,
    /// Clock of the last update.
    now: SimTime,
    /// Playable bytes at the start of the current ON cycle.
    on_cycle_start_playable: f64,
    on_cycle_start_time: SimTime,

    /// When the pre-buffer target was reached.
    prebuffer_done_at: Option<SimTime>,
    /// Completed refill cycles.
    refills: Vec<RefillRecord>,
    /// Stall episodes: (start, end).
    stalls: Vec<(SimTime, Option<SimTime>)>,
}

impl PlayoutBuffer {
    /// Creates a buffer for a stream of `total_bytes` at `bytes_per_sec`,
    /// with thresholds in seconds of video: the pre-buffer and refill
    /// amounts given, the low watermark [`LOW_WATERMARK_SECS`] and the
    /// stall-recovery level [`STALL_RESUME_SECS`].
    pub fn new(
        total_bytes: u64,
        bytes_per_sec: f64,
        prebuffer_secs: f64,
        refill_secs: f64,
    ) -> PlayoutBuffer {
        assert!(bytes_per_sec > 0.0, "bitrate must be positive");
        PlayoutBuffer {
            bytes_per_sec,
            total_bytes: total_bytes as f64,
            prebuffer_bytes: (prebuffer_secs * bytes_per_sec).min(total_bytes as f64),
            low_bytes: LOW_WATERMARK_SECS * bytes_per_sec,
            refill_bytes: refill_secs * bytes_per_sec,
            stall_resume_bytes: STALL_RESUME_SECS * bytes_per_sec,
            phase: BufferPhase::PreBuffering,
            playable: 0.0,
            consumed: 0.0,
            now: SimTime::ZERO,
            on_cycle_start_playable: 0.0,
            on_cycle_start_time: SimTime::ZERO,
            prebuffer_done_at: None,
            refills: Vec::new(),
            stalls: Vec::new(),
        }
    }

    /// Current phase.
    pub fn phase(&self) -> BufferPhase {
        self.phase
    }

    /// Seconds of video currently buffered ahead of the playhead.
    pub fn level_secs(&self) -> f64 {
        (self.playable - self.consumed).max(0.0) / self.bytes_per_sec
    }

    /// Whether the player should be requesting chunks right now.
    pub fn wants_download(&self) -> bool {
        matches!(
            self.phase,
            BufferPhase::PreBuffering | BufferPhase::PlayingOn | BufferPhase::Stalled
        ) && !self.all_fetched()
    }

    /// When the pre-buffer target was reached (the Figs. 2–4 download-time
    /// endpoint).
    pub fn prebuffer_done_at(&self) -> Option<SimTime> {
        self.prebuffer_done_at
    }

    /// Completed refill cycles (the Fig. 5 measurements).
    pub fn refills(&self) -> &[RefillRecord] {
        &self.refills
    }

    /// Stall episodes `(start, end)`; `end` is `None` while ongoing.
    pub fn stalls(&self) -> &[(SimTime, Option<SimTime>)] {
        &self.stalls
    }

    /// True when playback has consumed the whole stream.
    pub fn finished(&self) -> bool {
        self.phase == BufferPhase::Finished
    }

    /// Total stream length in the buffer's byte space.
    pub fn total_bytes(&self) -> f64 {
        self.total_bytes
    }

    /// True when the playable prefix reaches the end of the stream.
    pub(crate) fn all_fetched(&self) -> bool {
        self.playable >= self.total_bytes
    }

    /// Advances playback to `now`, draining the buffer and switching phases
    /// at watermark crossings — crossings inside the interval are handled
    /// piecewise, so arbitrarily large jumps in `now` are safe.
    pub fn advance_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.now, "time went backwards");
        let mut t = self.now;
        while t < now {
            match self.phase {
                BufferPhase::PreBuffering | BufferPhase::Stalled | BufferPhase::Finished => {
                    // No playback consumption.
                    t = now;
                }
                BufferPhase::PlayingOff => {
                    let dt = (now - t).as_secs_f64();
                    let level = self.playable - self.consumed;
                    let to_low = (level - self.low_bytes).max(0.0) / self.bytes_per_sec;
                    let to_end = (self.total_bytes - self.consumed) / self.bytes_per_sec;
                    if to_end <= to_low.min(dt) {
                        // Plays out to the very end before anything else.
                        self.consumed = self.total_bytes;
                        self.phase = BufferPhase::Finished;
                        t += SimDuration::from_secs_f64(to_end);
                    } else if dt < to_low {
                        self.consumed += dt * self.bytes_per_sec;
                        t = now;
                    } else {
                        // Crosses the low watermark: switch ON at the
                        // crossing instant and keep processing the rest.
                        self.consumed += to_low * self.bytes_per_sec;
                        t += SimDuration::from_secs_f64(to_low);
                        self.begin_on_cycle(t);
                    }
                }
                BufferPhase::PlayingOn => {
                    let dt = (now - t).as_secs_f64();
                    let ahead = (self.playable - self.consumed).max(0.0) / self.bytes_per_sec;
                    let to_end = (self.total_bytes - self.consumed) / self.bytes_per_sec;
                    if to_end <= ahead.min(dt) {
                        self.consumed = self.total_bytes;
                        self.phase = BufferPhase::Finished;
                        t += SimDuration::from_secs_f64(to_end);
                    } else if dt < ahead {
                        self.consumed += dt * self.bytes_per_sec;
                        t = now;
                    } else {
                        // Buffer runs dry mid-cycle: stall at the moment of
                        // exhaustion.
                        self.consumed = self.playable;
                        t += SimDuration::from_secs_f64(ahead);
                        self.phase = BufferPhase::Stalled;
                        self.stalls.push((t, None));
                    }
                }
            }
        }
        self.now = now;
    }

    fn begin_on_cycle(&mut self, at: SimTime) {
        self.phase = BufferPhase::PlayingOn;
        self.on_cycle_start_playable = self.playable;
        self.on_cycle_start_time = at;
    }

    /// Reports growth of the playable prefix to `playable_bytes` at `now`.
    ///
    /// # Panics
    /// If the prefix is smaller than the last one reported.
    pub fn on_playable(&mut self, now: SimTime, playable_bytes: f64) {
        self.advance_to(now);
        assert!(playable_bytes >= self.playable, "playable prefix shrank");
        self.playable = playable_bytes;
        match self.phase {
            BufferPhase::PreBuffering => {
                if self.playable >= self.prebuffer_bytes {
                    self.prebuffer_done_at = Some(now);
                    self.phase = if (self.playable - self.consumed) < self.low_bytes {
                        // Tiny videos: prebuffer target above low watermark.
                        self.begin_on_cycle(now);
                        BufferPhase::PlayingOn
                    } else {
                        BufferPhase::PlayingOff
                    };
                }
            }
            BufferPhase::PlayingOn => {
                let fetched = self.playable - self.on_cycle_start_playable;
                if fetched >= self.refill_bytes || self.all_fetched() {
                    self.refills.push(RefillRecord {
                        started_at: self.on_cycle_start_time,
                        completed_at: now,
                        bytes: fetched.max(0.0) as u64,
                    });
                    self.phase = BufferPhase::PlayingOff;
                }
            }
            BufferPhase::Stalled => {
                if (self.playable - self.consumed) >= self.stall_resume_bytes || self.all_fetched()
                {
                    if let Some(last) = self.stalls.last_mut() {
                        last.1 = Some(now);
                    }
                    // Resume inside an ON cycle (still below refill target).
                    self.phase = BufferPhase::PlayingOn;
                }
            }
            BufferPhase::PlayingOff | BufferPhase::Finished => {}
        }
    }

    /// The next instant after `now` at which the buffer will change phase on
    /// its own (watermark crossing, stall, or end of video), given no new
    /// data arrives. `None` when no self-transition is pending.
    pub fn next_event_after(&self, now: SimTime) -> Option<SimTime> {
        match self.phase {
            BufferPhase::PreBuffering | BufferPhase::Stalled | BufferPhase::Finished => None,
            BufferPhase::PlayingOff => {
                let ahead = self.playable - self.consumed;
                let to_low = (ahead - self.low_bytes).max(0.0) / self.bytes_per_sec;
                let to_end = (self.total_bytes - self.consumed) / self.bytes_per_sec;
                Some(now + SimDuration::from_secs_f64(to_low.min(to_end).max(1e-6)))
            }
            BufferPhase::PlayingOn => {
                // Could stall if nothing arrives.
                let ahead = (self.playable - self.consumed).max(0.0) / self.bytes_per_sec;
                let to_end = (self.total_bytes - self.consumed) / self.bytes_per_sec;
                Some(now + SimDuration::from_secs_f64(ahead.min(to_end).max(1e-6)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 Mbit/s video → 125 000 bytes/s; the paper's thresholds (40 s
    /// pre-buffer, 20 s refill, 10 s low watermark, 5 s stall resume).
    fn buffer() -> PlayoutBuffer {
        PlayoutBuffer::new(
            125_000 * 600, // 10 minutes
            125_000.0,
            40.0, // prebuffer
            20.0, // refill
        )
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn prebuffering_until_target() {
        let mut b = buffer();
        assert_eq!(b.phase(), BufferPhase::PreBuffering);
        assert!(b.wants_download());
        b.on_playable(secs(2.0), 125_000.0 * 20.0); // 20 s of video
        assert_eq!(b.phase(), BufferPhase::PreBuffering, "below 40 s target");
        b.on_playable(secs(4.0), 125_000.0 * 40.0); // 40 s reached
        assert_eq!(b.phase(), BufferPhase::PlayingOff);
        assert_eq!(b.prebuffer_done_at(), Some(secs(4.0)));
        assert!(!b.wants_download(), "OFF period after pre-buffer");
    }

    #[test]
    fn drains_to_low_watermark_then_turns_on() {
        let mut b = buffer();
        b.on_playable(secs(4.0), 125_000.0 * 40.0);
        // 40 s buffered at t=4; drains to 10 s after 30 s of playback.
        let event = b.next_event_after(secs(4.0)).unwrap();
        assert!((event.as_secs_f64() - 34.0).abs() < 1e-3, "{event}");
        b.advance_to(event);
        assert_eq!(b.phase(), BufferPhase::PlayingOn);
        assert!(b.wants_download());
        assert!((b.level_secs() - 10.0).abs() < 0.01);
    }

    #[test]
    fn refill_cycle_completes_after_fetching_target() {
        let mut b = buffer();
        b.on_playable(secs(4.0), 125_000.0 * 40.0);
        b.advance_to(secs(34.0)); // at low watermark, ON begins
        assert_eq!(b.phase(), BufferPhase::PlayingOn);
        // Fetch 20 s of video over 5 s of wall time.
        b.on_playable(secs(36.0), 125_000.0 * 50.0);
        assert_eq!(b.phase(), BufferPhase::PlayingOn, "10 s fetched of 20");
        b.on_playable(secs(39.0), 125_000.0 * 60.0);
        assert_eq!(b.phase(), BufferPhase::PlayingOff, "refill target reached");
        let refills = b.refills();
        assert_eq!(refills.len(), 1);
        assert!((refills[0].duration().as_secs_f64() - 5.0).abs() < 0.01);
        assert_eq!(refills[0].bytes, 125_000 * 20);
    }

    #[test]
    fn stalls_when_buffer_empties_and_recovers() {
        let mut b = buffer();
        b.on_playable(secs(4.0), 125_000.0 * 40.0);
        // No more data: drains 40 s, stalls at t = 44.
        b.advance_to(secs(60.0));
        assert_eq!(b.phase(), BufferPhase::Stalled);
        assert_eq!(b.stalls().len(), 1);
        assert!(b.stalls()[0].1.is_none(), "ongoing");
        assert!(b.wants_download());
        // 5 s of video arrives → resume.
        b.on_playable(secs(62.0), 125_000.0 * 45.0);
        assert_eq!(b.phase(), BufferPhase::PlayingOn);
        let (start, end) = b.stalls()[0];
        assert!((start.as_secs_f64() - 44.0).abs() < 0.01);
        assert_eq!(end, Some(secs(62.0)));
    }

    #[test]
    fn finishes_at_end_of_video() {
        let total_secs = 60.0;
        let mut b = PlayoutBuffer::new((125_000.0 * total_secs) as u64, 125_000.0, 10.0, 10.0);
        // Entire video delivered during pre-buffering... target is 10 s.
        b.on_playable(secs(1.0), 125_000.0 * total_secs);
        assert_eq!(b.phase(), BufferPhase::PlayingOff);
        assert!(!b.wants_download(), "everything fetched");
        b.advance_to(secs(1.0 + total_secs + 0.5));
        assert!(b.finished());
        assert_eq!(b.stalls().len(), 0);
    }

    #[test]
    fn short_video_prebuffer_clamps_to_length() {
        // 20 s video with a 40 s prebuffer target: clamp to total.
        let mut b = PlayoutBuffer::new(125_000 * 20, 125_000.0, 40.0, 20.0);
        b.on_playable(secs(2.0), 125_000.0 * 20.0);
        assert!(
            b.prebuffer_done_at().is_some(),
            "target clamped to video size"
        );
    }

    #[test]
    fn level_and_wants_download_track_phases() {
        let mut b = buffer();
        assert_eq!(b.level_secs(), 0.0);
        b.on_playable(secs(1.0), 125_000.0 * 15.0);
        assert!((b.level_secs() - 15.0).abs() < 1e-9);
        assert!(b.wants_download(), "still pre-buffering");
        b.on_playable(secs(4.0), 125_000.0 * 40.0);
        // Play 10 s: level 30 s, OFF.
        b.advance_to(secs(14.0));
        assert!((b.level_secs() - 30.0).abs() < 0.01);
        assert!(!b.wants_download());
    }

    #[test]
    fn multiple_cycles_accumulate() {
        let mut b = buffer();
        b.on_playable(secs(4.0), 125_000.0 * 40.0);
        let mut playable = 125_000.0 * 40.0;
        let mut t = 4.0;
        for _ in 0..3 {
            // Drain to low watermark.
            let ev = b.next_event_after(secs(t)).unwrap();
            t = ev.as_secs_f64();
            b.advance_to(secs(t));
            assert_eq!(b.phase(), BufferPhase::PlayingOn);
            // Refill 20 s of video in 4 s of wall time.
            playable += 125_000.0 * 20.0;
            t += 4.0;
            b.on_playable(secs(t), playable);
            assert_eq!(b.phase(), BufferPhase::PlayingOff);
        }
        assert_eq!(b.refills().len(), 3);
    }

    #[test]
    fn next_event_in_on_phase_is_potential_stall() {
        let mut b = buffer();
        b.on_playable(secs(4.0), 125_000.0 * 40.0);
        b.advance_to(secs(34.0)); // ON at 10 s level
        let ev = b.next_event_after(secs(34.0)).unwrap();
        assert!(
            (ev.as_secs_f64() - 44.0).abs() < 0.01,
            "stall if nothing arrives"
        );
    }
}
