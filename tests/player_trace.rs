//! What the player's observer writes for a scripted event sequence, in
//! the order it writes it. The trace sink and the registry are
//! process-global, so this file holds exactly one test.

use msplayer::core::config::{AbrLadderConfig, PlayerConfig};
use msplayer::core::player::{ChunkFailReason, Player, PlayerEvent};
use msplayer::simcore::telemetry::{self, TraceVal};
use msplayer::simcore::time::SimTime;

/// itag 22's 2.5 Mb/s, the shadow ladder's starting rung.
const RATE: f64 = 312_500.0;

/// A 5xx arrives at the instant an ABR decision falls due: the decision
/// the event's pump makes is traced before the failover the event asked
/// for. A link outage counts as a chunk error and traces `link_down` 1.
#[test]
fn failover_is_traced_after_the_decision_its_event_pumped() {
    telemetry::reset();
    telemetry::set_enabled(true);
    telemetry::set_trace_enabled(true);
    let cfg = PlayerConfig::msplayer().with_abr_ladder(AbrLadderConfig::default());
    let mut p = Player::new(cfg, 2, RATE as u64 * 600, RATE, SimTime::ZERO);
    let at = SimTime::from_millis;
    let paths = vec![0, 1];
    p.handle(at(100), PlayerEvent::PathsReady { paths });
    let reason = ChunkFailReason::ServerError;
    p.handle(at(250), PlayerEvent::ChunkFailed { path: 0, reason });
    p.handle(at(300), PlayerEvent::PathDown { path: 1 });
    p.handle(at(400), PlayerEvent::PathRestored { path: 0 });
    telemetry::set_trace_enabled(false);
    telemetry::set_enabled(false);

    let trace = telemetry::take_trace();
    let kinds: Vec<(u64, &str)> = trace.iter().map(|ev| (ev.t_us, ev.kind.as_str())).collect();
    assert_eq!(
        kinds,
        [
            (250_000, "chunk.error"),
            (250_000, "abr.decision"),
            (250_000, "path.failover"),
            (300_000, "chunk.error"),
            (400_000, "path.recover"),
        ]
    );
    let field = |k: &str, v: u64| (k.to_string(), TraceVal::U64(v));
    let reason = |r: &str| ("reason".to_string(), TraceVal::Str(r.to_string()));
    let error = |path, why, link_down| {
        [
            field("path", path),
            reason(why),
            field("link_down", link_down),
        ]
    };
    assert_eq!(trace[0].fields, error(0, "ServerError", 0));
    assert_eq!(trace[2].fields, [field("path", 0)]);
    assert_eq!(trace[3].fields, error(1, "Timeout", 1));
    assert_eq!(telemetry::counter("msp_chunk_errors_total").get(), 2);
    assert_eq!(telemetry::counter("msp_failovers_total").get(), 1);
}
