//! Deterministic chaos plans and the invariant oracle.
//!
//! The paper's premise (§2) is that multi-source streaming survives what
//! single-source streaming cannot. This module turns that claim into a
//! testable surface: a [`ChaosPlan`] is a composable list of seed-deterministic
//! fault injectors that layer onto any session spec without touching the
//! workload definition, and [`check_invariants`] is the oracle that every
//! chaotic session must still satisfy ([`check_fleet_invariants`] is its
//! population-scale counterpart for [`crate::fleet`] runs).
//!
//! Injector families (all windows are absolute sim time):
//!
//! * **Clock skew** — the player's clock runs ahead of (or behind) the
//!   servers'; admission checks see the skewed instant, so tokens appear to
//!   expire early or grants look pre-dated.
//! * **Token expiry mid-stream** — the CDN-side token store invalidates the
//!   session token at a cut instant; the first range request at or after the
//!   cut on each path is refused 403 (the re-request after failover models a
//!   control-plane token refresh).
//! * **Partial / asymmetric outage** — one *direction* of one path dies:
//!   `up` loses the request (server never sees it, client times out after an
//!   RTO), `down` loses the response (bytes burn on the wire, client times
//!   out when the transfer would have completed).
//! * **DNS flap with stale answers** — while flapping, failover re-resolution
//!   returns the *old* record: no replica rotation, one extra RTT of retry
//!   latency.
//! * **MPTCP option strip** — a middlebox profile from
//!   [`msim_net::middlebox`] starts stripping unknown TCP options at an
//!   instant; the in-flight connection on that path resets once and
//!   re-establishes as plain TCP (RFC 6824 fallback).
//! * **Replica overload** — the server behind a path answers 503 inside the
//!   window, as if its session capacity were exhausted.
//! * **Fleet overload** — the *whole fleet's* service capacity is divided by
//!   a factor inside the window (a regional surge or a cache-fill storm);
//!   path-independent, consumed by the fleet simulation
//!   ([`crate::fleet`]) and a no-op for plain single-session specs.
//!
//! Plans have a canonical string grammar (`parse` / `Display` round-trip
//! exactly) so a failing `(seed, plan, workload)` triple is a one-line JSON
//! corpus case, reproducible from the CLI.

use crate::fleet::{FleetMetrics, FleetMode, FleetSpec};
use crate::metrics::{SessionMetrics, TrafficPhase};
use crate::sim::STREAM_ITAG;
use msim_core::rng::Prng;
use msim_core::time::{SimDuration, SimTime};
use msim_net::middlebox::{negotiate_mptcp, Middlebox, MptcpNegotiation};
use msim_youtube::by_itag;
use std::fmt;

/// Salt folded into the session seed when resolving a plan, so chaos
/// randomness never aliases the session's own streams.
const CHAOS_SEED_SALT: u64 = 0xc4a0_5a17_0000_0001;

/// Which direction of a path an asymmetric outage kills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OutageDirection {
    /// Requests are lost client→server; the server never sees them.
    Up,
    /// Responses are lost server→client; the transfer burns wire time.
    Down,
}

impl fmt::Display for OutageDirection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OutageDirection::Up => write!(f, "up"),
            OutageDirection::Down => write!(f, "down"),
        }
    }
}

/// One composable fault injector.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosInjector {
    /// Player clock skew relative to the servers.
    ClockSkew {
        /// True: player clock runs ahead (admission sees a later time).
        ahead: bool,
        /// Skew magnitude.
        by: SimDuration,
    },
    /// Token invalidated at `at`: first request at/after it per path → 403.
    TokenExpiry {
        /// Cut instant (absolute sim time).
        at: SimTime,
    },
    /// One direction of one path is dead inside `[from, until)`.
    PartialOutage {
        /// Affected path index.
        path: usize,
        /// Which direction dies.
        direction: OutageDirection,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// DNS flap: failovers inside `[from, until)` get stale answers.
    DnsFlap {
        /// Affected path index.
        path: usize,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Middlebox starts stripping MPTCP options on `path` at `at`.
    MptcpStrip {
        /// Affected path index.
        path: usize,
        /// Instant the middlebox behaviour changes.
        at: SimTime,
        /// Worst case: SYNs with unknown options are dropped outright.
        syn_drop: bool,
    },
    /// The replica behind `path` answers 503 inside `[from, until)`.
    Overload {
        /// Affected path index.
        path: usize,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
    },
    /// Every server in the fleet loses capacity inside `[from, until)`:
    /// service rates are divided by `factor`. Only the fleet simulation
    /// reacts to this injector; plain sessions ignore it.
    FleetOverload {
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        until: SimTime,
        /// Capacity divisor (≥ 2) while the window is open.
        factor: u32,
    },
}

/// A composable, seed-deterministic fault plan.
///
/// The plan itself is pure data; [`ChaosPlan::resolve`] turns it into a
/// per-session [`ChaosState`] using the session seed, applying the optional
/// per-seed window `jitter` so a seed sweep explores neighbouring timings.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChaosPlan {
    /// The injectors, applied independently.
    pub injectors: Vec<ChaosInjector>,
    /// Per-seed uniform shift in `[0, jitter)` added to every window edge.
    pub jitter: SimDuration,
}

/// A plan string that did not parse, with the offending clause.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosParseError {
    /// The clause that failed.
    pub clause: String,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad chaos clause {:?}: {}", self.clause, self.reason)
    }
}

impl std::error::Error for ChaosParseError {}

fn fmt_duration(d: SimDuration, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    let us = d.as_micros();
    if us.is_multiple_of(1_000_000) {
        write!(f, "{}s", us / 1_000_000)
    } else if us.is_multiple_of(1_000) {
        write!(f, "{}ms", us / 1_000)
    } else {
        write!(f, "{us}us")
    }
}

struct Dur(SimDuration);
impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_duration(self.0, f)
    }
}

struct At(SimTime);
impl fmt::Display for At {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_duration(SimDuration::from_micros(self.0.as_micros()), f)
    }
}

fn parse_duration(s: &str) -> Result<SimDuration, String> {
    let (digits, mult) = if let Some(n) = s.strip_suffix("us") {
        (n, 1u64)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1_000)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1_000_000)
    } else {
        (s, 1_000_000) // bare numbers are seconds
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("expected an integer duration like 5s/250ms/10us, got {s:?}"))?;
    n.checked_mul(mult)
        .map(SimDuration::from_micros)
        .ok_or_else(|| format!("duration {s:?} overflows"))
}

fn parse_instant(s: &str) -> Result<SimTime, String> {
    parse_duration(s).map(|d| SimTime::ZERO + d)
}

/// Splits `key=value` pairs plus bare flags out of a clause argument list.
fn parse_kv(args: &str) -> Vec<(&str, Option<&str>)> {
    args.split(',')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => (k.trim(), Some(v.trim())),
            None => (p.trim(), None),
        })
        .collect()
}

struct ClauseArgs<'a> {
    clause: &'a str,
    pairs: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> ClauseArgs<'a> {
    fn err(&self, reason: impl Into<String>) -> ChaosParseError {
        ChaosParseError {
            clause: self.clause.to_string(),
            reason: reason.into(),
        }
    }

    fn get(&self, key: &str) -> Result<&'a str, ChaosParseError> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| *v)
            .ok_or_else(|| self.err(format!("missing {key}=...")))
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, v)| *k == key && v.is_none())
    }

    fn path(&self) -> Result<usize, ChaosParseError> {
        self.get("path")?
            .parse()
            .map_err(|_| self.err("path must be an integer"))
    }

    fn window(&self) -> Result<(SimTime, SimTime), ChaosParseError> {
        let from = parse_instant(self.get("from")?).map_err(|e| self.err(e))?;
        let until = parse_instant(self.get("until")?).map_err(|e| self.err(e))?;
        if from >= until {
            return Err(self.err(format!(
                "empty window from={} until={}",
                At(from),
                At(until)
            )));
        }
        Ok((from, until))
    }
}

impl ChaosPlan {
    /// An empty plan (no injectors, no jitter).
    pub fn none() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Parses the plan grammar: `;`-separated clauses, e.g.
    /// `skew:+250ms;outage:path=0,dir=up,from=2s,until=6s;jitter:500ms`.
    pub fn parse(s: &str) -> Result<ChaosPlan, ChaosParseError> {
        let mut plan = ChaosPlan::none();
        for clause in s.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let bad = |reason: &str| ChaosParseError {
                clause: clause.to_string(),
                reason: reason.to_string(),
            };
            let (name, rest) = clause
                .split_once(':')
                .ok_or_else(|| bad("expected name:args"))?;
            let args = ClauseArgs {
                clause,
                pairs: parse_kv(rest),
            };
            match name.trim() {
                "skew" => {
                    let rest = rest.trim();
                    let (ahead, mag) = match rest.as_bytes().first() {
                        Some(b'+') => (true, &rest[1..]),
                        Some(b'-') => (false, &rest[1..]),
                        _ => (true, rest),
                    };
                    let by = parse_duration(mag).map_err(|e| args.err(e))?;
                    plan.injectors.push(ChaosInjector::ClockSkew { ahead, by });
                }
                "token-expiry" => {
                    let at = parse_instant(rest.trim()).map_err(|e| args.err(e))?;
                    plan.injectors.push(ChaosInjector::TokenExpiry { at });
                }
                "outage" => {
                    let direction = match args.get("dir")? {
                        "up" => OutageDirection::Up,
                        "down" => OutageDirection::Down,
                        other => {
                            return Err(args.err(format!("dir must be up|down, got {other:?}")))
                        }
                    };
                    let (from, until) = args.window()?;
                    plan.injectors.push(ChaosInjector::PartialOutage {
                        path: args.path()?,
                        direction,
                        from,
                        until,
                    });
                }
                "dns-flap" => {
                    let (from, until) = args.window()?;
                    plan.injectors.push(ChaosInjector::DnsFlap {
                        path: args.path()?,
                        from,
                        until,
                    });
                }
                "mptcp-strip" => {
                    let at = parse_instant(args.get("at")?).map_err(|e| args.err(e))?;
                    plan.injectors.push(ChaosInjector::MptcpStrip {
                        path: args.path()?,
                        at,
                        syn_drop: args.flag("syn-drop"),
                    });
                }
                "overload" => {
                    let (from, until) = args.window()?;
                    plan.injectors.push(ChaosInjector::Overload {
                        path: args.path()?,
                        from,
                        until,
                    });
                }
                "fleet-overload" => {
                    let (from, until) = args.window()?;
                    let factor: u32 = args
                        .get("factor")?
                        .parse()
                        .map_err(|_| args.err("factor must be an integer"))?;
                    if factor < 2 {
                        return Err(args.err("factor must be >= 2 (1 is a no-op)"));
                    }
                    plan.injectors.push(ChaosInjector::FleetOverload {
                        from,
                        until,
                        factor,
                    });
                }
                "jitter" => {
                    plan.jitter = parse_duration(rest.trim()).map_err(|e| args.err(e))?;
                }
                other => return Err(bad(&format!("unknown injector {other:?}"))),
            }
        }
        Ok(plan)
    }

    /// The builtin plan presets the explorer sweeps by default.
    pub fn preset_names() -> &'static [&'static str] {
        &[
            "clock-skew",
            "token-cut",
            "outage-up",
            "outage-down",
            "dns-flap",
            "mptcp-strip",
            "overload",
            "capacity-crunch",
            "kitchen-sink",
        ]
    }

    /// Looks up a named preset; falls back to parsing `name` as a raw plan.
    pub fn preset(name: &str) -> Result<ChaosPlan, ChaosParseError> {
        let spec = match name {
            "clock-skew" => "skew:+250ms",
            "token-cut" => "token-expiry:6s",
            "outage-up" => "outage:path=0,dir=up,from=2s,until=6s;jitter:2s",
            "outage-down" => "outage:path=0,dir=down,from=2s,until=6s;jitter:2s",
            "dns-flap" => "dns-flap:path=0,from=1s,until=40s",
            "mptcp-strip" => "mptcp-strip:path=0,at=2s;jitter:3s",
            "overload" => "overload:path=0,from=1s,until=10s;jitter:2s",
            "capacity-crunch" => "fleet-overload:from=5s,until=25s,factor=8;jitter:2s",
            "kitchen-sink" => {
                "skew:-150ms;token-expiry:8s;outage:path=0,dir=down,from=3s,until=5s;\
                 mptcp-strip:path=0,at=6s;overload:path=0,from=10s,until=14s;jitter:1s"
            }
            raw => raw,
        };
        ChaosPlan::parse(spec)
    }

    /// Checks path indexes against the session's path count.
    pub fn validate(&self, n_paths: usize) -> Result<(), String> {
        for inj in &self.injectors {
            let path = match *inj {
                ChaosInjector::PartialOutage { path, .. }
                | ChaosInjector::DnsFlap { path, .. }
                | ChaosInjector::MptcpStrip { path, .. }
                | ChaosInjector::Overload { path, .. } => path,
                ChaosInjector::ClockSkew { .. }
                | ChaosInjector::TokenExpiry { .. }
                | ChaosInjector::FleetOverload { .. } => continue,
            };
            if path >= n_paths {
                return Err(format!(
                    "injector targets path {path} but the session has {n_paths} path(s)"
                ));
            }
        }
        Ok(())
    }

    /// Resolves the plan for one session: folds the session seed and the
    /// plan's `jitter` into concrete window edges. Same `(plan, seed)` →
    /// same [`ChaosState`], always.
    pub fn resolve(&self, seed: u64, n_paths: usize) -> ChaosState {
        let mut rng = Prng::new(seed ^ CHAOS_SEED_SALT);
        let shift = |rng: &mut Prng| {
            if self.jitter.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_micros(rng.below(self.jitter.as_micros().max(1)))
            }
        };
        let mut state = ChaosState {
            skew_ahead: true,
            skew: SimDuration::ZERO,
            token_cut: None,
            token_cut_done: vec![false; n_paths],
            outages: Vec::new(),
            dns_flaps: Vec::new(),
            strips: Vec::new(),
            overloads: Vec::new(),
            fleet_overloads: Vec::new(),
        };
        for inj in &self.injectors {
            match *inj {
                ChaosInjector::ClockSkew { ahead, by } => {
                    state.skew_ahead = ahead;
                    state.skew = by;
                }
                ChaosInjector::TokenExpiry { at } => {
                    state.token_cut = Some(at + shift(&mut rng));
                }
                ChaosInjector::PartialOutage {
                    path,
                    direction,
                    from,
                    until,
                } => {
                    let d = shift(&mut rng);
                    state.outages.push(DirectedWindow {
                        path,
                        direction,
                        from: from + d,
                        until: until + d,
                    });
                }
                ChaosInjector::DnsFlap { path, from, until } => {
                    let d = shift(&mut rng);
                    state.dns_flaps.push(PathWindow {
                        path,
                        from: from + d,
                        until: until + d,
                    });
                }
                ChaosInjector::MptcpStrip { path, at, syn_drop } => {
                    let mb = if syn_drop {
                        Middlebox::syn_dropper()
                    } else {
                        Middlebox::option_stripper()
                    };
                    // RFC 6824 fallback cost: silent fallback re-handshakes
                    // once; a dropped SYN costs an extra retry round-trip.
                    let penalty_rtts = match negotiate_mptcp(&[mb]) {
                        MptcpNegotiation::MultipathOk => 1,
                        MptcpNegotiation::FellBackToSinglePath => 2,
                        MptcpNegotiation::ConnectBlockedThenFallback => 3,
                    };
                    state.strips.push(StripState {
                        path,
                        at: at + shift(&mut rng),
                        penalty_rtts,
                        consumed: false,
                    });
                }
                ChaosInjector::Overload { path, from, until } => {
                    let d = shift(&mut rng);
                    state.overloads.push(PathWindow {
                        path,
                        from: from + d,
                        until: until + d,
                    });
                }
                ChaosInjector::FleetOverload {
                    from,
                    until,
                    factor,
                } => {
                    let d = shift(&mut rng);
                    state.fleet_overloads.push((from + d, until + d, factor));
                }
            }
        }
        state
    }
}

impl fmt::Display for ChaosPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, ";")?;
            }
            first = false;
            Ok(())
        };
        for inj in &self.injectors {
            sep(f)?;
            match inj {
                ChaosInjector::ClockSkew { ahead, by } => {
                    write!(f, "skew:{}{}", if *ahead { "+" } else { "-" }, Dur(*by))?
                }
                ChaosInjector::TokenExpiry { at } => write!(f, "token-expiry:{}", At(*at))?,
                ChaosInjector::PartialOutage {
                    path,
                    direction,
                    from,
                    until,
                } => write!(
                    f,
                    "outage:path={path},dir={direction},from={},until={}",
                    At(*from),
                    At(*until)
                )?,
                ChaosInjector::DnsFlap { path, from, until } => write!(
                    f,
                    "dns-flap:path={path},from={},until={}",
                    At(*from),
                    At(*until)
                )?,
                ChaosInjector::MptcpStrip { path, at, syn_drop } => {
                    write!(f, "mptcp-strip:path={path},at={}", At(*at))?;
                    if *syn_drop {
                        write!(f, ",syn-drop")?;
                    }
                }
                ChaosInjector::Overload { path, from, until } => write!(
                    f,
                    "overload:path={path},from={},until={}",
                    At(*from),
                    At(*until)
                )?,
                ChaosInjector::FleetOverload {
                    from,
                    until,
                    factor,
                } => write!(
                    f,
                    "fleet-overload:from={},until={},factor={factor}",
                    At(*from),
                    At(*until)
                )?,
            }
        }
        if !self.jitter.is_zero() {
            sep(f)?;
            write!(f, "jitter:{}", Dur(self.jitter))?;
        }
        Ok(())
    }
}

/// A `[from, until)` window bound to one path.
#[derive(Clone, Copy, Debug)]
struct PathWindow {
    path: usize,
    from: SimTime,
    until: SimTime,
}

impl PathWindow {
    fn covers(&self, path: usize, t: SimTime) -> bool {
        self.path == path && self.from <= t && t < self.until
    }
}

/// A directed outage window.
#[derive(Clone, Copy, Debug)]
struct DirectedWindow {
    path: usize,
    direction: OutageDirection,
    from: SimTime,
    until: SimTime,
}

/// A one-shot connection reset armed at `at`.
#[derive(Clone, Copy, Debug)]
struct StripState {
    path: usize,
    at: SimTime,
    penalty_rtts: u64,
    consumed: bool,
}

/// A plan resolved against one session seed: concrete window edges plus the
/// mutable one-shot bookkeeping the session driver consumes.
#[derive(Clone, Debug)]
pub struct ChaosState {
    skew_ahead: bool,
    skew: SimDuration,
    token_cut: Option<SimTime>,
    token_cut_done: Vec<bool>,
    outages: Vec<DirectedWindow>,
    dns_flaps: Vec<PathWindow>,
    strips: Vec<StripState>,
    overloads: Vec<PathWindow>,
    fleet_overloads: Vec<(SimTime, SimTime, u32)>,
}

impl ChaosState {
    /// The instant the *servers* believe it is when the player acts at `now`.
    pub fn skewed(&self, now: SimTime) -> SimTime {
        if self.skew_ahead {
            now + self.skew
        } else {
            SimTime::from_micros(now.as_micros().saturating_sub(self.skew.as_micros()))
        }
    }

    /// True exactly once per path: the first request at/after the token cut.
    pub fn token_cut_fires(&mut self, path: usize, now: SimTime) -> bool {
        match self.token_cut {
            Some(cut) if now >= cut && path < self.token_cut_done.len() => {
                !std::mem::replace(&mut self.token_cut_done[path], true)
            }
            _ => false,
        }
    }

    /// The reset penalty (in RTTs) if a middlebox strip fires on `path` at
    /// `now`; consumes the one-shot.
    pub fn take_strip(&mut self, path: usize, now: SimTime) -> Option<u64> {
        for s in &mut self.strips {
            if s.path == path && !s.consumed && now >= s.at {
                s.consumed = true;
                return Some(s.penalty_rtts);
            }
        }
        None
    }

    /// Is the client→server direction of `path` dead at `now`?
    pub fn request_lost(&self, path: usize, now: SimTime) -> bool {
        self.outages.iter().any(|w| {
            w.direction == OutageDirection::Up && w.path == path && w.from <= now && now < w.until
        })
    }

    /// Is the server→client direction of `path` dead at `now`?
    pub fn response_lost(&self, path: usize, now: SimTime) -> bool {
        self.outages.iter().any(|w| {
            w.direction == OutageDirection::Down && w.path == path && w.from <= now && now < w.until
        })
    }

    /// Is DNS for `path`'s service domain flapping at `now`?
    pub fn dns_flapping(&self, path: usize, now: SimTime) -> bool {
        self.dns_flaps.iter().any(|w| w.covers(path, now))
    }

    /// Overload windows per path, for installation on the backing replicas.
    pub fn overload_windows(&self) -> impl Iterator<Item = (usize, SimTime, SimTime)> + '_ {
        self.overloads.iter().map(|w| (w.path, w.from, w.until))
    }

    /// Fleet-wide capacity-crunch windows as `(from, until, factor)`:
    /// service rates are divided by `factor` inside each window. Consumed
    /// by [`crate::fleet`]; plain sessions ignore them.
    pub fn fleet_capacity_windows(&self) -> impl Iterator<Item = (SimTime, SimTime, u32)> + '_ {
        self.fleet_overloads.iter().copied()
    }

    /// The capacity divisor in force at `now` (1 outside every window; the
    /// max factor wins when windows overlap).
    pub fn fleet_capacity_factor(&self, now: SimTime) -> u32 {
        self.fleet_overloads
            .iter()
            .filter(|(from, until, _)| *from <= now && now < *until)
            .map(|&(_, _, k)| k)
            .max()
            .unwrap_or(1)
    }
}

/// One violated invariant.
#[derive(Clone, Debug, PartialEq)]
pub struct Violation {
    /// Stable invariant name (corpus key).
    pub invariant: &'static str,
    /// Human-readable evidence.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.invariant, self.detail)
    }
}

/// Checks the session invariants that must hold no matter what faults were
/// injected: the session terminated, timestamps (a chunk's first byte too)
/// are ordered, no chunk's first byte precedes its path's first byte,
/// the chunk ledger conserves bytes, and every derived metric is finite
/// and non-negative. Returns all violations found (empty = healthy).
pub fn check_invariants(m: &SessionMetrics) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut fail = |invariant: &'static str, detail: String| {
        out.push(Violation { invariant, detail });
    };
    let n_paths = m.num_paths();

    match m.ended_at {
        None => fail("terminates", "session has no ended_at".into()),
        Some(end) if end < m.started_at => fail(
            "terminates",
            format!("ended_at {end} before started_at {}", m.started_at),
        ),
        Some(_) => {}
    }
    for (p, path) in m.paths.iter().enumerate() {
        if let Some(t) = path.first_byte_at {
            if t < m.started_at {
                fail(
                    "time-order",
                    format!("path {p} first byte {t} before session start"),
                );
            }
        }
    }
    if let Some(t) = m.prebuffer_done_at {
        if t < m.started_at {
            fail(
                "time-order",
                format!("prebuffer done {t} before session start"),
            );
        }
    }

    let mut chunk_bytes: u64 = 0;
    for (i, c) in m.chunks.iter().enumerate() {
        if c.bytes == 0 {
            fail("chunk-bytes", format!("chunk {i} carried 0 bytes"));
        }
        chunk_bytes = chunk_bytes.saturating_add(c.bytes);
        if c.completed_at < c.requested_at {
            fail(
                "time-order",
                format!(
                    "chunk {i} completed {} before requested {}",
                    c.completed_at, c.requested_at
                ),
            );
        }
        if !(c.requested_at..=c.completed_at).contains(&c.first_byte_at) {
            let detail = format!("chunk {i} first byte {} out of order", c.first_byte_at);
            fail("first-byte-order", detail);
        }
        let goodput = c.goodput_bps();
        if !goodput.is_finite() || goodput < 0.0 {
            fail("finite-metrics", format!("chunk {i} goodput {goodput} bps"));
        }
        if c.path >= n_paths {
            fail(
                "vector-shape",
                format!("chunk {i} on path {} of {n_paths}", c.path),
            );
        } else {
            // The path's first byte is set on its first completion, and a
            // path carries one chunk at a time: none of its chunks saw its
            // first byte earlier.
            let first = m.paths[c.path].first_byte_at;
            if first.is_none_or(|t| t > c.first_byte_at) {
                let detail = format!(
                    "chunk {i} first byte {}, path {}'s {first:?}",
                    c.first_byte_at, c.path
                );
                fail("path-first-byte", detail);
            }
        }
    }

    // Ledger conservation: the per-(path, phase) accounting must partition
    // the chunk bytes exactly.
    let ledger: u64 = (0..n_paths)
        .flat_map(|p| {
            [TrafficPhase::PreBuffering, TrafficPhase::ReBuffering]
                .into_iter()
                .map(move |ph| (p, ph))
        })
        .map(|(p, ph)| m.bytes_on(p, ph))
        .fold(0u64, |acc, b| acc.saturating_add(b));
    if ledger != chunk_bytes {
        fail(
            "bytes-conserved",
            format!("chunk ledger {chunk_bytes} B vs per-path/phase sum {ledger} B"),
        );
    }

    for (i, r) in m.refills.iter().enumerate() {
        if r.bytes == 0 {
            fail("refill-bytes", format!("refill {i} carried 0 bytes"));
        }
        if r.completed_at < r.started_at {
            fail(
                "time-order",
                format!(
                    "refill {i} completed {} before started {}",
                    r.completed_at, r.started_at
                ),
            );
        }
    }
    for (i, (start, end)) in m.stalls.iter().enumerate() {
        if let Some(end) = end {
            if end < start {
                fail(
                    "time-order",
                    format!("stall {i} ended {end} before it began {start}"),
                );
            }
        }
    }
    for phase in [TrafficPhase::PreBuffering, TrafficPhase::ReBuffering] {
        let total: u64 = (0..n_paths).map(|p| m.bytes_on(p, phase)).sum();
        if total == 0 {
            continue;
        }
        let sum: f64 = (0..n_paths)
            .filter_map(|p| m.traffic_fraction(p, phase))
            .sum();
        if (sum - 1.0).abs() > 1e-9 {
            fail(
                "fractions-sum",
                format!("{phase:?} traffic fractions sum to {sum}"),
            );
        }
    }
    if let Some(q) = m.abr.as_ref().and_then(|a| a.qoe.as_ref()) {
        for (name, v) in [
            ("time_weighted_bitrate_bps", q.time_weighted_bitrate_bps),
            ("switch_magnitude_bps", q.switch_magnitude_bps),
            ("switch_rebuffer_secs", q.switch_rebuffer.as_secs_f64()),
        ] {
            if !v.is_finite() || v < 0.0 {
                fail("finite-metrics", format!("abr.qoe.{name} = {v}"));
            }
        }
    }
    out
}

/// Checks the population invariants a fleet run must satisfy whatever its
/// policy, load or chaos plan: every session is accounted for, the load
/// bins and per-replica rows add up to the totals, no replica served more
/// than its rate allows or held more sessions than its admission ceiling,
/// and (fluid mode) every completed session's video was actually served.
/// The rate checks skip replicas without a `service_rate`. Returns all
/// violations found (empty = healthy).
pub fn check_fleet_invariants(spec: &FleetSpec, m: &FleetMetrics) -> Vec<Violation> {
    // Slack for `f64` sums compared with their exact bounds.
    const EPS: f64 = 1e-9;
    let mut out = Vec::new();
    let mut fail = |invariant: &'static str, detail: String| {
        out.push(Violation { invariant, detail });
    };

    if m.completed + m.rejected != m.sessions {
        fail(
            "sessions-accounted",
            format!(
                "{} completed + {} rejected of {} sessions",
                m.completed, m.rejected, m.sessions
            ),
        );
    }
    if m.peak_concurrent > m.sessions.saturating_sub(m.rejected) {
        fail(
            "sessions-accounted",
            format!(
                "peak concurrency {} with {} sessions admitted",
                m.peak_concurrent,
                m.sessions.saturating_sub(m.rejected)
            ),
        );
    }
    let bins = &m.rebuffer_vs_load;
    for (name, binned, total) in [
        (
            "sessions",
            bins.iter().map(|b| b.sessions).sum::<u64>(),
            m.sessions,
        ),
        (
            "rejected",
            bins.iter().map(|b| b.rejected).sum(),
            m.rejected,
        ),
        (
            "stalled",
            bins.iter().map(|b| b.stalled).sum(),
            m.stalled_sessions,
        ),
    ] {
        if binned != total {
            fail(
                "load-bins-sum",
                format!("load bins hold {binned} {name}, the run {total}"),
            );
        }
    }

    let served_sum: u64 = m.servers.iter().map(|s| s.served_bytes).sum();
    if served_sum != m.total_served_bytes {
        fail(
            "replica-sums",
            format!(
                "replicas served {served_sum} B, total_served_bytes {}",
                m.total_served_bytes
            ),
        );
    }
    let cost_sum: f64 = m.servers.iter().map(|s| s.cost).sum();
    if cost_sum != m.total_cost {
        fail(
            "replica-sums",
            format!(
                "replica costs sum to {cost_sum}, total_cost {}",
                m.total_cost
            ),
        );
    }

    // Exact mode describes replica `r` of every network by one entry.
    let per_network = match &spec.exact_base {
        Some((service, _)) => (service.service.servers_per_network as usize).max(1),
        _ => usize::MAX,
    };
    let ended_secs = m.ended_at.as_secs_f64();
    for u in &m.servers {
        if u.capacity_bps > 0.0 {
            if let Some(bad) = u
                .utilization
                .iter()
                .find(|x| !(0.0..=1.0 + EPS).contains(*x))
            {
                fail(
                    "utilization-range",
                    format!("replica {} has a utilisation bucket at {bad}", u.server),
                );
            }
            let deliverable = u.capacity_bps / 8.0 * ended_secs;
            if u.served_bytes as f64 > deliverable * (1.0 + EPS) {
                fail(
                    "replica-rate",
                    format!(
                        "replica {} served {} B, its rate delivers {deliverable:.0} B by {}",
                        u.server, u.served_bytes, m.ended_at
                    ),
                );
            }
        }
        let ceiling = spec
            .servers
            .get(u.server % per_network)
            .and_then(|s| s.session_capacity);
        if let Some(c) = ceiling.filter(|&c| u.peak_sessions > u64::from(c)) {
            fail(
                "admission-ceiling",
                format!(
                    "replica {} peaked at {} sessions over a ceiling of {c}",
                    u.server, u.peak_sessions
                ),
            );
        }
    }

    if spec.mode() == FleetMode::Fluid {
        let video_bytes = by_itag(STREAM_ITAG).map_or(0.0, |f| f.bytes_per_sec()) * spec.video_secs;
        let floor = m.completed as f64 * video_bytes;
        // Each replica's byte count is truncated to a whole byte.
        let served = (m.total_served_bytes + m.servers.len() as u64) as f64;
        if served * (1.0 + EPS) < floor {
            fail(
                "bytes-served-floor",
                format!(
                    "{} B served, {} completed sessions of {video_bytes:.0} B each",
                    m.total_served_bytes, m.completed
                ),
            );
        }
    }

    if m.startup_p50_secs > m.startup_p95_secs {
        fail(
            "startup-percentiles",
            format!(
                "startup p50 {} s above p95 {} s",
                m.startup_p50_secs, m.startup_p95_secs
            ),
        );
    }
    if m.total_stall_secs > 0.0 && m.stalled_sessions == 0 {
        fail(
            "stall-accounting",
            format!("{} stall seconds, no stalled session", m.total_stall_secs),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::ChunkRecord;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn grammar_roundtrips_exactly() {
        let specs = [
            "skew:+250ms",
            "skew:-3s",
            "token-expiry:6s",
            "outage:path=0,dir=up,from=2s,until=6s",
            "outage:path=1,dir=down,from=1500ms,until=2500ms",
            "dns-flap:path=0,from=1s,until=40s",
            "mptcp-strip:path=0,at=2s",
            "mptcp-strip:path=1,at=750ms,syn-drop",
            "overload:path=1,from=1s,until=10s",
            "fleet-overload:from=5s,until=25s,factor=8",
            "skew:+150ms;token-expiry:8s;overload:path=0,from=10s,until=14s;jitter:1s",
        ];
        for spec in specs {
            let plan = ChaosPlan::parse(spec).unwrap();
            assert_eq!(plan.to_string(), spec, "display is canonical for {spec:?}");
            assert_eq!(
                ChaosPlan::parse(&plan.to_string()).unwrap(),
                plan,
                "reparse is lossless for {spec:?}"
            );
        }
    }

    #[test]
    fn grammar_rejects_garbage() {
        for bad in [
            "warp:9",
            "outage:path=0,dir=sideways,from=1s,until=2s",
            "outage:path=0,dir=up,from=2s,until=2s",
            "outage:dir=up,from=1s,until=2s",
            "skew:fast",
            "token-expiry:",
            "mptcp-strip:path=x,at=1s",
            "fleet-overload:from=1s,until=2s,factor=1",
            "fleet-overload:from=1s,until=2s",
        ] {
            assert!(ChaosPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn presets_all_parse_and_validate_single_path() {
        for name in ChaosPlan::preset_names() {
            let plan = ChaosPlan::preset(name).unwrap();
            plan.validate(1)
                .unwrap_or_else(|e| panic!("preset {name} invalid for 1 path: {e}"));
            assert!(!plan.injectors.is_empty(), "preset {name} is empty");
        }
    }

    #[test]
    fn validate_rejects_out_of_range_paths() {
        let plan = ChaosPlan::parse("overload:path=3,from=1s,until=2s").unwrap();
        assert!(plan.validate(2).is_err());
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn resolve_is_seed_deterministic_and_jitter_bounded() {
        let plan = ChaosPlan::parse("outage:path=0,dir=up,from=5s,until=9s;jitter:2s").unwrap();
        let a = plan.resolve(7, 2);
        let b = plan.resolve(7, 2);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "same seed, same state");
        let c = plan.resolve(8, 2);
        // Jittered edges stay inside [from, from + jitter).
        let w = a.outages[0];
        assert!(w.from >= secs(5) && w.from < secs(7));
        assert_eq!(
            w.until - secs(0),
            w.from - secs(0) + SimDuration::from_secs(4)
        );
        let _ = c;
    }

    #[test]
    fn skew_applies_in_both_directions() {
        let ahead = ChaosPlan::parse("skew:+2s").unwrap().resolve(1, 1);
        assert_eq!(ahead.skewed(secs(10)), secs(12));
        let behind = ChaosPlan::parse("skew:-2s").unwrap().resolve(1, 1);
        assert_eq!(behind.skewed(secs(10)), secs(8));
        assert_eq!(behind.skewed(secs(1)), SimTime::ZERO, "saturates at zero");
    }

    #[test]
    fn token_cut_fires_once_per_path() {
        let mut s = ChaosPlan::parse("token-expiry:5s").unwrap().resolve(1, 2);
        assert!(!s.token_cut_fires(0, secs(4)), "before the cut");
        assert!(s.token_cut_fires(0, secs(6)));
        assert!(!s.token_cut_fires(0, secs(7)), "one-shot per path");
        assert!(s.token_cut_fires(1, secs(6)), "independent per path");
    }

    #[test]
    fn strip_is_one_shot_and_costlier_for_syn_drop() {
        let mut soft = ChaosPlan::parse("mptcp-strip:path=0,at=2s")
            .unwrap()
            .resolve(1, 1);
        assert_eq!(soft.take_strip(0, secs(1)), None);
        assert_eq!(soft.take_strip(0, secs(3)), Some(2));
        assert_eq!(soft.take_strip(0, secs(4)), None);
        let mut hard = ChaosPlan::parse("mptcp-strip:path=0,at=2s,syn-drop")
            .unwrap()
            .resolve(1, 1);
        assert_eq!(hard.take_strip(0, secs(3)), Some(3));
    }

    #[test]
    fn directed_outages_are_asymmetric() {
        let s = ChaosPlan::parse("outage:path=1,dir=up,from=5s,until=9s")
            .unwrap()
            .resolve(1, 2);
        assert!(s.request_lost(1, secs(6)));
        assert!(!s.response_lost(1, secs(6)), "only the up direction dies");
        assert!(!s.request_lost(0, secs(6)), "only path 1");
        assert!(!s.request_lost(1, secs(9)), "window is half-open");
    }

    #[test]
    fn fleet_overload_windows_resolve_and_scale() {
        let s = ChaosPlan::parse("fleet-overload:from=5s,until=25s,factor=8")
            .unwrap()
            .resolve(3, 1);
        assert_eq!(s.fleet_capacity_factor(secs(4)), 1, "before the window");
        assert_eq!(s.fleet_capacity_factor(secs(10)), 8, "inside the window");
        assert_eq!(s.fleet_capacity_factor(secs(25)), 1, "half-open window");
        let windows: Vec<_> = s.fleet_capacity_windows().collect();
        assert_eq!(windows, vec![(secs(5), secs(25), 8)]);
        // Path-independent: validates even for a single-path session.
        ChaosPlan::preset("capacity-crunch")
            .unwrap()
            .validate(1)
            .unwrap();
    }

    #[test]
    fn oracle_accepts_a_clean_session() {
        let mut m = SessionMetrics::for_paths(1, SimTime::ZERO);
        m.ended_at = Some(secs(10));
        assert!(check_invariants(&m).is_empty());
    }

    #[test]
    fn oracle_flags_missing_termination_and_bad_chunks() {
        let mut m = SessionMetrics::for_paths(1, secs(1));
        m.chunks.push(ChunkRecord {
            path: 3,
            bytes: 0,
            requested_at: secs(5),
            // 0 bytes over 0 s: a NaN goodput.
            first_byte_at: secs(4),
            completed_at: secs(4),
            phase: TrafficPhase::PreBuffering,
        });
        let violations = check_invariants(&m);
        let names: Vec<&str> = violations.iter().map(|v| v.invariant).collect();
        for expect in [
            "terminates",
            "chunk-bytes",
            "time-order",
            "first-byte-order",
            "finite-metrics",
            "vector-shape",
        ] {
            assert!(names.contains(&expect), "missing {expect} in {names:?}");
        }
    }

    /// A path's first byte is set on its first completion: once the path
    /// has a recorded chunk, it cannot be missing or later than any of its
    /// chunks' first bytes.
    #[test]
    fn oracle_flags_a_path_first_byte_after_its_first_chunks() {
        let chunk = |path, first_byte| ChunkRecord {
            path,
            bytes: 1_000,
            requested_at: secs(first_byte - 1),
            first_byte_at: secs(first_byte),
            completed_at: secs(first_byte + 1),
            phase: TrafficPhase::PreBuffering,
        };
        let mut m = SessionMetrics::for_paths(2, SimTime::ZERO);
        m.ended_at = Some(secs(10));
        m.chunks.push(chunk(0, 2));
        m.chunks.push(chunk(1, 2));
        m.paths[0].first_byte_at = Some(secs(2));
        m.paths[1].first_byte_at = Some(secs(1));
        assert_eq!(check_invariants(&m), vec![]);
        let named = |m: &SessionMetrics| -> Vec<&'static str> {
            check_invariants(m).iter().map(|v| v.invariant).collect()
        };
        let mut later = m.clone();
        later.paths[1].first_byte_at = Some(SimTime::from_micros(2_000_001));
        assert_eq!(named(&later), ["path-first-byte"]);
        let mut missing = m.clone();
        missing.paths[0].first_byte_at = None;
        assert_eq!(named(&missing), ["path-first-byte"]);
        // A later chunk's first byte is later still.
        let mut second = m.clone();
        second.chunks.push(chunk(0, 4));
        assert_eq!(check_invariants(&second), vec![]);
    }

    #[test]
    fn fleet_oracle_accepts_a_healthy_run_and_names_what_tampering_breaks() {
        use crate::fleet::{FleetHost, FleetServerSpec};
        use msim_core::units::BitRate;
        let mut spec = FleetSpec::fluid(7, 300);
        // Overloaded (300 × 2.5 Mbps on 500 Mbps) and capped: sessions
        // stall, arrivals are turned away, every check has something to bite.
        spec.servers = vec![FleetServerSpec::new(BitRate::mbps(250.0)).with_capacity(120); 2];
        let m = FleetHost::new(spec.clone()).unwrap().run();
        assert!(m.rejected > 0 && m.stalled_sessions > 0);
        assert_eq!(check_fleet_invariants(&spec, &m), vec![]);

        type Tamper = fn(&mut FleetMetrics);
        let tamperings: [(&str, Tamper); 11] = [
            ("sessions-accounted", |m| m.completed -= 1),
            ("sessions-accounted", |m| m.peak_concurrent = m.sessions),
            ("load-bins-sum", |m| m.rebuffer_vs_load[0].stalled += 1),
            ("replica-sums", |m| m.total_cost += 1.0),
            ("utilization-range", |m| m.servers[1].utilization[0] = 1.5),
            // The oracle's slack covers float rounding, not a real excess.
            ("utilization-range", |m| {
                m.servers[1].utilization[0] = 1.0 + 1e-6
            }),
            ("replica-rate", |m| m.ended_at = SimTime::from_secs(1)),
            ("admission-ceiling", |m| m.servers[0].peak_sessions = 121),
            ("bytes-served-floor", |m| {
                m.servers[0].served_bytes /= 2;
                m.total_served_bytes = m.servers.iter().map(|s| s.served_bytes).sum();
            }),
            ("startup-percentiles", |m| m.startup_p95_secs = 0.0),
            ("stall-accounting", |m| {
                m.stalled_sessions = 0;
                m.rebuffer_vs_load.iter_mut().for_each(|b| b.stalled = 0);
            }),
        ];
        for (invariant, tamper) in tamperings {
            let mut broken = m.clone();
            tamper(&mut broken);
            let mut names: Vec<&str> = check_fleet_invariants(&spec, &broken)
                .iter()
                .map(|v| v.invariant)
                .collect();
            names.dedup();
            assert_eq!(names, [invariant]);
        }
    }
}
