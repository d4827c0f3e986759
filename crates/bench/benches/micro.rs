//! Criterion micro-benchmarks: performance guardrails on the hot paths of
//! the library (estimator updates, scheduler decisions, event queue,
//! fluid fleet, JSON, HTTP codec, sampling kernels, TCP transfer model,
//! full sessions).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use msim_core::event::EventQueue;
use msim_core::process::Ou;
use msim_core::rng::{DeviateMode, DrawKind, DrawTable, Prng};
use msim_core::time::{SimDuration, SimTime};
use msim_core::units::ByteSize;
use msplayer_bench::fleet::{frontier_specs, headline_spec};
use msplayer_core::config::{PlayerConfig, SchedulerKind};
use msplayer_core::estimator::{Ewma, HarmonicInc};
use msplayer_core::fleet::FleetHost;
use msplayer_core::scheduler::SchedulerImpl;
use msplayer_core::sim::{PathSetup, ServiceSpec, SessionHost, SessionSpec};

fn bench_estimators(c: &mut Criterion) {
    c.bench_function("estimator/harmonic_inc_update", |b| {
        let mut est = HarmonicInc::new();
        let mut x = 1.0e6;
        b.iter(|| {
            x = x * 1.000001 + 13.0;
            est.update(black_box(x));
            black_box(est.estimate_bps())
        });
    });
    c.bench_function("estimator/ewma_update", |b| {
        let mut est = Ewma::new(0.9);
        let mut x = 1.0e6;
        b.iter(|| {
            x = x * 1.000001 + 13.0;
            est.update(black_box(x));
            black_box(est.estimate_bps())
        });
    });
}

fn bench_scheduler(c: &mut Criterion) {
    // Enum dispatch (what the player uses): on_sample + chunk_size are
    // direct, inlinable calls.
    c.bench_function("scheduler/dcsa_harmonic_on_sample", |b| {
        let cfg = PlayerConfig::default();
        let mut s = SchedulerImpl::from_config(&cfg);
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(1);
            s.on_sample(i & 1, black_box(8.0e6 + (i % 100) as f64 * 1e4));
            black_box(s.chunk_size(i & 1))
        });
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue/push_pop_1k", |b| {
        b.iter_batched(
            EventQueue::<u32>::new,
            |mut q| {
                for i in 0..1000u32 {
                    q.push(
                        SimTime::from_micros(((i * 7919) % 10_000) as u64 + 10_000),
                        i,
                    );
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        );
    });
    // Cancellation-heavy schedule: the simulator cancels timers (ticks,
    // timeouts) constantly; this is the path the slab queue makes O(1).
    c.bench_function("event_queue/push_cancel_pop_1k", |b| {
        b.iter_batched(
            EventQueue::<u32>::new,
            |mut q| {
                let mut ids = Vec::with_capacity(1000);
                for i in 0..1000u32 {
                    ids.push(q.push(
                        SimTime::from_micros(((i * 7919) % 10_000) as u64 + 10_000),
                        i,
                    ));
                }
                // Cancel two of every three events, newest first.
                for (k, id) in ids.into_iter().enumerate().rev() {
                    if k % 3 != 0 {
                        black_box(q.cancel(id));
                    }
                }
                while let Some(ev) = q.pop() {
                    black_box(ev);
                }
            },
            BatchSize::SmallInput,
        );
    });
    // Steady-state interleave: the simulator's actual access pattern is a
    // rolling horizon of pushes/pops, not bulk fill-drain.
    c.bench_function("event_queue/interleaved_steady_state", |b| {
        let mut q = EventQueue::<u32>::new();
        for i in 0..64u32 {
            q.push(SimTime::from_micros(i as u64 * 13 + 1_000_000), i);
        }
        let mut i = 64u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let (t, e) = q.pop().expect("queue never drains");
            q.push(
                t + SimDuration::from_micros(((e as u64 * 7919) % 997) + 1),
                i,
            );
            black_box(t)
        });
    });
    // The near-horizon timer pattern at scale: thousands of pending timers
    // (many multiplexed sessions), every reschedule within the rolling
    // horizon. This is the pattern the calendar ring exists for — pops stay
    // O(1) where a heap pays a full log-depth sift per pop.
    c.bench_function("event_queue/near_horizon_steady_state_4k", |b| {
        let mut q = EventQueue::<u32>::new();
        for i in 0..4096u32 {
            q.push(SimTime::from_micros(i as u64 * 211 + 1_000_000), i);
        }
        let mut i = 4096u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let (t, e) = q.pop().expect("queue never drains");
            q.push(
                t + SimDuration::from_micros(((e as u64 * 7919) % 863_557) + 1),
                i,
            );
            black_box(t)
        });
    });
    // The fluid fleet's regime (ns per push+pop pair): 100k sessions each
    // keep one wake pending and every pop re-arms it 0.1 ms–30 s out, so
    // the pending set is far bigger than the caches.
    c.bench_function("event_queue/fleet_100k_live_wake_cycle", |b| {
        let mut q = EventQueue::<u32>::with_capacity(100_000);
        for s in 0..100_000u32 {
            q.push(SimTime::from_micros(wake_delay_us(s)), s);
        }
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let (t, s) = q.pop().expect("queue never drains");
            q.push(t + SimDuration::from_micros(wake_delay_us(s ^ i)), s);
            black_box(t)
        });
    });
    // An overloaded fleet's regime: 20k stalled sessions all wake within
    // the same millisecond, every two simulated seconds, so the mean
    // inter-pop gap says nothing about where the events are.
    c.bench_function("event_queue/stalled_bursts_20k_live", |b| {
        const PERIOD_US: u64 = 2_000_000;
        let mut q = EventQueue::<u32>::with_capacity(20_000);
        for s in 0..20_000u32 {
            q.push(
                SimTime::from_micros(PERIOD_US + wake_delay_us(s) % 1_000),
                s,
            );
        }
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let (t, s) = q.pop().expect("queue never drains");
            let next_burst = (t.as_micros() / PERIOD_US + 1) * PERIOD_US;
            q.push(
                SimTime::from_micros(next_burst + wake_delay_us(s ^ i) % 1_000),
                s,
            );
            black_box(t)
        });
    });
}

/// The fluid fleet engine end to end (ns per event: queue, replica
/// advance, session sync and re-arm): the load-balanced headline, where
/// sessions cycle through refills, and the overloaded frontier cell, where
/// every session stalls.
fn bench_fleet(c: &mut Criterion) {
    let overload = frontier_specs(5_000)
        .into_iter()
        .find(|case| case.label == "cheapest-feasible@x0.6")
        .expect("the frontier grid has the overloaded cell")
        .spec;
    for (id, spec) in [
        ("fleet/fluid_headline_20k", headline_spec(20_000)),
        ("fleet/fluid_overload_5k", overload),
    ] {
        c.bench_function(id, |b| {
            let mut host = FleetHost::new(spec.clone()).expect("named fleet spec validates");
            b.elements(host.run().events);
            b.iter(|| host.run());
        });
    }
}

/// A deterministic wake distance in 0.1 ms–30 s, scattered by `salt`.
fn wake_delay_us(salt: u32) -> u64 {
    100 + (salt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % 30_000_000
}

fn bench_json(c: &mut Criterion) {
    let doc = {
        let mut v = msim_json::Value::object();
        for i in 0..50u64 {
            v = v.with(
                &format!("key{i:02}"),
                msim_json::Value::object()
                    .with("itag", i)
                    .with("quality", "720p")
                    .with("size", i * 1_000_003),
            );
        }
        msim_json::to_string(&v)
    };
    c.bench_function("json/parse_5kB_doc", |b| {
        b.iter(|| black_box(msim_json::from_str(black_box(&doc)).unwrap()));
    });
}

fn bench_http_codec(c: &mut Criterion) {
    let resp = msim_http::Response::partial_content(
        vec![7u8; 256 * 1024],
        msim_http::ByteRange::from_offset_len(0, 256 * 1024),
        10_000_000,
    );
    let wire = msim_http::encode_response(&resp);
    c.bench_function("http/decode_256kB_response", |b| {
        b.iter(
            || match msim_http::decode_response(black_box(&wire)).unwrap() {
                msim_http::Decoded::Complete { message, .. } => black_box(message.body.len()),
                msim_http::Decoded::NeedMore => unreachable!(),
            },
        );
    });
}

/// One row per kernel of the per-round sampling path: deviate fills
/// (`vmath` + the PCG pair), µs rounding, the OU's cell read (what ~4
/// rounds in 5 pay) and its step (what the first round in a new cell pays),
/// and the loss countdown.
fn bench_sampling_kernels(c: &mut Criterion) {
    c.bench_function("rng/table_normal_draw", |b| {
        let mut table = DrawTable::new(Prng::new(1), DrawKind::Normal, DeviateMode::Block);
        b.iter(|| black_box(table.draw()));
    });
    c.bench_function("rng/table_lognormal_draw", |b| {
        let sigma = 0.12f64;
        let kind = DrawKind::LognormalMult {
            mu: -0.5 * sigma * sigma,
            sigma,
        };
        let mut table = DrawTable::new(Prng::new(1), kind, DeviateMode::Block);
        b.iter(|| black_box(table.draw()));
    });
    c.bench_function("time/mul_f64", |b| {
        let rtt = SimDuration::from_millis(25);
        let mut k = 0.7;
        b.iter(|| {
            k = if k > 1.4 { 0.7 } else { k + 1e-3 };
            black_box(rtt.mul_f64(black_box(k)))
        });
    });
    // tau = 8 s: cells of 250 ms. 1 µs a sample stays inside a cell for
    // 250 000 samples; 250 ms a sample steps once per sample.
    for (id, advance) in [
        ("process/ou_cell_read", SimDuration::from_micros(1)),
        ("process/ou_step", SimDuration::from_millis(250)),
    ] {
        c.bench_function(id, |b| {
            let mut ou = Ou::new(10.5, 0.5, 8.0, Prng::new(1), DeviateMode::Block);
            let mut t = SimTime::ZERO;
            b.iter(|| {
                t += advance;
                black_box(ou.value_at(t))
            });
        });
    }
    c.bench_function("link/loss_gap_round", |b| {
        let mut link = msim_net::PathProfile {
            random_loss_per_round: 0.004,
            ..msim_net::PathProfile::stable(10.0, 25)
        }
        .build(&mut Prng::new(7));
        b.iter(|| black_box(link.random_loss()));
    });
}

fn bench_tcp_model(c: &mut Criterion) {
    c.bench_function("tcp/1MB_transfer_simulation", |b| {
        b.iter(|| {
            let mut link = msim_net::PathProfile {
                rtt_jitter_frac: 0.1,
                random_loss_per_round: 0.001,
                ..msim_net::PathProfile::stable(10.0, 30)
            }
            .build(&mut Prng::new(7));
            let mut conn = msim_net::TcpConnection::new(msim_net::TcpConfig::default());
            let ready = conn.connect(&mut link, SimTime::ZERO);
            black_box(conn.request(&mut link, ready, ByteSize::mb(1)))
        });
    });
    // What every benchmarked session runs: a calibrated profile (OU rate
    // under burst and Markov modulators, jittered RTT, random loss), one
    // link and connection serving back-to-back requests.
    c.bench_function("tcp/1MB_transfer_wifi_testbed_profile", |b| {
        let profile = msim_net::PathProfile::wifi_testbed();
        let mut link = profile.build(&mut Prng::new(7));
        let mut conn = msim_net::TcpConnection::new(profile.tcp_config());
        let mut now = conn.connect(&mut link, SimTime::ZERO);
        b.iter(|| {
            let res = conn.request(&mut link, now, ByteSize::mb(1));
            now = res.completed_at;
            black_box(res)
        });
    });
}

fn bench_full_session(c: &mut Criterion) {
    c.bench_function("session/testbed_prebuffer_10s", |b| {
        let cfg = PlayerConfig::msplayer()
            .with_scheduler(SchedulerKind::Harmonic)
            .with_prebuffer_secs(10.0);
        let mut spec = SessionSpec::new(0, PathSetup::testbed_pair(), cfg);
        b.iter(|| {
            spec.seed = spec.seed.wrapping_add(1);
            // A fresh host per session: the bootstrap is part of the cost.
            black_box(SessionHost::new(ServiceSpec::testbed()).run(&spec))
        });
    });
}

criterion_group!(
    benches,
    bench_estimators,
    bench_scheduler,
    bench_event_queue,
    bench_fleet,
    bench_json,
    bench_http_codec,
    bench_sampling_kernels,
    bench_tcp_model,
    bench_full_session,
);
criterion_main!(benches);
