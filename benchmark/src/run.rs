//! One run of one workload: set-up, warm-up, trials, checks, metrics.

use crate::calib::{self, Calibrator};
use crate::entry;
use crate::host;
use crate::layers::{self, TrialLog};
use crate::report::{self, LayerTable, Metric, RunResult, END_TO_END, PER_LAYER};
use crate::span::Tracer;
use crate::stats::{median, spread};
use crate::workloads::{self, Failures, Mode, Runner, MODES};
use std::time::Instant;

/// What `run` was asked to do.
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Mixed into every session seed and the fleet seed.
    pub seed: u64,
    /// How long to keep starting trials.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// 1/50 size, a couple of trials: for tests.
    pub smoke: bool,
}

/// Set-up is repeated and its median reported, so that one slow page-in
/// does not decide `setup_s`: up to this many times, a repetition starting
/// only while those before it took less than [`SETUP_BUDGET_S`] together.
const SETUP_REPS: usize = 7;
const SETUP_BUDGET_S: f64 = 4.0;
/// A median needs a few trials even if `--seconds` is tiny.
const MIN_TRIALS: usize = 3;
/// Share of `--seconds` a traced run spends on trials; probes take the rest.
const TRACED_TRIAL_SHARE: f64 = 0.75;
/// The calibration kernel runs once per this many seconds of trial (at least
/// once per trial), so long trials sample the host as densely as short ones.
const TRIAL_S_PER_KERNEL_RUN: f64 = 0.5;

/// Set-up as a user pays it: registry, hosts, corpus pre-check, one warm-up
/// trial (checked like any other).
fn set_up(
    opts: &Options,
    tr: &mut Tracer,
    failures: &mut Failures,
) -> Result<(Box<dyn Runner>, u64), String> {
    let open = tr.open("setup");
    let mut runner = workloads::build(&opts.workload, opts.seed, opts.smoke, tr)?;
    let corpus_rows = workloads::corpus_precheck(tr, failures);
    let warm = tr.open("setup.warm_up_trial");
    runner.trial(tr, Mode::Plain)?;
    tr.close(warm);
    runner.check_trial(failures);
    tr.close(open);
    Ok((runner, corpus_rows))
}

/// The timed part of a run.
struct Measured {
    /// Wall seconds of each plain trial.
    trial_s: Vec<f64>,
    /// Wall seconds of each calibration-kernel run made between trials.
    kernel_s: Vec<f64>,
    metrics: Vec<Metric>,
}

/// Untraced run: plain trials for `--seconds`, the calibration kernel after
/// each, then the end-to-end metrics.
fn end_to_end(
    opts: &Options,
    runner: &mut dyn Runner,
    tr: &mut Tracer,
    failures: &mut Failures,
    calibrator: &mut Calibrator,
    (setup_s, setup_kernel_s): (&[f64], &[f64]),
) -> Result<Measured, String> {
    let sessions = runner.sessions_per_trial() as f64;
    let min_trials = if opts.smoke { 2 } else { MIN_TRIALS };
    let (mut trial_s, mut cpu_s, mut kernel_s) = (Vec::new(), Vec::new(), Vec::new());
    let loop_start = Instant::now();
    while trial_s.len() < min_trials || loop_start.elapsed().as_secs_f64() < opts.seconds {
        let cpu0 = host::cpu_ticks();
        let t = Instant::now();
        runner.trial(tr, Mode::Plain)?;
        let secs = t.elapsed().as_secs_f64();
        let cpu1 = host::cpu_ticks();
        trial_s.push(secs);
        cpu_s.push(host::ticks_to_secs(
            cpu1.own + cpu1.children - cpu0.own - cpu0.children,
        ));
        runner.check_trial(failures);
        for _ in 0..(secs / TRIAL_S_PER_KERNEL_RUN).ceil().max(1.0) as usize {
            kernel_s.push(calibrator.seconds());
        }
    }
    let peak_rss_mb = host::status_mib("VmHWM");
    runner.finish(tr, failures);

    // Times are divided by the host factor (rates multiplied), so that a run
    // on a host that is slow right now reads like one on a quiet host; the
    // raw readings are kept beside them. Each phase is normalised by the
    // kernel runs made during it.
    let factor = calib::host_factor(&kernel_s);
    let setup_factor = calib::host_factor(setup_kernel_s);
    let per_s: Vec<f64> = trial_s.iter().map(|s| sessions / s).collect();
    let cpu_ms_per_k = cpu_s.iter().sum::<f64>() * 1e3 / (sessions * cpu_s.len() as f64 / 1e3);
    let values = [
        (
            median(&per_s) * factor,
            median(&per_s),
            Some(spread(&per_s)),
        ),
        (cpu_ms_per_k / factor, cpu_ms_per_k, None),
        (peak_rss_mb, peak_rss_mb, None),
        (
            median(setup_s) / setup_factor,
            median(setup_s),
            Some(spread(setup_s)),
        ),
    ];
    let metrics = END_TO_END
        .into_iter()
        .zip(values)
        .map(|((name, unit), (value, raw, spread))| Metric {
            name,
            unit,
            value,
            raw: Some(raw),
            spread,
        })
        .collect();
    Ok(Measured {
        trial_s,
        kernel_s,
        metrics,
    })
}

/// Traced run: trials in the three modes for most of `--seconds`, then the
/// isolated probes, the per-layer table and the span file.
fn per_layer(
    opts: &Options,
    runner: &mut dyn Runner,
    tr: &mut Tracer,
    failures: &mut Failures,
    mut log: TrialLog,
) -> Result<Measured, String> {
    let cpu_start = host::cpu_ticks();
    let rounds = if opts.smoke { 1 } else { 2 };
    let budget = opts.seconds * TRACED_TRIAL_SHARE;
    let loop_start = Instant::now();
    // The three modes take turns, so that host drift hits all alike.
    while log.plain_s.len() < rounds || loop_start.elapsed().as_secs_f64() < budget {
        tr.trial += 1;
        for mode in MODES {
            tr.recording = mode != Mode::Plain;
            let t = Instant::now();
            let open = tr.open("trial");
            runner.trial(tr, mode)?;
            tr.close(open);
            let secs = t.elapsed().as_secs_f64();
            match mode {
                Mode::Plain => log.plain_s.push(secs),
                Mode::Spans => log.spans_s.push(secs),
                Mode::Telemetry => log.telemetry_s.push(secs),
            }
            runner.check_trial(failures);
        }
    }
    tr.recording = true;
    tr.trial = 0;
    log.children_cpu_s = host::ticks_to_secs(host::cpu_ticks().children - cpu_start.children);

    let mut table = LayerTable::new();
    let open = tr.open("layers");
    layers::common_layers(tr, &log, &mut table)?;
    runner.layers(tr, &log, &mut table)?;
    tr.close(open);
    runner.finish(tr, failures);
    let path = report::out_dir()?.join(format!("trace-{}.ndjson", opts.workload));
    tr.write_ndjson(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(Measured {
        trial_s: log.plain_s,
        kernel_s: Vec::new(),
        metrics: PER_LAYER
            .into_iter()
            .map(|(name, unit, _)| Metric {
                name,
                unit,
                value: table.get(name),
                raw: None,
                spread: None,
            })
            .collect(),
    })
}

/// Runs the workload and returns what to report.
pub fn run(opts: &Options) -> Result<RunResult, String> {
    let mut tr = Tracer::new();
    tr.recording = opts.trace;
    entry::telemetry_enable(false);
    entry::telemetry_reset();
    let stamp = host::stamp(entry::STREAM_EPOCH);
    let mut failures = Failures::default();

    // The calibration kernel brackets every set-up and (untraced runs, the
    // only ones that report normalised numbers) follows every trial.
    let mut calibrator = Calibrator::new();
    let mut setup_kernel_s = vec![calibrator.seconds()];
    let rss_before = host::status_mib("VmRSS");
    let mut setup_s = Vec::new();
    let mut built = None;
    let setup_start = Instant::now();
    while setup_s.is_empty()
        || (!opts.smoke
            && setup_s.len() < SETUP_REPS
            && setup_start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(built.take());
        let t = Instant::now();
        built = Some(set_up(opts, &mut tr, &mut failures)?);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_kernel_s.push(calibrator.seconds());
    }
    let (mut runner, corpus_rows) = built.expect("set-up ran at least once");

    let measured = if opts.trace {
        let log = TrialLog {
            plain_s: Vec::new(),
            spans_s: Vec::new(),
            telemetry_s: Vec::new(),
            children_cpu_s: 0.0,
            first_trial_rss_bytes: (host::status_mib("VmHWM") - rss_before) * 1024.0 * 1024.0,
            corpus_ok: failures.count == 0,
            probe_divisor: if opts.smoke { 50 } else { 1 },
        };
        per_layer(opts, runner.as_mut(), &mut tr, &mut failures, log)?
    } else {
        end_to_end(
            opts,
            runner.as_mut(),
            &mut tr,
            &mut failures,
            &mut calibrator,
            (&setup_s, &setup_kernel_s),
        )?
    };

    let sessions = runner.sessions_per_trial();
    let modes = if opts.trace { MODES.len() as u64 } else { 1 };
    Ok(RunResult {
        workload: opts.workload.clone(),
        seed: opts.seed,
        traced: opts.trace,
        smoke: opts.smoke,
        host: stamp,
        sessions_per_trial: sessions,
        attempted: corpus_rows + sessions * measured.trial_s.len() as u64 * modes,
        failed: failures.count,
        failures: failures.messages,
        notes: runner.note().into_iter().collect(),
        trial_s: measured.trial_s,
        kernel_s: measured.kernel_s,
        setup_kernel_s,
        metrics: measured.metrics,
        spans: crate::span::totals(tr.spans()),
    })
}
