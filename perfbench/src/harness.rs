//! The workload-independent harness: repeated set-ups, the closed-loop
//! timed phase with one calibration-kernel call after each operation,
//! the optional traced run, and the reduction to metrics.

use std::fmt::Debug;
use std::time::Instant;

use dc_server::Server;
use dc_trace::metrics::MetricsSnapshot;

use crate::calib::{self, Calibration, Kernel};
use crate::report::{rss_kb, Metrics};
use crate::spans::{self, SpanTotals};

/// The timed operation types.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One prepared solve-kind `Session::query`.
    Solve,
    /// `Server::begin` plus one prepared `Session::query`.
    Read,
    /// `Server::commit` until every subscription's update for the new
    /// epoch has been received.
    Commit,
}

/// One timed call inside an operation.
#[derive(Clone, Debug)]
pub struct Timed {
    pub kind: Kind,
    /// The latency mode the call belongs to (a query name, or a
    /// refresh path), for the percentile-placement check.
    pub class: &'static str,
    pub ms: f64,
}

/// Time `f` into `out` as one call of `kind`/`class`.
pub fn timed<T>(out: &mut Vec<Timed>, kind: Kind, class: &'static str, f: impl FnOnce() -> T) -> T {
    let (r, ms) = stopwatch(f);
    out.push(Timed { kind, class, ms });
    r
}

/// `f`'s result and its wall time in ms.
pub fn stopwatch<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}

/// Set-up costs attributed to single layers.
#[derive(Default, Clone, Copy)]
pub struct SetupParts {
    /// Every `prepare`/`prepare_solve`, ms.
    pub prepare_ms: f64,
    /// Every `subscribe` plus its first `recv`, ms.
    pub initial_delivery_ms: f64,
}

/// A benchmark workload: generated data, a set-up that loads it into a
/// server, a seeded schedule of operations, and the checks on them.
pub trait Workload {
    type Data;
    type Env;
    type Op: Clone + Debug + PartialEq;
    /// What an operation returns for its (untimed) check.
    type Outcome;

    /// The operation type the end-to-end latency percentiles describe.
    const PRIMARY: Kind;
    /// Set-ups per run; `setup_s` is their median.
    const SETUPS: usize;
    /// Timed operations per second of `--seconds` at reference speed.
    const OPS_PER_SECOND: usize;
    /// Fewest timed operations in a run, so every reported p95 has at
    /// least ten samples beyond it.
    const MIN_OPS: usize;

    /// The database contents (fixed; see `workloads::DATA_SEED`).
    fn generate() -> Self::Data;
    fn setup(data: &Self::Data, parts: &mut SetupParts) -> Result<Self::Env, String>;
    fn schedule(data: &Self::Data, seed: u64, n: usize) -> Vec<Self::Op>;
    fn run(
        env: &mut Self::Env,
        op: &Self::Op,
        out: &mut Vec<Timed>,
    ) -> Result<Self::Outcome, String>;
    fn check(env: &mut Self::Env, op: &Self::Op, outcome: Self::Outcome) -> Result<(), String>;
    /// End-of-run checks on the final state.
    fn finish(env: &mut Self::Env) -> Result<(), String>;
    fn server(env: &Self::Env) -> &Server;
}

/// Timed operations in a run of `seconds`.
pub fn op_count<W: Workload>(seconds: u64) -> usize {
    (seconds as usize * W::OPS_PER_SECOND).max(W::MIN_OPS)
}

/// The result of one timed phase.
pub struct Phase {
    /// Every timed call with the index of its operation.
    pub calls: Vec<(usize, Timed)>,
    /// Raw wall time of each operation, ms.
    pub op_ms: Vec<f64>,
    pub calibration: Calibration,
    pub failed: usize,
    /// Registry counters over the phase alone.
    pub counts: MetricsSnapshot,
    pub rss_growth_kb: f64,
}

impl Phase {
    fn calibrated_op_ms(&self, upto: usize) -> f64 {
        self.op_ms[..upto]
            .iter()
            .enumerate()
            .map(|(i, ms)| ms * self.calibration.factor(i))
            .sum()
    }

    /// Calibrated (or raw) times of the calls of `kind`, with classes.
    fn samples(&self, kind: Kind, calibrated: bool) -> Vec<(f64, &'static str)> {
        self.calls
            .iter()
            .filter(|(_, t)| t.kind == kind)
            .map(|(i, t)| {
                let f = if calibrated {
                    self.calibration.factor(*i)
                } else {
                    1.0
                };
                (t.ms * f, t.class)
            })
            .collect()
    }
}

/// Run `ops` in a closed loop against `env`, with a kernel call after
/// each operation and the operation's check after that.
fn timed_phase<W: Workload>(env: &mut W::Env, ops: &[W::Op], kernel: &Kernel) -> Phase {
    let before = W::server(env).metrics().snapshot();
    let rss_before = rss_kb("VmRSS");
    let mut phase = Phase {
        calls: Vec::new(),
        op_ms: Vec::with_capacity(ops.len()),
        calibration: Calibration::default(),
        failed: 0,
        counts: MetricsSnapshot::default(),
        rss_growth_kb: 0.0,
    };
    for (i, op) in ops.iter().enumerate() {
        let mut calls = Vec::new();
        let span = spans::op(i);
        let t0 = Instant::now();
        let outcome = W::run(env, op, &mut calls);
        phase.op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(span);
        phase.calibration.push(kernel.timed_ms());
        let checked = outcome.and_then(|o| W::check(env, op, o));
        if let Err(e) = checked {
            phase.failed += 1;
            eprintln!("op {i} ({op:?}) failed: {e}");
        }
        phase.calls.extend(calls.into_iter().map(|t| (i, t)));
    }
    phase.counts = counter_delta(&before, &W::server(env).metrics().snapshot());
    phase.rss_growth_kb = rss_kb("VmRSS") - rss_before;
    phase
}

/// Counters of `after` minus those of `before` (histograms dropped).
fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = MetricsSnapshot::default();
    macro_rules! sub {
        ($($f:ident),*) => { $(d.$f = after.$f - before.$f;)* };
    }
    sub!(
        solve_runs,
        solve_rounds,
        delta_tuples,
        probe_plans,
        scan_plans,
        quant_probes,
        quant_scans,
        decorr_builds,
        decorr_refusals,
        parallel_branches,
        sequential_branches,
        degraded_branches,
        warm_solved_hits,
        warm_solved_misses,
        warm_index_hits,
        warm_index_misses,
        warm_stats_hits,
        warm_stats_misses,
        warm_decorr_hits,
        warm_decorr_misses,
        commits,
        conflicts,
        sessions,
        queries,
        subscription_updates,
        refresh_warm,
        refresh_cold,
        refresh_skipped
    );
    d
}

/// What a run found besides its metrics.
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    /// Failed end-of-run checks (output, mix and placement).
    pub problems: Vec<String>,
}

/// Everything a determinism test compares between two runs.
pub struct Replay<Op> {
    pub ops: Vec<Op>,
    pub counts: MetricsSnapshot,
    pub failed: usize,
}

/// Set up once on `data` and run the first `n` operations of `seed`'s
/// schedule: the op sequence and registry counts the determinism tests
/// compare.
pub fn replay<W: Workload>(data: &W::Data, seed: u64, n: usize) -> Result<Replay<W::Op>, String> {
    let mut env = W::setup(data, &mut SetupParts::default())?;
    let ops = W::schedule(data, seed, n);
    let phase = timed_phase::<W>(&mut env, &ops, &Kernel::new());
    W::finish(&mut env)?;
    Ok(Replay {
        ops,
        counts: phase.counts,
        failed: phase.failed,
    })
}

/// One benchmark run: `W::SETUPS` calibrated set-ups, the untraced timed
/// phase, and with `trace` a traced phase on a fresh set-up.
pub fn run<W: Workload>(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let (data, gen_ms) = stopwatch(W::generate);
    eprintln!(
        "data generation and reference answers: {:.2} s",
        gen_ms / 1e3
    );
    let kernel = Kernel::new();
    for _ in 0..20 {
        kernel.timed_ms();
    }
    let mut problems = Vec::new();

    // Set-up, several times; the last environment serves the run.
    let mut setup_s = Vec::new();
    let mut setup_raw_s = Vec::new();
    let mut parts = Vec::new();
    let mut env = None;
    for _ in 0..W::SETUPS {
        drop(env.take());
        let mut p = SetupParts::default();
        let ((e, secs), factor) = calib::bracketed(&kernel, 3, || {
            let t0 = Instant::now();
            let e = W::setup(&data, &mut p);
            (e, t0.elapsed().as_secs_f64())
        });
        env = Some(e?);
        setup_s.push(secs * factor);
        setup_raw_s.push(secs);
        p.prepare_ms *= factor;
        p.initial_delivery_ms *= factor;
        parts.push(p);
    }
    let mut env = env.ok_or("no set-up ran")?;

    let n = op_count::<W>(seconds);
    let ops = W::schedule(&data, seed, n);
    let phase = timed_phase::<W>(&mut env, &ops, &kernel);
    if let Err(e) = W::finish(&mut env) {
        problems.push(format!("end-of-run check: {e}"));
    }
    let mut failed = phase.failed;
    let mut attempted = n;
    let peak_rss_mb = rss_kb("VmHWM") / 1024.0;
    let primary = phase.samples(W::PRIMARY, true);
    summarize(&phase);
    problems.extend(placement(W::PRIMARY, &primary));

    let mut m = Metrics::default();
    if !trace {
        let ok = (n - phase.failed) as f64;
        m.put("setup_s", calib::median(&setup_s), "s");
        m.put("ops_per_s", ok / (phase.calibrated_op_ms(n) / 1e3), "1/s");
        m.put("latency_p50_ms", quantile(&primary, 0.50), "ms");
        m.put("latency_p95_ms", quantile(&primary, 0.95), "ms");
        m.put("peak_rss_mb", peak_rss_mb, "MB");
        return Ok(Outcome {
            metrics: m,
            attempted,
            failed,
            problems,
        });
    }

    // Traced run: a fresh set-up, the first half of the same schedule,
    // with the engine's spans and the benchmark's own collected in
    // memory.
    drop(env);
    let mut env = W::setup(&data, &mut SetupParts::default())?;
    let n_traced = n / 2;
    let (traced, records) = {
        let guard = dc_trace::Collector::install();
        let traced = timed_phase::<W>(&mut env, &ops[..n_traced], &kernel);
        dc_trace::flush();
        (traced, guard.records())
    };
    if let Err(e) = W::finish(&mut env) {
        problems.push(format!("end-of-run check (traced): {e}"));
    }
    failed += traced.failed;
    attempted += n_traced;
    let spans = SpanTotals::from_records(&records, |i| traced.calibration.factor(i));
    layer_metrics(&mut m, &phase, &traced, &spans, n);

    // Set-up layers, host-speed diagnostics and raw copies.
    let med = |f: fn(&SetupParts) -> f64| calib::median(&parts.iter().map(f).collect::<Vec<_>>());
    m.put("server.prepare_ms", med(|p| p.prepare_ms), "ms");
    m.put(
        "server.initial_delivery_ms",
        med(|p| p.initial_delivery_ms),
        "ms",
    );
    m.put(
        "calib.kernel_ms",
        phase.calibration.median_kernel_ms(),
        "ms",
    );
    let raw = phase.samples(W::PRIMARY, false);
    m.put("raw.setup_s", calib::median(&setup_raw_s), "s");
    m.put(
        "raw.ops_per_s",
        (n - phase.failed) as f64 / (phase.op_ms.iter().sum::<f64>() / 1e3),
        "1/s",
    );
    m.put("raw.latency_p50_ms", quantile(&raw, 0.50), "ms");
    m.put("raw.latency_p95_ms", quantile(&raw, 0.95), "ms");
    Ok(Outcome {
        metrics: m,
        attempted,
        failed,
        problems,
    })
}

/// The per-layer metrics: registry counts per operation from the
/// untraced phase, calibrated span times from the traced one.
fn layer_metrics(m: &mut Metrics, phase: &Phase, traced: &Phase, spans: &SpanTotals, n: usize) {
    let c = &phase.counts;
    // An undefined ratio (0/0) turns into NaN here and reads 0 in the
    // report.
    let per_op = |x: u64| x as f64 / n as f64;
    let frac = |a: u64, b: u64| a as f64 / (a + b) as f64;
    let mean = |total: f64, count: usize| total / count as f64;

    m.put(
        "server.begin_us",
        1e3 * mean(spans.total_ms("client.begin"), spans.count("client.begin")),
        "us",
    );
    m.put(
        "server.session_query_ms",
        mean(spans.self_ms("session_query"), spans.count("session_query")),
        "ms",
    );
    m.put(
        "server.publish_ms",
        mean(spans.self_ms("server_commit"), spans.count("server_commit")),
        "ms",
    );
    for outcome in ["warm", "cold"] {
        let key = format!("subscription_refresh.{outcome}");
        m.put_owned(
            format!("server.refresh_{outcome}_ms"),
            mean(spans.total_ms(&key), spans.count(&key)),
            "ms",
        );
    }
    let refreshes = c.refresh_warm + c.refresh_cold + c.refresh_skipped;
    let share = |x: u64| x as f64 / refreshes as f64;
    m.put("server.refresh_warm_frac", share(c.refresh_warm), "ratio");
    m.put("server.refresh_cold_frac", share(c.refresh_cold), "ratio");
    m.put(
        "server.refresh_skipped_frac",
        share(c.refresh_skipped),
        "ratio",
    );
    m.put(
        "server.warm_index_hit_rate",
        frac(c.warm_index_hits, c.warm_index_misses),
        "ratio",
    );
    m.put(
        "server.warm_stats_hit_rate",
        frac(c.warm_stats_hits, c.warm_stats_misses),
        "ratio",
    );
    m.put(
        "server.warm_decorr_hit_rate",
        frac(c.warm_decorr_hits, c.warm_decorr_misses),
        "ratio",
    );
    m.put(
        "server.warm_solved_hit_rate",
        frac(c.warm_solved_hits, c.warm_solved_misses),
        "ratio",
    );
    m.put(
        "server.rss_growth_mb_per_100_ops",
        phase.rss_growth_kb / 1024.0 / n as f64 * 100.0,
        "MB",
    );

    let solves = spans.count("solve");
    m.put(
        "fixpoint.solve_ms",
        mean(spans.total_ms("solve"), solves),
        "ms",
    );
    for (name, key) in [
        ("fixpoint.prep_ms", "phase.prep"),
        ("fixpoint.freeze_ms", "phase.freeze"),
        ("fixpoint.evaluate_ms", "phase.evaluate"),
        ("fixpoint.replay_commit_ms", "phase.replay+commit"),
        ("fixpoint.branch_task_ms", "branch_task"),
    ] {
        m.put(name, mean(spans.self_ms(key), solves), "ms");
    }
    let runs = c.solve_runs.max(1) as f64;
    m.put(
        "fixpoint.rounds_per_solve",
        c.solve_rounds as f64 / runs,
        "count",
    );
    m.put(
        "fixpoint.delta_tuples_per_solve",
        c.delta_tuples as f64 / runs,
        "count",
    );

    m.put(
        "calculus.probe_plan_frac",
        frac(c.probe_plans, c.scan_plans),
        "ratio",
    );
    m.put(
        "calculus.quant_probe_frac",
        frac(c.quant_probes, c.quant_scans),
        "ratio",
    );
    m.put(
        "calculus.decorr_builds_per_op",
        per_op(c.decorr_builds),
        "count",
    );
    m.put(
        "calculus.decorr_refusals_per_op",
        per_op(c.decorr_refusals),
        "count",
    );
    m.put(
        "calculus.decorr_build_ms",
        mean(spans.total_ms("decorr_build"), spans.count("decorr_build")),
        "ms",
    );
    m.put(
        "exec.parallel_branch_frac",
        frac(c.parallel_branches, c.sequential_branches),
        "ratio",
    );
    m.put(
        "trace.overhead_frac",
        traced.calibrated_op_ms(traced.op_ms.len()) / phase.calibrated_op_ms(traced.op_ms.len())
            - 1.0,
        "ratio",
    );

    // Client-side latencies of every timed call type (the end-to-end
    // pair covers only the workload's primary type).
    for (kind, name) in [
        (Kind::Solve, "solve"),
        (Kind::Read, "read"),
        (Kind::Commit, "commit"),
    ] {
        let s = phase.samples(kind, true);
        for (q, tag) in [(0.50, "p50"), (0.95, "p95")] {
            let v = if s.is_empty() { 0.0 } else { quantile(&s, q) };
            m.put_owned(format!("client.{name}_{tag}_ms"), v, "ms");
        }
    }
}

/// Per call type and latency mode: count and calibrated median, on
/// standard error, for reading a run by eye.
fn summarize(phase: &Phase) {
    let mut classes: Vec<(Kind, &str)> =
        phase.calls.iter().map(|(_, t)| (t.kind, t.class)).collect();
    classes.sort_by_key(|c| (c.0 as u8, c.1));
    classes.dedup();
    for (kind, class) in classes {
        let ms: Vec<f64> = phase
            .calls
            .iter()
            .filter(|(_, t)| t.kind == kind && t.class == class)
            .map(|(i, t)| t.ms * phase.calibration.factor(*i))
            .collect();
        let s: Vec<(f64, &str)> = ms.iter().map(|&m| (m, class)).collect();
        eprintln!(
            "{kind:?}/{class}: n={} p10={:.3} p50={:.3} p90={:.3} ms",
            ms.len(),
            quantile(&s, 0.1),
            quantile(&s, 0.5),
            quantile(&s, 0.9)
        );
    }
    eprintln!(
        "kernel median {:.4} ms",
        phase.calibration.median_kernel_ms()
    );
}

/// Nearest-rank quantile of the sample values.
pub fn quantile(samples: &[(f64, &str)], q: f64) -> f64 {
    let mut v: Vec<f64> = samples.iter().map(|s| s.0).collect();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), q)]
}

/// Zero-based nearest-rank index of quantile `q` among `n` values.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Widest latency ratio allowed among the samples ranked near a
/// reported percentile: a wider one means the percentile sits at a
/// boundary between two latency modes and flips between them from run
/// to run.
const MODE_SPREAD: f64 = 1.5;

/// Percentile placement of the reported p50 and p95 of `kind`: each
/// needs at least ten samples beyond it, and the samples ranked a few
/// percent below and above it must lie within one latency mode (within
/// [`MODE_SPREAD`] of each other). Samples of several classes (queries,
/// refresh paths) may share a mode when their latencies are that close.
pub fn placement(kind: Kind, samples: &[(f64, &'static str)]) -> Vec<String> {
    if samples.is_empty() {
        return vec![format!("no {kind:?} samples")];
    }
    let mut sorted: Vec<(f64, &str)> = samples.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = sorted.len();
    let mut problems = Vec::new();
    for (q, below, above) in [(0.50, 0.05, 0.05), (0.95, 0.03, 0.02)] {
        let r = rank(n, q);
        if n - 1 - r < 10 {
            problems.push(format!(
                "{kind:?} p{}: only {} of {n} samples beyond it",
                q * 100.0,
                n - 1 - r
            ));
        }
        let (lo, hi) = (sorted[rank(n, q - below)], sorted[rank(n, q + above)]);
        if hi.0 > lo.0 * MODE_SPREAD {
            problems.push(format!(
                "{kind:?} p{} sits at a mode boundary: {:.3} ms ({}) to {:.3} ms ({}) around it",
                q * 100.0,
                lo.0,
                lo.1,
                hi.0,
                hi.1
            ));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(modes: &[(f64, &'static str, usize)]) -> Vec<(f64, &'static str)> {
        modes
            .iter()
            .flat_map(|&(ms, class, n)| {
                (0..n).map(move |i| (ms * (1.0 + i as f64 / 1000.0), class))
            })
            .collect()
    }

    #[test]
    fn placement_accepts_percentiles_inside_modes() {
        let s = samples(&[(1.0, "fast", 300), (10.0, "mid", 500), (100.0, "slow", 200)]);
        assert!(placement(Kind::Commit, &s).is_empty());
    }

    #[test]
    fn placement_flags_a_median_at_a_mode_boundary_and_a_thin_tail() {
        let s = samples(&[(1.0, "fast", 50), (10.0, "slow", 50)]);
        let problems = placement(Kind::Read, &s);
        assert_eq!(problems.len(), 2, "{problems:?}");
        assert!(problems[0].contains("p50 sits at a mode boundary"));
        assert!(problems[1].contains("only 5 of 100 samples beyond"));
    }
}
