//! The gloss whole-stack performance ledger.
//!
//! ```text
//! perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfledger --self-test
//! ```
//!
//! Each workload drives the public APIs of the stack in simulated time
//! with inputs fixed from `--seed`, checks the outputs, and prints one
//! JSON object as its last line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs one pass and replays its inputs through
//! each layer's entry points to report per-layer metrics. Human-readable
//! check results and the full metric table come before the JSON line.

mod gen;
mod probe;
mod replay;
mod selftest;
mod stack;
mod storm;

use gloss_sim::MetricsRegistry;
use probe::HostProbe;
use stack::{Kind, StackRun};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use storm::StormRun;

/// Full-size workloads, or a tiny pass for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

pub const WORKLOADS: [&str; 4] = ["figure1", "sensor_fanout", "context_churn", "storage_storm"];

/// The end-to-end metrics a `--trace 0` run reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("slice_ms_p50", "ms"),
    ("slice_ms_p95", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Setups per run at least, so `setup_s` is a median.
const MIN_SETUPS: usize = 3;

/// What one pass's checks found, plus its simulated-time measurements.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that did not complete as specified.
    pub failed: u64,
    /// Outputs no correct run could produce (clear `correct`).
    pub violations: u64,
    /// (check, failures, out of).
    pub checks: Vec<(String, u64, u64)>,
    pub notes: Vec<String>,
    pub suggestion_latency_s: Option<f64>,
    pub lookup_ms: Vec<f64>,
    pub ttr_s: Option<f64>,
    pub dup_suggestions: u64,
    pub dup_deliveries: u64,
    pub stale_replicas: u64,
    pub under_replicated: u64,
}

impl Outcome {
    pub fn new(attempted: u64) -> Self {
        Outcome { attempted, ..Default::default() }
    }

    pub fn check(&mut self, name: &str, failures: u64, of: u64) {
        self.checks.push((name.to_string(), failures, of));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// One set-up workload.
pub enum Run {
    Stack(Box<StackRun>),
    Storm(Box<StormRun>),
}

impl Run {
    pub fn setup(workload: &str, seed: u64, scale: Scale) -> Run {
        let kind = match workload {
            "figure1" => Kind::Figure1,
            "sensor_fanout" => Kind::Fanout,
            "context_churn" => Kind::Churn,
            "storage_storm" => return Run::Storm(Box::new(StormRun::setup(seed, scale))),
            other => unreachable!("workload {other} was validated"),
        };
        Run::Stack(Box::new(StackRun::setup(kind, seed, scale)))
    }

    pub fn set_threads(&mut self, threads: usize) {
        match self {
            Run::Stack(r) => r.arch.world_mut().set_threads(threads),
            Run::Storm(r) => r.net.world_mut().set_threads(threads),
        }
    }

    pub fn drive(&mut self, slices: &mut Vec<f64>, probe: &mut HostProbe) -> f64 {
        match self {
            Run::Stack(r) => r.drive(slices, probe),
            Run::Storm(r) => r.drive(slices, probe),
        }
    }

    pub fn check(&mut self) -> Outcome {
        match self {
            Run::Stack(r) => r.check(),
            Run::Storm(r) => r.check(),
        }
    }

    /// The metrics registry and its mark at the start of the measured
    /// phase.
    pub fn metrics(&self) -> (&MetricsRegistry, &MetricsMark) {
        match self {
            Run::Stack(r) => (r.arch.world().metrics(), &r.start),
            Run::Storm(r) => (r.net.world().metrics(), &r.start),
        }
    }
}

/// One pass (set-up + measured phase + checks), run in a process of its
/// own: some stack state is process-global (fact-store source ids feed
/// document sizes), so only a fresh process repeats a pass exactly.
/// Times are wall seconds; [`Pass::host`] turns them into reference-host
/// seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    pub setup_s: f64,
    pub measured_s: f64,
    /// The pass's host factor ([`HostProbe::factor`]).
    pub host: f64,
    pub rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub violations: u64,
    /// The simulated-time end-to-end figures ([`sim_time_metrics`]).
    pub sim: Vec<f64>,
    pub slices_ms: Vec<f64>,
    /// Each slice's own host factor ([`HostProbe::slice_factors`]).
    pub slice_hosts: Vec<f64>,
}

impl Pass {
    fn to_line(&self) -> String {
        let mut s = format!(
            "PASS {:?} {:?} {:?} {:?} {} {} {}",
            self.setup_s,
            self.measured_s,
            self.host,
            self.rss_mb,
            self.attempted,
            self.failed,
            self.violations
        );
        let lists = [&self.sim, &self.slices_ms, &self.slice_hosts];
        for (i, v) in lists.iter().enumerate() {
            if i > 0 {
                s.push_str(" NaN");
            }
            for x in v.iter() {
                let _ = write!(s, " {x:?}");
            }
        }
        s
    }

    fn from_line(line: &str) -> Option<Pass> {
        let mut it = line.strip_prefix("PASS ")?.split(' ');
        let mut f = || it.next()?.parse::<f64>().ok();
        let (setup_s, measured_s, host, rss_mb) = (f()?, f()?, f()?, f()?);
        let (attempted, failed, violations) = (f()? as u64, f()? as u64, f()? as u64);
        let mut list =
            || std::iter::from_fn(&mut f).take_while(|v| !v.is_nan()).collect::<Vec<_>>();
        let (sim, slices_ms, slice_hosts) = (list(), list(), list());
        (slices_ms.len() == slice_hosts.len()).then_some(Pass {
            setup_s,
            measured_s,
            host,
            rss_mb,
            attempted,
            failed,
            violations,
            sim,
            slices_ms,
            slice_hosts,
        })
    }
}

/// Runs one pass in this process and prints its checks and its
/// `PASS` line (`--pass`).
fn run_pass(workload: &str, seed: u64, scale: Scale, threads: usize, setup_only: bool) {
    let t = Instant::now();
    let mut run = Run::setup(workload, seed, scale);
    run.set_threads(threads);
    let setup_s = t.elapsed().as_secs_f64();
    let mut probe = HostProbe::new();
    let mut slices_ms = Vec::new();
    let (measured_s, outcome) = if setup_only {
        (0.0, Outcome::default())
    } else {
        let measured_s = run.drive(&mut slices_ms, &mut probe);
        let outcome = run.check();
        print_outcome(workload, seed, &outcome);
        (measured_s, outcome)
    };
    let pass = Pass {
        setup_s,
        measured_s,
        host: probe.factor(),
        slice_hosts: probe.slice_factors(slices_ms.len()),
        rss_mb: peak_rss_mb(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        violations: outcome.violations,
        sim: sim_time_metrics(&outcome).into_iter().map(|(_, v, _)| v).collect(),
        slices_ms,
    };
    println!("{}", pass.to_line());
}

/// Spawns this program for one pass and collects its result; the
/// child's check lines are kept for the caller to print.
pub fn spawn_pass(
    workload: &str,
    seed: u64,
    scale: Scale,
    threads: usize,
    setup_only: bool,
) -> Result<(Pass, String), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--pass", workload, "--seed", &seed.to_string(), "--threads", &threads.to_string()]);
    if scale == Scale::Tiny {
        cmd.args(["--scale", "tiny"]);
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    let out = cmd.output().map_err(|e| format!("running a pass: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    if !out.status.success() {
        return Err(format!(
            "a {workload} pass failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let (checks, last) = text.trim_end().rsplit_once('\n').unwrap_or(("", text.trim_end()));
    let pass = Pass::from_line(last).ok_or_else(|| format!("unreadable pass result: {last}"))?;
    Ok((pass, checks.to_string()))
}

/// Counter values and histogram lengths at one instant, so a pass's
/// layer counts cover its measured phase only.
#[derive(Debug, Default)]
pub struct MetricsMark {
    counters: BTreeMap<String, f64>,
    samples: BTreeMap<String, usize>,
}

impl MetricsMark {
    pub fn of(m: &MetricsRegistry) -> Self {
        MetricsMark {
            counters: m.counter_names().map(|n| (n.to_string(), m.counter(n))).collect(),
            samples: m
                .histogram_names()
                .map(|n| (n.to_string(), m.histogram(n).map_or(0, |h| h.len())))
                .collect(),
        }
    }

    /// A counter's growth since the mark.
    pub fn delta(&self, m: &MetricsRegistry, name: &str) -> f64 {
        m.counter(name) - self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// A histogram's samples recorded since the mark.
    pub fn samples_since(&self, m: &MetricsRegistry, name: &str) -> Vec<f64> {
        let from = self.samples.get(name).copied().unwrap_or(0);
        m.histogram(name)
            .map_or_else(Vec::new, |h| h.samples().get(from..).unwrap_or_default().to_vec())
    }
}

/// A measured run: the passes that fit in `seconds`.
pub struct Measured {
    pub passes: Vec<Pass>,
    /// (set-up time, host factor) of every pass plus set-up-only top-ups.
    pub setups: Vec<(f64, f64)>,
    /// The first pass's check report.
    pub checks: String,
}

/// Runs passes until `seconds` of measured phase have elapsed, then
/// tops the set-ups up to [`MIN_SETUPS`]. Passes of one seed must agree
/// on everything but wall-clock time.
pub fn measure(workload: &str, seed: u64, seconds: f64, scale: Scale) -> Result<Measured, String> {
    let mut m = Measured { passes: Vec::new(), setups: Vec::new(), checks: String::new() };
    let mut measured = 0.0;
    while m.passes.is_empty() || measured < seconds {
        let (pass, checks) = spawn_pass(workload, seed, scale, 1, false)?;
        if let Some(first) = m.passes.first() {
            let same = (first.attempted, first.failed, first.violations, &first.sim)
                == (pass.attempted, pass.failed, pass.violations, &pass.sim);
            if !same {
                return Err(format!("two passes of seed {seed} disagree:\n{checks}\n{}", m.checks));
            }
        } else {
            m.checks = checks;
        }
        measured += pass.measured_s;
        m.setups.push((pass.setup_s, pass.host));
        m.passes.push(pass);
    }
    while m.setups.len() < MIN_SETUPS {
        let pass = spawn_pass(workload, seed, scale, 1, true)?.0;
        m.setups.push((pass.setup_s, pass.host));
    }
    Ok(m)
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An ordered list of (name, value, unit) metrics.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The end-to-end metrics in reference-host time: set-up and measured
/// time divided by their pass's host factor, each slice by its own. With
/// `wall`, in wall time instead (printed beside them, not in the result
/// line).
pub fn end_to_end(m: &Measured, wall: bool) -> Metrics {
    let host = |h: f64| if wall { 1.0 } else { h };
    let setups: Vec<f64> = m.setups.iter().map(|(s, h)| s / host(*h)).collect();
    let attempted: u64 = m.passes.iter().map(|p| p.attempted).sum();
    let measured: f64 = m.passes.iter().map(|p| p.measured_s / host(p.host)).sum();
    let slices: Vec<f64> = m
        .passes
        .iter()
        .flat_map(|p| p.slices_ms.iter().zip(&p.slice_hosts).map(|(s, h)| s / host(*h)))
        .collect();
    vec![
        ("setup_s".into(), quantile(&setups, 0.5), "s"),
        ("ops_per_s".into(), attempted as f64 / measured, "1/s"),
        ("slice_ms_p50".into(), quantile(&slices, 0.5), "ms"),
        ("slice_ms_p95".into(), quantile(&slices, 0.95), "ms"),
        ("peak_rss_mb".into(), m.passes.iter().map(|p| p.rss_mb).fold(0.0, f64::max), "MB"),
    ]
}

/// The value reported for a metric the workload has no operation for
/// (no suggestion, no lookups, no crash), or that never happened.
pub const NOT_APPLICABLE: f64 = -1.0;

/// The simulated-time end-to-end figures: deterministic per seed, so
/// they carry no wall-clock bound. Every run prints them; the traced
/// run's JSON carries `error_rate`.
pub fn sim_time_metrics(o: &Outcome) -> Metrics {
    let opt = |v: Option<f64>| v.unwrap_or(NOT_APPLICABLE);
    let lookups = !o.lookup_ms.is_empty();
    let values = [
        o.error_rate(),
        opt(o.suggestion_latency_s),
        opt(lookups.then(|| quantile(&o.lookup_ms, 0.5))),
        opt(lookups.then(|| quantile(&o.lookup_ms, 0.99))),
        opt(o.ttr_s),
    ];
    SIM_TIME.iter().zip(values).map(|((n, u), v)| (n.to_string(), v, *u)).collect()
}

/// The simulated-time end-to-end metrics, with units.
pub const SIM_TIME: [(&str, &str); 5] = [
    ("error_rate", "ratio"),
    ("suggestion_latency_s", "s"),
    ("lookup_ms_p50", "ms"),
    ("lookup_ms_p99", "ms"),
    ("ttr_s", "s"),
];

fn print_outcome(workload: &str, seed: u64, o: &Outcome) {
    println!("workload {workload} seed {seed}");
    for (name, failures, of) in &o.checks {
        let verdict = if *failures == 0 { "ok" } else { "FAIL" };
        if *of > 0 {
            println!("  check {verdict:4} {name}: {failures} of {of} failed");
        } else {
            println!("  check {verdict:4} {name}: {failures} found");
        }
    }
    for n in &o.notes {
        println!("  note  {n}");
    }
}

fn print_table(metrics: &Metrics) {
    for (name, value, unit) in metrics {
        if *value == NOT_APPLICABLE {
            println!("  {name:<28} {:>14} {unit}", "n/a");
        } else {
            println!("  {name:<28} {value:>14.6} {unit}");
        }
    }
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let v = if value.is_finite() { *value } else { -1.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    /// `--pass`: run one pass in this process (used by the parent run).
    pass: bool,
    threads: usize,
    setup_only: bool,
}

enum Mode {
    Run(Args),
    SelfTest,
}

fn parse_args() -> Result<Mode, String> {
    let mut it = std::env::args().skip(1);
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        pass: false,
        threads: 1,
        setup_only: false,
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--self-test" => return Ok(Mode::SelfTest),
            "--setup-only" => {
                a.setup_only = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<f64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--pass" => {
                a.pass = true;
                a.workload = value;
            }
            "--seed" => a.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = num(&value)?,
            "--trace" => a.trace = value == "1",
            "--threads" => a.threads = num(&value)? as usize,
            "--scale" => a.scale = if value == "tiny" { Scale::Tiny } else { Scale::Full },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(Mode::Run(a))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Run(a)) => a,
        Ok(Mode::SelfTest) => return selftest::self_test(),
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.pass {
        run_pass(&args.workload, args.seed, args.scale, args.threads, args.setup_only);
        return ExitCode::SUCCESS;
    }
    if args.trace {
        let t = match replay::traced(&args.workload, args.seed, args.scale) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perfledger: {e}");
                return ExitCode::FAILURE;
            }
        };
        print_outcome(&args.workload, args.seed, &t.outcome);
        println!("  dominant layer: {}", t.dominant);
        println!("  spans written to {}", replay::spans_path(&args.workload).display());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("  available parallelism {cores}; sim.speedup_2t compares 1 and 2 sim threads");
        print_table(&t.metrics);
        // The other simulated-time figures, printed but not in the JSON:
        // their not-applicable reading never changes between runs.
        print_table(&sim_time_metrics(&t.outcome).into_iter().skip(1).collect());
        let correct = t.outcome.violations == 0;
        println!("{}", json_line(correct, t.outcome.attempted, t.outcome.failed, &t.metrics));
        return ExitCode::SUCCESS;
    }
    let m = match measure(&args.workload, args.seed, args.seconds, args.scale) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfledger: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", m.checks);
    let measured: f64 = m.passes.iter().map(|p| p.measured_s).sum();
    println!(
        "  {} pass(es), {} set-ups, {} one-second slices, {measured:.3} s measured",
        m.passes.len(),
        m.setups.len(),
        m.passes.iter().map(|p| p.slices_ms.len()).sum::<usize>(),
    );
    let metrics = end_to_end(&m, false);
    let first = &m.passes[0];
    let hosts: Vec<f64> = m.passes.iter().map(|p| p.host).collect();
    println!(
        "  host factor {:.3} (median; {:.3}..{:.3} over passes), wall-time figures:",
        quantile(&hosts, 0.5),
        quantile(&hosts, 0.0),
        quantile(&hosts, 1.0)
    );
    print_table(&end_to_end(&m, true).into_iter().skip(1).take(3).collect());
    println!("  reference-host figures:");
    let mut table = metrics.clone();
    table.extend(SIM_TIME.iter().zip(&first.sim).map(|((n, u), v)| (n.to_string(), *v, *u)));
    print_table(&table);
    // One pass's counts: every pass of the seed agreed on them, while
    // the number of passes depends on the host's speed.
    println!("{}", json_line(first.violations == 0, first.attempted, first.failed, &metrics));
    ExitCode::SUCCESS
}
