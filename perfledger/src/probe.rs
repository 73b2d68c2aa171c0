//! The host-speed probe that end-to-end wall times are divided by.
//!
//! The benchmark runs on a few cores of a shared host. As other tenants
//! come and go, one pass of a fixed seed takes anywhere from its fastest
//! time to 1.7 times that, in regimes that last from seconds to minutes;
//! the process is on the CPU all the while (CPU time equals wall time,
//! steal time is negligible), so the core itself runs slower. Longer
//! runs cannot average that out when a regime outlasts a run.
//!
//! The probe times a fixed reference kernel on the pass's own thread,
//! between the measured sim-second slices, so it sees the host as the
//! workload saw it a moment before. The kernel uses nothing from the
//! gloss crates: a change to the stack cannot change its work. It is a
//! small message-handling loop of the kind the stack is made of (string
//! formatting, a sort, a hash map and a B-tree behind dynamic dispatch).
//! Each sample runs the kernel once untimed, so the timed run finds its
//! own data in cache whatever the workload left there, then once timed.
//!
//! A pass's host factor is its median sample over [`NOMINAL_STEP_S`]: 1
//! on a host as fast as the one the constant was taken on, 1.5 on one
//! half again as slow. Dividing wall times by it gives seconds on that
//! reference host. Over 25 to 30 back-to-back passes of one seed, the
//! interquartile range of measured time over its median fell from
//! 10–44% to 3–9% this way on `sensor_fanout` and `context_churn`.
//! `figure1` slows less than the kernel does (by about 0.6 of it), so
//! the division over-corrects it a little and it gains less.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The timed kernel step's typical median on a 2-vCPU container of the
/// development host.
pub const NOMINAL_STEP_S: f64 = 200e-6;
/// Workload wall time between two samples.
const SAMPLE_EVERY_S: f64 = 0.010;
/// Samples a slice's own factor is the median of.
const LOCAL_SAMPLES: usize = 15;
/// Samples taken right after set-up, so a set-up-only pass has a factor.
const SETUP_SAMPLES: usize = 8;
/// Messages per kernel step, and the key space they address.
const MESSAGES: usize = 600;
const KEYS: u64 = 4096;

enum Msg {
    Put(u64, String),
    Get(u64),
    Del(u64),
    Scan(u64, u64),
    Tick,
}

trait Handler {
    fn handle(&mut self, m: &Msg) -> u64;
}

struct Hashed(HashMap<u64, String, BuildHasherDefault<DefaultHasher>>);
struct Ordered(BTreeMap<u64, String>);

impl Handler for Hashed {
    fn handle(&mut self, m: &Msg) -> u64 {
        match m {
            Msg::Put(k, v) => self.0.insert(*k, v.clone()).map_or(1, |_| 2),
            Msg::Get(k) => self.0.get(k).map_or(0, |v| v.len() as u64),
            Msg::Del(k) => self.0.remove(k).map_or(0, |v| v.len() as u64),
            Msg::Scan(k, _) => k & 7,
            Msg::Tick => 3,
        }
    }
}

impl Handler for Ordered {
    fn handle(&mut self, m: &Msg) -> u64 {
        match m {
            Msg::Put(k, v) => self.0.insert(*k, v.clone()).map_or(1, |_| 2),
            Msg::Get(k) => self.0.get(k).map_or(0, |v| v.len() as u64),
            Msg::Del(k) => self.0.remove(k).map_or(0, |v| v.len() as u64),
            Msg::Scan(k, n) => self.0.range(*k..*k + *n).map(|(_, v)| v.len() as u64).sum(),
            Msg::Tick => 5,
        }
    }
}

/// Samples the host's speed between slices of one pass.
pub struct HostProbe {
    handlers: Vec<Box<dyn Handler>>,
    rng: u64,
    /// Workload time since the last sample.
    since_s: f64,
    /// Slices counted so far.
    slices: usize,
    /// Timed kernel steps: (slice they followed, seconds).
    samples: Vec<(usize, f64)>,
}

impl HostProbe {
    /// A probe whose maps hold their steady-state share of keys (two
    /// puts per delete leave two thirds present), sampled
    /// [`SETUP_SAMPLES`] times.
    pub fn new() -> Self {
        let mut p = HostProbe {
            handlers: vec![
                Box::new(Hashed(HashMap::default())),
                Box::new(Ordered(BTreeMap::new())),
            ],
            rng: 0x1234_5678_9ABC_DEF1,
            since_s: 0.0,
            slices: 0,
            samples: Vec::new(),
        };
        for k in (0..KEYS).filter(|k| k % 3 != 0) {
            let put = Msg::Put(k, fact(k, k));
            for h in &mut p.handlers {
                h.handle(&put);
            }
        }
        for _ in 0..SETUP_SAMPLES {
            p.sample();
        }
        p
    }

    /// Counts `took_s` of workload time, sampling once per
    /// [`SAMPLE_EVERY_S`] of it.
    pub fn after(&mut self, took_s: f64) {
        self.slices += 1;
        self.since_s += took_s;
        if self.since_s >= SAMPLE_EVERY_S {
            self.since_s = 0.0;
            self.sample();
        }
    }

    fn sample(&mut self) {
        black_box(self.step());
        let t = Instant::now();
        black_box(self.step());
        self.samples.push((self.slices.saturating_sub(1), t.elapsed().as_secs_f64()));
    }

    /// The pass's host factor: its median sample over [`NOMINAL_STEP_S`].
    pub fn factor(&self) -> f64 {
        let all: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        crate::quantile(&all, 0.5) / NOMINAL_STEP_S
    }

    /// Each of the first `n` slices' own host factor: the median of the
    /// [`LOCAL_SAMPLES`] samples taken nearest to it.
    pub fn slice_factors(&self, n: usize) -> Vec<f64> {
        let k = LOCAL_SAMPLES.min(self.samples.len());
        (0..n)
            .map(|i| {
                let at = self.samples.partition_point(|s| s.0 < i);
                let from = at.saturating_sub(k / 2).min(self.samples.len() - k);
                let near: Vec<f64> = self.samples[from..from + k].iter().map(|s| s.1).collect();
                crate::quantile(&near, 0.5) / NOMINAL_STEP_S
            })
            .collect()
    }

    fn next(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }

    /// One kernel step: build a batch of messages, sort the payloads,
    /// and hand every message to both stores.
    fn step(&mut self) -> u64 {
        let msgs: Vec<Msg> = (0..MESSAGES)
            .map(|_| {
                let r = self.next();
                let k = (r >> 8) % KEYS;
                match r % 7 {
                    0 | 1 => Msg::Put(k, fact(k, r % 1000)),
                    2 | 3 => Msg::Get(k),
                    4 => Msg::Del(k),
                    5 => Msg::Scan(k, r % 32),
                    _ => Msg::Tick,
                }
            })
            .collect();
        let mut payloads: Vec<&String> = msgs
            .iter()
            .filter_map(|m| if let Msg::Put(_, v) = m { Some(v) } else { None })
            .collect();
        payloads.sort();
        let mut acc: u64 =
            payloads.iter().map(|v| v.bytes().filter(|b| *b == b'"').count() as u64).sum();
        for m in &msgs {
            for h in &mut self.handlers {
                acc = acc.wrapping_add(h.handle(m));
            }
        }
        acc
    }
}

fn fact(subject: u64, object: u64) -> String {
    format!("<fact s=\"u{subject}\" p=\"likes\" o=\"{object}\"/>")
}
