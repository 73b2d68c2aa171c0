//! The `storage_storm` workload: a large `StoreNetwork` serving a
//! lookup stream while two regions crash and the repair pipeline
//! restores redundancy.

use crate::gen::{self, Lookup};
use crate::probe::HostProbe;
use crate::{MetricsMark, Outcome, Scale};
use gloss_sim::{NodeIndex, SimDuration, SimTime};
use gloss_store::{Document, Priority, StoreConfig, StoreMsg, StoreNetwork};
use std::time::Instant;

const STACK_SEED: u64 = 512;
/// The regions that crash together, and when (after the pass base).
const CRASHED_REGIONS: [&str; 2] = ["us-east", "australia"];
const CRASH_AT_S: u64 = 60;
/// Lookup request ids live far above `StoreNetwork`'s own counter.
const REQ_BASE: u64 = 1 << 40;
/// Redundancy is polled this often after the crash, until the drain ends.
const POLL_EVERY_S: u64 = 10;

pub struct StormRun {
    pub net: StoreNetwork,
    pub base: SimTime,
    pub docs: Vec<Document>,
    pub lookups: Vec<Lookup>,
    pub flow: SimDuration,
    pub drain: SimDuration,
    /// Replica target per document (by priority, from a surviving node).
    targets: Vec<usize>,
    /// Sim seconds from the crash until every document met its target.
    pub ttr_s: Option<f64>,
    /// Metrics when the measured phase started.
    pub start: MetricsMark,
}

impl StormRun {
    pub fn setup(seed: u64, scale: Scale) -> StormRun {
        let tiny = scale == Scale::Tiny;
        let (nodes, ndocs, rate, flow) =
            if tiny { (48, 60, 5.0, 120) } else { (512, 1000, 50.0, 300) };
        // Low-priority documents keep a full replica set (no tier cut), so
        // their copies span three regions and a two-region crash loses no
        // data; the tiers still order repair and eviction.
        let cfg = StoreConfig { tier_low_cut: 0, ..Default::default() };
        let mut net = StoreNetwork::build(nodes, cfg, STACK_SEED);
        net.settle();
        let docs: Vec<Document> = (0..ndocs)
            .map(|i| {
                let priority = match i % 3 {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Low,
                };
                Document::new(format!("storm-doc-{i}"), content(i as u64)).with_priority(priority)
            })
            .collect();
        for (i, d) in docs.iter().enumerate() {
            net.insert(NodeIndex((i * 7 % nodes) as u32), d.clone());
        }
        net.run_for(SimDuration::from_secs(60));
        let base = net.now();
        let crash_at = base + SimDuration::from_secs(CRASH_AT_S);
        let mut survivors = Vec::new();
        for i in 0..nodes as u32 {
            let node = NodeIndex(i);
            let region = net.world().topology().node(node).region.clone();
            if CRASHED_REGIONS.contains(&region.as_str()) {
                net.world_mut().crash_at(crash_at, node);
            } else {
                survivors.push(node);
            }
        }
        let targets = docs
            .iter()
            .map(|d| net.world().node(survivors[0]).store.target_replicas(d.priority))
            .collect();
        let flow = SimDuration::from_secs(flow);
        let lookups = gen::storm_lookups(seed, base, &survivors, docs.len(), rate, flow);
        for (i, l) in lookups.iter().enumerate() {
            let msg = StoreMsg::LocalLookup { guid: docs[l.doc].guid, req_id: REQ_BASE + i as u64 };
            net.world_mut().inject_at(l.at, l.reader, l.reader, msg);
        }
        let start = MetricsMark::of(net.world().metrics());
        StormRun {
            net,
            base,
            docs,
            lookups,
            flow,
            drain: SimDuration::from_secs(60),
            targets,
            ttr_s: None,
            start,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.lookups.len() as u64
    }

    /// The measured phase, timed per simulated second while lookups
    /// flow. Redundancy polls after the crash are the benchmark's own
    /// work and are left out of the timings.
    pub fn drive(&mut self, slices: &mut Vec<f64>, probe: &mut HostProbe) -> f64 {
        let mut measured = 0.0;
        let total = (self.flow + self.drain).as_micros() / 1_000_000;
        let flow = self.flow.as_micros() / 1_000_000;
        for s in 0..total {
            let slice = Instant::now();
            self.net.world_mut().run_until(self.base + SimDuration::from_secs(s + 1));
            let took = slice.elapsed().as_secs_f64();
            measured += took;
            probe.after(took);
            if s < flow {
                slices.push(took * 1e3);
            }
            let since_crash = (s + 1).saturating_sub(CRASH_AT_S);
            let poll = since_crash > 0 && since_crash % POLL_EVERY_S == 0;
            if self.ttr_s.is_none() && poll && self.restored() {
                self.ttr_s = Some(since_crash as f64);
            }
        }
        measured
    }

    /// Every lookup concludes with the inserted bytes. Wrong bytes are a
    /// safety violation; a lookup that never concludes, or concludes
    /// empty, failed.
    pub fn check(&mut self) -> Outcome {
        let mut o = Outcome::new(self.attempted());
        let under = self
            .docs
            .iter()
            .zip(&self.targets)
            .filter(|(d, t)| self.net.replica_count(d.guid) < **t);
        o.under_replicated = under.count() as u64;
        let mut wrong = 0;
        for (i, l) in self.lookups.iter().enumerate() {
            let outcome =
                self.net.world().node(l.reader).store.outcomes.get(&(REQ_BASE + i as u64));
            match outcome.and_then(|r| r.doc.as_ref().map(|d| (d, r.latency))) {
                Some((doc, latency)) if doc.content == self.docs[l.doc].content => {
                    o.lookup_ms.push(latency.as_secs_f64() * 1e3);
                }
                Some(_) => wrong += 1,
                None => o.failed += 1,
            }
        }
        o.check(
            "every lookup concludes with the inserted bytes",
            o.failed + wrong,
            self.attempted(),
        );
        o.check("no lookup returns other bytes", wrong, 0);
        o.check(
            "every document regains its replica target after the crash",
            o.under_replicated,
            self.docs.len() as u64,
        );
        o.violations += wrong;
        o.failed += wrong;
        o.ttr_s = self.ttr_s;
        o
    }

    /// Whether every document is back at its replica target.
    fn restored(&self) -> bool {
        self.docs.iter().zip(&self.targets).all(|(d, t)| self.net.replica_count(d.guid) >= *t)
    }
}

/// Deterministic 256-byte document bodies.
fn content(seed: u64) -> Vec<u8> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..256)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s & 0xff) as u8
        })
        .collect()
}
