//! The traced run: one pass of a workload through the live stack, then a
//! replay of the same generated inputs, in simulated-time order, through
//! each layer's public entry points on state cloned out of the stack
//! after set-up. Every replayed call is one span; layer busy time and
//! per-call latencies come from the spans, work counts from the stack's
//! public state after the pass.

use crate::gen::{self, Action};
use crate::probe::HostProbe;
use crate::stack::{Kind, StackRun};
use crate::{quantile, spawn_pass, Metrics, Outcome, Run, Scale};
use gloss_core::scenario::ICE_CREAM_RULES;
use gloss_event::{Broker, BrokerMsg, Event, EventId};
use gloss_knowledge::{
    reconcile, DeltaAction, DeltaBatch, DistributedKnowledge, Fact, FactDelta, FactSource,
    InMemoryFacts, KnowledgeAuthority, Shipment,
};
use gloss_matchlet::MatchletEngine;
use gloss_sim::{NodeIndex, Outbox, SimTime};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::Write as _;
use std::time::Instant;

/// The layers a replay attributes time to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    Event,
    Matchlet,
    Knowledge,
    Xml,
}

const LAYERS: [Layer; 4] = [Layer::Event, Layer::Matchlet, Layer::Knowledge, Layer::Xml];

impl Layer {
    fn name(self) -> &'static str {
        match self {
            Layer::Event => "event",
            Layer::Matchlet => "matchlet",
            Layer::Knowledge => "knowledge",
            Layer::Xml => "xml",
        }
    }
}

/// One replayed call: which entry point, when, and the generated
/// operation (input index) it served.
#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    call: &'static str,
    start_ns: u64,
    end_ns: u64,
    op: u32,
}

/// Spans kept in memory for the whole replay.
struct Spans {
    epoch: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans { epoch: Instant::now(), list: Vec::new() }
    }

    fn time<R>(&mut self, layer: Layer, call: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let start = self.epoch.elapsed().as_nanos() as u64;
        let r = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.list.push(Span { layer, call, start_ns: start, end_ns, op });
        r
    }

    fn busy_s(&self, layer: Layer) -> f64 {
        let ns: u64 =
            self.list.iter().filter(|s| s.layer == layer).map(|s| s.end_ns - s.start_ns).sum();
        ns as f64 / 1e9
    }

    /// Per-operation time in one layer (µs), one sample per operation.
    fn per_op_us(&self, layer: Layer) -> Vec<f64> {
        let mut per: BTreeMap<u32, u64> = BTreeMap::new();
        for s in self.list.iter().filter(|s| s.layer == layer) {
            *per.entry(s.op).or_default() += s.end_ns - s.start_ns;
        }
        per.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// Per-call time in one layer (µs).
    fn per_call_us(&self, layer: Layer, call: &str) -> Vec<f64> {
        self.list
            .iter()
            .filter(|s| s.layer == layer && s.call == call)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "layer\tcall\tstart_ns\tend_ns\top")?;
        for s in &self.list {
            writeln!(f, "{}\t{}\t{}\t{}\t{}", s.layer.name(), s.call, s.start_ns, s.end_ns, s.op)?;
        }
        f.flush()
    }
}

/// Layer state cloned out of a set-up stack.
struct Cloned {
    engines: Vec<MatchletEngine>,
    kbs: Vec<InMemoryFacts>,
    brokers: Vec<Broker>,
    /// Authority facts per written user, as held before the pass.
    authority: BTreeMap<usize, Vec<Fact>>,
}

fn clone_layers(run: &mut StackRun) -> Cloned {
    let n = run.arch.len();
    let mut engines = Vec::with_capacity(n);
    let mut kbs = Vec::with_capacity(n);
    let mut brokers = Vec::with_capacity(n);
    for i in 0..n {
        let node = run.arch.node(NodeIndex(i as u32));
        engines.push(node.server.engine().clone());
        let mut kb = InMemoryFacts::new();
        kb.extend(node.kb.query(None, None).cloned());
        kbs.push(kb);
        brokers.push(node.broker.clone());
    }
    let mut authority = BTreeMap::new();
    for (_, a) in &run.actions {
        if let Action::Write { user, .. } = a {
            authority.entry(*user).or_insert_with(Vec::new);
        }
    }
    for (user, facts) in authority.iter_mut() {
        let subject = gen::user_name(*user);
        *facts = run.arch.knowledge_mut(&subject).query(None, None).cloned().collect();
    }
    Cloned { engines, kbs, brokers, authority }
}

/// What the layer replay produced besides its spans.
#[derive(Default)]
struct ReplayCounts {
    writes: u64,
    xml_bytes: u64,
    write_bytes: u64,
}

/// Replays the pass's inputs through broker, matchlet and knowledge
/// entry points in simulated-time order.
fn replay_layers(run: &StackRun, mut c: Cloned, spans: &mut Spans) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    let mut seq = 0u64;
    // Knowledge replay state: authority stores, each node's anchor, and
    // the latest shipped text per subject.
    let mut authority = KnowledgeAuthority::new();
    let mut anchors: BTreeMap<usize, (u64, u64)> = BTreeMap::new();
    for (user, facts) in &c.authority {
        let subject = gen::user_name(*user);
        authority.facts_mut(&subject).extend(facts.iter().cloned());
        if let Some(Shipment::Snapshot { source, epoch, .. }) = authority.snapshot(&subject) {
            anchors.insert(*user, (source, epoch));
        }
    }
    let nodes = c.engines.len();
    let mut tracked: Vec<BTreeMap<usize, (u64, u64)>> = vec![anchors; nodes];
    let mut shipped: BTreeMap<usize, String> = BTreeMap::new();

    // Merge sensed inputs and harness actions by time (inputs first at
    // a tie, as the stack schedules them before the pass starts).
    let (mut i, mut a) = (0usize, 0usize);
    while i < run.inputs.len() || a < run.actions.len() {
        let take_input = match (run.inputs.get(i), run.actions.get(a)) {
            (Some(s), Some((at, _))) => s.at <= *at,
            (Some(_), None) => true,
            _ => false,
        };
        let op = (i + a) as u32;
        if take_input {
            let s = &run.inputs[i];
            i += 1;
            publish(&mut c, s.at, s.node, s.event.clone(), &mut seq, op, spans);
            continue;
        }
        let action = &run.actions[a].1;
        a += 1;
        match *action {
            Action::Write { user, pick, .. } => {
                counts.writes += 1;
                let subject = gen::user_name(user);
                let shipment = spans.time(Layer::Knowledge, "flush", op, || {
                    gen::flip_nationality(authority.facts_mut(&subject), user, pick);
                    authority.flush(&subject)
                });
                let Some(shipment) = shipment else { continue };
                let text = spans.time(Layer::Xml, "to_xml", op, || match &shipment {
                    Shipment::Delta(batch) => batch.to_xml().to_xml(),
                    Shipment::Snapshot { source, epoch, facts } => {
                        let refs: Vec<&Fact> = facts.iter().collect();
                        DistributedKnowledge::facts_to_xml_versioned(
                            &subject, &refs, *source, *epoch,
                        )
                        .to_xml()
                    }
                });
                counts.xml_bytes += text.len() as u64;
                counts.write_bytes += text.len() as u64;
                shipped.insert(user, text);
            }
            Action::Pull { user } => {
                let Some(text) = shipped.get(&user) else { continue };
                let subject = gen::user_name(user);
                for (kb, held) in c.kbs.iter_mut().zip(&mut tracked) {
                    counts.xml_bytes += text.len() as u64;
                    let el = spans.time(Layer::Xml, "parse", op, || gloss_xml::parse(text));
                    let Ok(el) = el else { continue };
                    let batch =
                        spans.time(Layer::Xml, "from_xml", op, || DeltaBatch::from_xml(&el));
                    let Some(batch) = batch else {
                        // A snapshot shipment: rebuild the subject.
                        ingest_snapshot(kb, &subject, &el, spans, op);
                        if let Some(v) = DistributedKnowledge::snapshot_version(&el) {
                            held.insert(user, v);
                        }
                        continue;
                    };
                    let verdict = spans.time(Layer::Knowledge, "reconcile", op, || {
                        reconcile(held.get(&user).copied(), &batch)
                    });
                    match verdict {
                        DeltaAction::Apply { skip } => {
                            spans.time(Layer::Knowledge, "apply", op, || {
                                for d in &batch.deltas[skip..] {
                                    match d {
                                        FactDelta::Insert(f) => kb.add(f.clone()),
                                        FactDelta::Retract(f) => {
                                            kb.retract(&f.subject, &f.predicate, &f.object);
                                        }
                                    }
                                }
                            });
                            held.insert(user, (batch.source, batch.to));
                        }
                        DeltaAction::Stale => {}
                        DeltaAction::Snapshot(_) => {
                            // The pull missed a batch: ingest the
                            // authority's current state as a snapshot.
                            let Some(store) = authority.facts(&subject) else { continue };
                            let v = store.version().expect("in-memory stores are versioned");
                            let facts: Vec<&Fact> = store.query(None, None).collect();
                            let snap = spans.time(Layer::Xml, "to_xml", op, || {
                                DistributedKnowledge::facts_to_xml_versioned(
                                    &subject, &facts, v.source, v.epoch,
                                )
                                .to_xml()
                            });
                            counts.xml_bytes += 2 * snap.len() as u64;
                            let el =
                                spans.time(Layer::Xml, "parse", op, || gloss_xml::parse(&snap));
                            let Ok(el) = el else { continue };
                            ingest_snapshot(kb, &subject, &el, spans, op);
                            held.insert(user, (v.source, v.epoch));
                        }
                    }
                }
            }
        }
    }
    counts
}

/// Replaces a replica's facts about `subject` with a parsed snapshot.
fn ingest_snapshot(
    kb: &mut InMemoryFacts,
    subject: &str,
    el: &gloss_xml::Element,
    spans: &mut Spans,
    op: u32,
) {
    let facts = spans.time(Layer::Xml, "from_xml", op, || DistributedKnowledge::facts_from_xml(el));
    spans.time(Layer::Knowledge, "apply", op, || {
        kb.remove_subject(subject);
        kb.extend(facts);
    });
}

/// Publishes `event` at `origin` through the cloned brokers (one span
/// per `Broker::handle`), offering every client delivery — and the
/// origin's local copy — to that node's cloned engine (one span per
/// `MatchletEngine::on_event`). Synthesised events are published back,
/// as the stack does.
fn publish(
    c: &mut Cloned,
    at: SimTime,
    origin: NodeIndex,
    event: Event,
    seq: &mut u64,
    op: u32,
    spans: &mut Spans,
) {
    let mut pending = VecDeque::from([(origin, event, true)]);
    while let Some((node, mut event, local)) = pending.pop_front() {
        let mut delivered = Vec::new();
        if local {
            // The sensing (or synthesising) node's own client sees the
            // event first, then it enters the bus.
            delivered.push(node);
            *seq += 1;
            event.stamp(EventId { origin: node, seq: *seq }, at);
            let mut queue = VecDeque::from([(node, node, BrokerMsg::Publish(event.clone()))]);
            while let Some((to, from, msg)) = queue.pop_front() {
                let broker = &mut c.brokers[to.as_usize()];
                let mut out = Outbox::new();
                spans.time(Layer::Event, "handle", op, || broker.handle(at, from, msg, &mut out));
                for (dest, m, _) in out.take_sends() {
                    if dest == to {
                        delivered.push(to);
                    } else {
                        queue.push_back((dest, to, m));
                    }
                }
            }
        }
        for n in delivered {
            let engine = &mut c.engines[n.as_usize()];
            let kb = &c.kbs[n.as_usize()];
            let outputs =
                spans.time(Layer::Matchlet, "on_event", op, || engine.on_event(at, &event, kb));
            for out in outputs {
                pending.push_back((n, out, true));
            }
        }
    }
}

/// The reference oracle: one engine holding the union knowledge base
/// replays every input. Returns the events it synthesises.
fn oracle(run: &StackRun, union: &InMemoryFacts) -> Vec<Event> {
    let mut engine = MatchletEngine::compile(ICE_CREAM_RULES).expect("scenario rules compile");
    let mut out = Vec::new();
    for (i, s) in run.inputs.iter().enumerate() {
        let mut e = s.event.clone();
        e.stamp(EventId { origin: s.node, seq: i as u64 + 1 }, s.at);
        out.extend(engine.on_event(s.at, &e, union));
    }
    out
}

fn union_kb(c: &Cloned) -> InMemoryFacts {
    let mut seen = BTreeSet::new();
    let mut union = InMemoryFacts::new();
    for kb in &c.kbs {
        for f in kb.query(None, None) {
            if seen.insert(format!("{f:?}")) {
                union.add(f.clone());
            }
        }
    }
    union
}

/// The traced run's result.
pub struct Traced {
    pub outcome: Outcome,
    pub metrics: Metrics,
    pub dominant: String,
}

/// Where a traced run of `workload` writes its spans (overwritten by
/// the next traced run of the same workload).
pub fn spans_path(workload: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("spans").join(format!("{workload}.tsv"))
}

/// One traced pass of `workload` plus its layer replays; the spans are
/// written to [`spans_path`].
pub fn traced(workload: &str, seed: u64, scale: Scale) -> Result<Traced, String> {
    let mut run = Run::setup(workload, seed, scale);
    run.set_threads(1);
    let cloned = match &mut run {
        Run::Stack(r) => Some(clone_layers(r)),
        Run::Storm(_) => None,
    };
    let mut slices = Vec::new();
    let measured_s = run.drive(&mut slices, &mut HostProbe::new());
    let outcome = run.check();

    let mut spans = Spans::new();
    let mut counts = ReplayCounts::default();
    let mut oracle_out = 0u64;
    let mut engine_stats = (0u64, 0u64, 0u64, 0u64);
    let mut subscriptions = 0u64;
    if let (Run::Stack(r), Some(c)) = (&run, cloned) {
        if r.kind == Kind::Figure1 {
            oracle_out = oracle(r, &union_kb(&c)).len() as u64;
        }
        counts = replay_layers(r, c, &mut spans);
        for i in 0..r.arch.len() {
            let node = r.arch.node(NodeIndex(i as u32));
            let st = node.server.engine().stats;
            engine_stats.0 += st.events_in;
            engine_stats.1 += st.events_out;
            engine_stats.2 += st.memo_hits;
            engine_stats.3 += st.memo_misses;
            subscriptions += node.broker.subscription_count() as u64;
        }
    }
    let path = spans_path(workload);
    spans.write_tsv(&path).map_err(|e| format!("writing spans to {}: {e}", path.display()))?;

    // The multi-core number: the same pass in fresh processes at one and
    // at two sim threads.
    let speedup_2t = if matches!(workload, "sensor_fanout" | "storage_storm") {
        let one = spawn_pass(workload, seed, scale, 1, false)?.0.measured_s;
        let two = spawn_pass(workload, seed, scale, 2, false)?.0.measured_s;
        one / two
    } else {
        0.0
    };

    let busy: BTreeMap<&str, f64> = LAYERS.iter().map(|l| (l.name(), spans.busy_s(*l))).collect();
    let attributed: f64 = busy.values().sum();
    let unattributed = measured_s - attributed;
    let share = |l: &str| busy[l] / measured_s;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (registry, start) = run.metrics();
    let d = |name: &str| start.delta(registry, name);
    let matchlet_us = spans.per_call_us(Layer::Matchlet, "on_event");
    let publish_us = spans.per_op_us(Layer::Event);
    let hops = start.samples_since(registry, "overlay.hops");
    let (ok, missing, timeouts) =
        (d("store.lookups_ok"), d("store.lookups_missing"), d("store.lookups_timeout"));
    let lookups = ok + missing + timeouts;
    let joins = registry.counter("overlay.joins_completed");
    let (applied, fallbacks) = (d("gloss.kb_delta_applied"), d("gloss.kb_delta_fallback"));
    let writes = counts.writes as f64;
    let xml_busy = busy["xml"];

    let mut m: Metrics = vec![
        ("matchlet.busy_s".into(), busy["matchlet"], "s"),
        ("matchlet.share".into(), share("matchlet"), "ratio"),
        ("matchlet.us_per_event_p50".into(), quantile(&matchlet_us, 0.5), "us"),
        ("matchlet.us_per_event_p99".into(), quantile(&matchlet_us, 0.99), "us"),
        ("matchlet.events_in".into(), engine_stats.0 as f64, "count"),
        ("matchlet.events_out".into(), engine_stats.1 as f64, "count"),
        (
            "matchlet.memo_hit_ratio".into(),
            ratio(engine_stats.2 as f64, (engine_stats.2 + engine_stats.3) as f64),
            "ratio",
        ),
        ("matchlet.oracle_out".into(), oracle_out as f64, "count"),
        ("event.busy_s".into(), busy["event"], "s"),
        ("event.share".into(), share("event"), "ratio"),
        ("event.us_per_publish_p50".into(), quantile(&publish_us, 0.5), "us"),
        ("event.us_per_publish_p99".into(), quantile(&publish_us, 0.99), "us"),
        ("event.deliveries".into(), d("pubsub.delivered_local"), "count"),
        ("event.dup_deliveries".into(), outcome.dup_deliveries as f64, "count"),
        ("event.subscriptions".into(), subscriptions as f64, "count"),
        ("sim.msgs_delivered".into(), d("sim.messages_delivered"), "count"),
        (
            "sim.msgs_per_op".into(),
            ratio(d("sim.messages_delivered"), outcome.attempted as f64),
            "ratio",
        ),
        ("sim.batch_size".into(), ratio(d("sim.batched_messages"), d("sim.batches")), "count"),
        ("sim.speedup_2t".into(), speedup_2t, "ratio"),
        ("knowledge.busy_s".into(), busy["knowledge"], "s"),
        ("knowledge.share".into(), share("knowledge"), "ratio"),
        ("knowledge.us_per_write".into(), ratio(busy["knowledge"] * 1e6, writes), "us"),
        ("knowledge.delta_apply_ratio".into(), ratio(applied, applied + fallbacks), "ratio"),
        ("knowledge.fallbacks".into(), fallbacks, "count"),
        ("knowledge.bytes_per_write".into(), ratio(counts.write_bytes as f64, writes), "B"),
        ("knowledge.stale_replicas".into(), outcome.stale_replicas as f64, "count"),
        ("xml.busy_s".into(), xml_busy, "s"),
        ("xml.share".into(), share("xml"), "ratio"),
        ("xml.bytes".into(), counts.xml_bytes as f64, "B"),
        ("xml.mb_per_s".into(), ratio(counts.xml_bytes as f64 / 1e6, xml_busy), "MB/s"),
        ("store.lookups".into(), lookups, "count"),
        ("store.lookup_ok_ratio".into(), ratio(ok, lookups), "ratio"),
        ("store.retries".into(), d("store.lookups_retried"), "count"),
        ("store.timeouts".into(), timeouts, "count"),
        ("store.dup_replies".into(), d("store.lookups_dup_replies"), "count"),
        ("store.repair_bytes".into(), d("store.repair_bytes"), "B"),
        ("store.repair_deferred".into(), d("store.repair_deferred"), "count"),
        ("store.under_replicated".into(), outcome.under_replicated as f64, "count"),
        ("overlay.hops_p50".into(), quantile(&hops, 0.5), "count"),
        ("overlay.hops_p99".into(), quantile(&hops, 0.99), "count"),
        ("overlay.joins".into(), joins, "count"),
        ("governor.suspected".into(), d("overlay.suspected"), "count"),
        ("governor.evictions".into(), d("overlay.evictions"), "count"),
        ("governor.reroutes".into(), d("overlay.reroutes"), "count"),
        ("core.unattributed_s".into(), unattributed, "s"),
        ("core.dup_suggestions".into(), outcome.dup_suggestions as f64, "count"),
    ];
    m.push(("error_rate".into(), outcome.error_rate(), "ratio"));

    let mut ranked: Vec<(&str, f64)> = busy.iter().map(|(k, v)| (*k, *v)).collect();
    ranked.push(("unattributed (sim scheduler, store, overlay, node glue)", unattributed));
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let dominant = ranked
        .iter()
        .take(2)
        .map(|(k, v)| format!("{k} {:.1}%", 100.0 * v / measured_s))
        .collect::<Vec<_>>()
        .join(", then ");
    Ok(Traced {
        outcome,
        metrics: m,
        dominant: format!("{dominant} of {measured_s:.3} s measured"),
    })
}
