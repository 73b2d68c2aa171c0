//! Seeded input generators. Every input is fixed in simulated time before
//! a pass starts (open loop), so a slow stack can never make the
//! generator fall behind, and the same seed always yields the same inputs.

use gloss_core::PopulationWorkload;
use gloss_event::{Event, Filter, Op};
use gloss_knowledge::{Fact, FactSource, InMemoryFacts, Term};
use gloss_sim::{GeoPoint, NodeIndex, SimDuration, SimRng, SimTime};

/// One sensed event, injected at `node` at simulated time `at`.
#[derive(Debug, Clone)]
pub struct Sensed {
    pub at: SimTime,
    pub node: NodeIndex,
    pub event: Event,
}

/// A harness action taken at a fixed simulated time (knowledge churn).
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Flip `user`'s nationality at the authority and ship the delta
    /// from `via`; `pick` chooses the new nationality.
    Write { user: usize, via: NodeIndex, pick: usize },
    /// Every node pulls the subject's latest delta batch.
    Pull { user: usize },
}

/// The nationalities a churn write flips between (those the population
/// generator seeds).
pub const NATIONALITIES: [&str; 4] = ["scottish", "australian", "brazilian", "german"];

/// The population generator's subject name for user `u`.
pub fn user_name(u: usize) -> String {
    format!("user{u}")
}

/// The paper's population shape (Figure 1): users on a random walk
/// around St Andrews reporting locations, street thermometers, and
/// background noise. Mirrors [`PopulationWorkload::inject`], except that
/// user and street report phases are spread evenly over their periods
/// rather than drawn at random (so every simulated second carries a
/// like share of the load whatever the seed), and returns the inputs so layer replays can feed the very same events.
pub fn population(seed: u64, base: SimTime, nodes: usize, w: &PopulationWorkload) -> Vec<Sensed> {
    let mut rng = SimRng::new(seed).fork("ledger-population");
    let n = nodes as u64;
    let end = base + w.duration;
    let mut out = Vec::new();
    let centre = GeoPoint::new(56.3404, -2.7955);
    for u in 0..w.users {
        let name = user_name(u);
        // Start points are stratified over the town (a golden-ratio
        // sequence plus a small seeded jitter) so how many users walk
        // near a shop, and with it the join's work, hardly depends on
        // the seed; the walks themselves are seeded.
        let (x, y) = ((u as f64 * 0.618_033_988_75).fract(), (u as f64 + 0.5) / w.users as f64);
        let mut pos = GeoPoint::new(
            centre.lat + 0.06 * (y - 0.5) + rng.float_range(-0.001, 0.001),
            centre.lon + 0.10 * (x - 0.5) + rng.float_range(-0.002, 0.002),
        );
        let node = NodeIndex(rng.range(0, n) as u32);
        let mut t = base + w.report_every.mul_f64(u as f64 / w.users as f64);
        while t < end {
            pos = GeoPoint::new(
                pos.lat + rng.float_range(-0.0006, 0.0006),
                pos.lon + rng.float_range(-0.001, 0.001),
            );
            let event = Event::new("user.location")
                .with_attr("user", name.as_str())
                .with_attr("lat", pos.lat)
                .with_attr("lon", pos.lon)
                .with_attr("on_foot", true);
            out.push(Sensed { at: t, node, event });
            t += w.report_every;
        }
    }
    for (i, street) in ["South Street", "Market Street", "North Street"].iter().enumerate() {
        let node = NodeIndex((i as u32 + 1) % nodes as u32);
        let mut t = base + w.weather_every.mul_f64(i as f64 / 3.0);
        while t < end {
            let celsius = 12.0 + rng.float_range(0.0, 7.0);
            let event = Event::new("weather.reading")
                .with_attr("street", *street)
                .with_attr("celsius", celsius);
            out.push(Sensed { at: t, node, event });
            t += w.weather_every;
        }
    }
    let noise = (w.noise_rate * w.duration.as_secs_f64()) as usize;
    for _ in 0..noise {
        let node = NodeIndex(rng.range(0, n) as u32);
        let at = base + SimDuration::from_secs_f64(rng.float_range(0.0, w.duration.as_secs_f64()));
        let event = Event::new("telemetry.noise").with_attr("v", rng.range(0, 1_000) as i64);
        out.push(Sensed { at, node, event });
    }
    out
}

/// The paper's §1.1 sequence (as in `IceCreamScenario::play_events`):
/// warm weather, Bob on foot near Janetta's, then Anna nearby at +70 s.
pub fn bob_and_anna(base: SimTime) -> Vec<Sensed> {
    vec![
        Sensed {
            at: base + SimDuration::from_secs(10),
            node: NodeIndex(4),
            event: Event::new("weather.reading")
                .with_attr("street", "South Street")
                .with_attr("celsius", 20.0),
        },
        Sensed {
            at: base + SimDuration::from_secs(40),
            node: NodeIndex(5),
            event: Event::new("user.location")
                .with_attr("user", "bob")
                .with_attr("lat", 56.3417)
                .with_attr("lon", -2.7956)
                .with_attr("on_foot", true),
        },
        Sensed {
            at: base + SimDuration::from_secs(ANNA_AT_S),
            node: NodeIndex(6),
            event: Event::new("user.location")
                .with_attr("user", "anna")
                .with_attr("lat", 56.3397)
                .with_attr("lon", -2.80753)
                .with_attr("on_foot", true),
        },
    ]
}

/// Seconds after the pass base at which Anna's enabling event fires.
pub const ANNA_AT_S: u64 = 70;

/// The event kinds of the sensor fan-out workload.
pub const FANOUT_KINDS: [&str; 4] =
    ["sensor.temp", "sensor.humidity", "sensor.light", "sensor.sound"];

/// Four UI filters per node, each a numeric threshold over one of the
/// four kinds (drawn independently, so some nodes hold two overlapping
/// filters on one kind). Part of the stack, not of the inputs: the seed
/// is fixed by the caller.
pub fn fanout_filters(seed: u64, nodes: usize) -> Vec<Vec<Filter>> {
    let mut rng = SimRng::new(seed).fork("ledger-fanout-filters");
    (0..nodes)
        .map(|_| {
            (0..4)
                .map(|_| {
                    let kind = FANOUT_KINDS[rng.index(FANOUT_KINDS.len())];
                    let op = if rng.chance(0.5) { Op::Gt } else { Op::Lt };
                    let threshold = rng.range(5, 96) as f64;
                    Filter::for_kind(kind).with_constraint("value", op, threshold)
                })
                .collect()
        })
        .collect()
}

/// `rate` sensor readings per second for `duration`, each at a random
/// node, of a random kind, carrying a unique `seq` so deliveries can be
/// matched to inputs by content.
pub fn fanout_events(
    seed: u64,
    base: SimTime,
    nodes: usize,
    rate: f64,
    duration: SimDuration,
) -> Vec<Sensed> {
    let mut rng = SimRng::new(seed).fork("ledger-fanout-events");
    let count = (rate * duration.as_secs_f64()) as usize;
    let mut out: Vec<Sensed> = (0..count)
        .map(|i| {
            // Evenly spread slots with jitter inside each slot.
            let slot = duration.as_secs_f64() / count as f64;
            let at = base + SimDuration::from_secs_f64(slot * (i as f64 + rng.unit()));
            let kind = FANOUT_KINDS[rng.index(FANOUT_KINDS.len())];
            let event = Event::new(kind)
                .with_attr("seq", i as i64)
                .with_attr("value", rng.float_range(0.0, 100.0));
            Sensed { at, node: NodeIndex(rng.index(nodes) as u32), event }
        })
        .collect();
    out.sort_by_key(|s| s.at);
    out
}

/// Knowledge churn: `rate` nationality flips per second for `duration`
/// over `users` subjects, each followed 5 s later by a pull everywhere.
pub fn churn_actions(
    seed: u64,
    base: SimTime,
    nodes: usize,
    users: usize,
    rate: f64,
    duration: SimDuration,
) -> Vec<(SimTime, Action)> {
    let mut rng = SimRng::new(seed).fork("ledger-churn");
    let count = (rate * duration.as_secs_f64()) as usize;
    let mut out = Vec::with_capacity(count * 2);
    for i in 0..count {
        let at = base + SimDuration::from_secs_f64(i as f64 / rate);
        let user = rng.index(users);
        let via = NodeIndex(rng.index(nodes) as u32);
        let pick = rng.index(NATIONALITIES.len());
        out.push((at, Action::Write { user, via, pick }));
        out.push((at + PULL_DELAY, Action::Pull { user }));
    }
    // Stable: a write and a pull at one instant keep generation order.
    out.sort_by_key(|(at, _)| *at);
    out
}

/// How long after a write every node pulls the subject's delta batch.
pub const PULL_DELAY: SimDuration = SimDuration::from_secs(5);

/// Flips `user`'s nationality in `kb` to `pick`, or to the next one when
/// `pick` is already current, so every write changes the subject.
pub fn flip_nationality(kb: &mut InMemoryFacts, user: usize, pick: usize) {
    let subject = user_name(user);
    let current = kb
        .query(Some(&subject), Some("nationality"))
        .find_map(|f| f.object.as_str().map(str::to_string));
    if let Some(cur) = &current {
        kb.retract(&subject, "nationality", &Term::str(cur.as_str()));
    }
    let mut new = NATIONALITIES[pick % NATIONALITIES.len()];
    if Some(new) == current.as_deref() {
        new = NATIONALITIES[(pick + 1) % NATIONALITIES.len()];
    }
    kb.add(Fact::new(&subject, "nationality", Term::str(new)));
}

/// One storage-storm lookup: `reader` asks for document `doc` at `at`.
#[derive(Debug, Clone, Copy)]
pub struct Lookup {
    pub at: SimTime,
    pub reader: NodeIndex,
    pub doc: usize,
}

/// `rate` lookups per second for `duration` from random surviving
/// readers for random documents.
pub fn storm_lookups(
    seed: u64,
    base: SimTime,
    readers: &[NodeIndex],
    docs: usize,
    rate: f64,
    duration: SimDuration,
) -> Vec<Lookup> {
    let mut rng = SimRng::new(seed).fork("ledger-storm-lookups");
    let count = (rate * duration.as_secs_f64()) as usize;
    let slot = duration.as_secs_f64() / count as f64;
    (0..count)
        .map(|i| Lookup {
            at: base + SimDuration::from_secs_f64(slot * (i as f64 + rng.unit())),
            reader: readers[rng.index(readers.len())],
            doc: rng.index(docs),
        })
        .collect()
}
