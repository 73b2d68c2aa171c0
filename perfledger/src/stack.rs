//! The three workloads that run the integrated `ActiveArchitecture`:
//! `figure1`, `sensor_fanout` and `context_churn`.

use crate::gen::{self, Action, Sensed};
use crate::probe::HostProbe;
use crate::{MetricsMark, Outcome, Scale};
use gloss_core::{ActiveArchitecture, ArchConfig, IceCreamScenario, PopulationWorkload};
use gloss_event::{Event, Filter};
use gloss_knowledge::FactSource;
use gloss_sim::{NodeIndex, SimDuration, SimTime};
use std::collections::BTreeMap;
use std::time::Instant;

/// Which architecture workload a [`StackRun`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Figure1,
    Fanout,
    Churn,
}

/// Stack seeds are fixed: the system under test is the same in every
/// run, and `--seed` varies only the inputs.
const FIGURE1_STACK_SEED: u64 = 140;
const CHURN_STACK_SEED: u64 = 160;
const FANOUT_STACK_SEED: u64 = 64;
const POPULATION_KB_SEED: u64 = 1;

/// One set-up architecture with its generated inputs, ready to drive.
pub struct StackRun {
    pub kind: Kind,
    pub arch: ActiveArchitecture,
    /// Simulated time the inputs start at.
    pub base: SimTime,
    /// Sensed events, sorted by time.
    pub inputs: Vec<Sensed>,
    /// Knowledge writes and pulls, sorted by time.
    pub actions: Vec<(SimTime, Action)>,
    /// How long inputs flow, and the drain after.
    pub flow: SimDuration,
    pub drain: SimDuration,
    /// The UI filters installed per node (`sensor_fanout`).
    pub filters: Vec<Vec<Filter>>,
    /// Per written user: the authority's facts after each write,
    /// index 0 being the state before the first one.
    history: BTreeMap<usize, Vec<Vec<String>>>,
    /// Per write, in order: (user, history index it produced).
    writes: Vec<(usize, usize)>,
    /// Metrics when the measured phase started.
    pub start: MetricsMark,
}

impl StackRun {
    /// Builds the stack, settles it, and schedules every sensed input.
    pub fn setup(kind: Kind, seed: u64, scale: Scale) -> StackRun {
        let tiny = scale == Scale::Tiny;
        let (arch, base, inputs, actions, filters, flow, drain) = match kind {
            Kind::Figure1 => {
                let users = if tiny { 4 } else { 40 };
                let w = PopulationWorkload {
                    users,
                    duration: SimDuration::from_secs(if tiny { 90 } else { 300 }),
                    noise_rate: if tiny { 0.5 } else { 2.0 },
                    ..Default::default()
                };
                let mut arch = IceCreamScenario::setup(FIGURE1_STACK_SEED).arch;
                w.seed_population_knowledge(&mut arch, POPULATION_KB_SEED);
                arch.run_for(SimDuration::from_secs(30));
                let base = arch.now();
                let mut inputs = gen::population(seed, base, arch.len(), &w);
                inputs.extend(gen::bob_and_anna(base));
                (arch, base, inputs, Vec::new(), Vec::new(), w.duration, secs(100))
            }
            Kind::Churn => {
                let users = if tiny { 4 } else { 20 };
                let duration = SimDuration::from_secs(if tiny { 60 } else { 300 });
                let w = PopulationWorkload {
                    users,
                    duration,
                    report_every: secs(60),
                    noise_rate: 0.0,
                    ..Default::default()
                };
                let mut arch = IceCreamScenario::setup(CHURN_STACK_SEED).arch;
                w.seed_population_knowledge(&mut arch, POPULATION_KB_SEED);
                arch.run_for(SimDuration::from_secs(30));
                // Anchor every replica on every user before churn starts.
                for u in 0..users {
                    arch.prefetch_subject_everywhere(&gen::user_name(u));
                }
                arch.run_for(SimDuration::from_secs(30));
                let base = arch.now();
                let mut inputs = gen::population(seed, base, arch.len(), &w);
                inputs.extend(gen::bob_and_anna(base));
                let rate = if tiny { 1.0 } else { 5.0 };
                let actions = gen::churn_actions(seed, base, arch.len(), users, rate, duration);
                (arch, base, inputs, actions, Vec::new(), duration, secs(60))
            }
            Kind::Fanout => {
                let nodes = if tiny { 8 } else { 64 };
                let mut arch = ActiveArchitecture::build(ArchConfig {
                    nodes,
                    seed: FANOUT_STACK_SEED,
                    ..Default::default()
                });
                arch.settle();
                let filters = gen::fanout_filters(FANOUT_STACK_SEED, nodes);
                for (i, fs) in filters.iter().enumerate() {
                    for f in fs {
                        arch.subscribe_ui(NodeIndex(i as u32), f.clone());
                    }
                }
                arch.run_for(SimDuration::from_secs(10));
                let base = arch.now();
                let duration = SimDuration::from_secs(if tiny { 30 } else { 300 });
                let rate = if tiny { 20.0 } else { 100.0 };
                let inputs = gen::fanout_events(seed, base, nodes, rate, duration);
                (arch, base, inputs, Vec::new(), filters, duration, secs(10))
            }
        };
        let mut run = StackRun {
            kind,
            arch,
            base,
            inputs,
            actions,
            flow,
            drain,
            filters,
            history: BTreeMap::new(),
            writes: Vec::new(),
            start: MetricsMark::default(),
        };
        run.inputs.sort_by_key(|s| s.at);
        for s in &run.inputs {
            run.arch.publish_at(s.at, s.node, s.event.clone());
        }
        let written: Vec<usize> = run
            .actions
            .iter()
            .filter_map(|(_, a)| match a {
                Action::Write { user, .. } => Some(*user),
                Action::Pull { .. } => None,
            })
            .collect();
        for u in written {
            if !run.history.contains_key(&u) {
                let state = run.authority_state(u);
                run.history.insert(u, vec![state]);
            }
        }
        run.start = MetricsMark::of(run.arch.world().metrics());
        run
    }

    /// Operations the pass attempts: sensed events plus knowledge writes.
    pub fn attempted(&self) -> u64 {
        let writes = self.actions.iter().filter(|(_, a)| matches!(a, Action::Write { .. })).count();
        (self.inputs.len() + writes) as u64
    }

    /// Runs the measured phase: inputs flow for `flow`, timed one
    /// simulated second at a time, then the stack drains. Returns the
    /// measured wall seconds; slice times (ms) are appended to `slices`.
    /// `probe` samples the host between slices, outside the timings.
    pub fn drive(&mut self, slices: &mut Vec<f64>, probe: &mut HostProbe) -> f64 {
        let mut measured = 0.0;
        let mut next = 0;
        let flow_secs = self.flow.as_micros().div_ceil(1_000_000);
        for s in 0..flow_secs {
            let slice = Instant::now();
            self.advance(self.base + secs(s + 1), &mut next);
            let took = slice.elapsed().as_secs_f64();
            measured += took;
            slices.push(took * 1e3);
            probe.after(took);
        }
        let drain = Instant::now();
        self.advance(self.base + self.flow + self.drain, &mut next);
        measured + drain.elapsed().as_secs_f64()
    }

    /// Runs to `until`, taking every harness action due before it.
    fn advance(&mut self, until: SimTime, next: &mut usize) {
        while let Some((at, action)) = self.actions.get(*next).cloned() {
            if at >= until {
                break;
            }
            self.arch.run_until(at);
            self.act(&action);
            *next += 1;
        }
        self.arch.run_until(until);
    }

    fn act(&mut self, action: &Action) {
        match *action {
            Action::Write { user, via, pick } => {
                let subject = gen::user_name(user);
                gen::flip_nationality(self.arch.knowledge_mut(&subject), user, pick);
                self.arch.update_knowledge(via, &subject);
                let state = self.authority_state(user);
                let versions = self.history.get_mut(&user).expect("written users have history");
                versions.push(state);
                self.writes.push((user, versions.len() - 1));
            }
            Action::Pull { user } => self.arch.prefetch_deltas_everywhere(&gen::user_name(user)),
        }
    }

    fn authority_state(&mut self, user: usize) -> Vec<String> {
        let subject = gen::user_name(user);
        facts_digest(self.arch.knowledge_mut(&subject), &subject)
    }

    /// Checks the pass's outputs. Safety violations (outputs no correct
    /// run could produce) clear `correct`; operations that did not
    /// complete as specified count as failed.
    pub fn check(&mut self) -> Outcome {
        let mut o = Outcome::new(self.attempted());
        let sensed = self.start.delta(self.arch.world().metrics(), "gloss.sensor_events") as u64;
        let unsensed = (self.inputs.len() as u64).saturating_sub(sensed);
        o.check("every scheduled event is sensed", unsensed, self.inputs.len() as u64);
        o.failed += unsensed;
        match self.kind {
            Kind::Figure1 | Kind::Churn => {
                self.check_suggestion(&mut o);
                if self.kind == Kind::Churn {
                    self.check_replicas(&mut o);
                }
            }
            Kind::Fanout => self.check_fanout(&mut o),
        }
        o.lookup_ms = self.start.samples_since(self.arch.world().metrics(), "store.lookup_ms");
        o
    }

    /// Bob→Anna at Janetta's must reach node 1's UI inside the window,
    /// and every suggestion must name acquainted users and an ice-cream
    /// shop.
    fn check_suggestion(&mut self, o: &mut Outcome) {
        let enabling = self.base + secs(gen::ANNA_AT_S);
        let window_end = enabling + secs(300);
        let suggestions: Vec<Event> = self
            .arch
            .node(NodeIndex(1))
            .ui_received
            .iter()
            .filter(|e| e.kind() == "suggestion")
            .cloned()
            .collect();
        let first = suggestions
            .iter()
            .filter(|e| {
                e.str_attr("user") == Some("bob")
                    && e.str_attr("friend") == Some("anna")
                    && e.str_attr("shop") == Some("Janetta's")
            })
            .map(Event::published_at)
            .min();
        let in_window = first.is_some_and(|t| t >= enabling && t <= window_end);
        o.check("Bob/Anna suggestion reaches node 1 in the window", u64::from(!in_window), 1);
        o.failed += u64::from(!in_window);
        o.suggestion_latency_s = first.map(|t| t.since(enabling).as_secs_f64());
        let mut unsound = 0;
        let mut seen: Vec<(String, String, String, SimTime)> = Vec::new();
        for e in &suggestions {
            let (u, v, shop) = (
                e.str_attr("user").unwrap_or_default().to_string(),
                e.str_attr("friend").unwrap_or_default().to_string(),
                e.str_attr("shop").unwrap_or_default().to_string(),
            );
            let knows = self
                .arch
                .knowledge_mut(&u)
                .query(Some(&u), Some("knows"))
                .any(|f| f.object.as_str() == Some(v.as_str()));
            let sells = self
                .arch
                .knowledge_mut(&shop)
                .query(Some(&shop), Some("sells"))
                .any(|f| f.object.as_str() == Some("ice cream"));
            if !(knows && sells) {
                unsound += 1;
            }
            // The same suggestion again inside the rule's window is a
            // duplicate firing, not new information.
            let at = e.published_at();
            if seen
                .iter()
                .any(|(a, b, c, t)| (a, b, c) == (&u, &v, &shop) && at.since(*t) < secs(300))
            {
                o.dup_suggestions += 1;
            } else {
                seen.push((u, v, shop, at));
            }
        }
        o.check("every suggestion names acquainted users and an ice-cream shop", unsound, 0);
        o.violations += unsound;
    }

    /// Each (event, node) pair a `Filter::matches` oracle over the node's
    /// UI filters expects is delivered exactly once. Deliveries are
    /// matched by the event's `seq` (local copies carry no stamped id).
    fn check_fanout(&mut self, o: &mut Outcome) {
        let nodes = self.filters.len();
        let events = self.inputs.len();
        let mut seq_of = vec![0usize; events];
        for (i, s) in self.inputs.iter().enumerate() {
            seq_of[s.event.num_attr("seq").expect("fan-out events carry seq") as usize] = i;
        }
        let mut got = vec![0u16; events * nodes];
        for n in 0..nodes {
            for e in &self.arch.node(NodeIndex(n as u32)).ui_received {
                if let Some(seq) = e.num_attr("seq") {
                    let c = &mut got[seq_of[seq as usize] * nodes + n];
                    *c = c.saturating_add(1);
                }
            }
        }
        let (mut expected, mut delivered, mut dups, mut missing, mut unexpected) = (0, 0, 0, 0, 0);
        let mut failed_events = 0;
        for (i, s) in self.inputs.iter().enumerate() {
            let mut bad = false;
            for n in 0..nodes {
                let want = self.filters[n].iter().any(|f| f.matches(&s.event));
                let c = u64::from(got[i * nodes + n]);
                delivered += c;
                if want {
                    expected += 1;
                    if c == 0 {
                        missing += 1;
                    }
                    dups += c.saturating_sub(1);
                    bad |= c != 1;
                } else {
                    unexpected += c;
                }
            }
            failed_events += u64::from(bad);
        }
        o.note(format!(
            "UI deliveries {delivered} against {expected} the oracle expects \
             ({dups} duplicate, {missing} missing, {unexpected} unexpected)"
        ));
        o.check(
            "every expected (event, node) pair is delivered exactly once",
            failed_events,
            events as u64,
        );
        o.check("no UI delivery the filters do not match", unexpected, 0);
        o.failed += failed_events;
        o.violations += unexpected;
        o.dup_deliveries = dups;
    }

    /// After the drain, every node's facts per written subject equal the
    /// authority's. A replica equal to an older authority version is
    /// stale (the writes after it failed there); one equal to no version
    /// at all holds invented facts (a safety violation).
    fn check_replicas(&mut self, o: &mut Outcome) {
        let nodes = self.arch.len();
        let mut stale = 0u64;
        let mut replicas = 0u64;
        let mut unknown = 0u64;
        // Per user: the oldest version any replica holds.
        let mut floor: BTreeMap<usize, usize> = BTreeMap::new();
        for (&user, versions) in &self.history {
            let subject = gen::user_name(user);
            let latest = versions.len() - 1;
            for n in 0..nodes {
                replicas += 1;
                let held = facts_digest(&self.arch.node(NodeIndex(n as u32)).kb, &subject);
                let at = if held.is_empty() {
                    Some(0)
                } else {
                    versions.iter().rposition(|v| *v == held)
                };
                match at {
                    Some(v) if v == latest => {}
                    Some(v) => {
                        stale += 1;
                        let f = floor.entry(user).or_insert(latest);
                        *f = (*f).min(v);
                    }
                    None => {
                        stale += 1;
                        unknown += 1;
                        floor.insert(user, 0);
                    }
                }
            }
        }
        let failed_writes =
            self.writes.iter().filter(|(u, v)| floor.get(u).is_some_and(|f| v > f)).count() as u64;
        o.note(format!("{stale} of {replicas} (subject, node) replicas end stale"));
        o.check("every node's facts per written subject equal the authority's", stale, replicas);
        o.check("no replica holds facts the authority never had", unknown, 0);
        o.failed += failed_writes;
        o.violations += unknown;
        o.stale_replicas = stale;
    }
}

/// A subject's facts as sorted strings (the comparison key for replica
/// convergence).
pub fn facts_digest(kb: &dyn FactSource, subject: &str) -> Vec<String> {
    let mut v: Vec<String> = kb.query(Some(subject), None).map(|f| format!("{f:?}")).collect();
    v.sort();
    v
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}
