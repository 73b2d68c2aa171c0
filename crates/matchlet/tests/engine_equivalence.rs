//! Property test: the indexed, hash-joining engine, which runs a rule's
//! pure goals inside the event join, is semantics-preserving.
//!
//! The reference is a transcription of the seed implementation's
//! algorithm — scan every rule for every event, evict every buffer every
//! event, join buffers with a clone-first nested loop, solve the `where`
//! goals as written — on top of the shared `unify`/`solve`/`eval`
//! primitives. Under random interleavings of events, fact inserts (some
//! with validity windows), retracts, subject removals and rule
//! additions/removals, both engines must produce the same firings in the
//! same order, the same per-rule fire counts and the same error counts.

use gloss_event::Event;
use gloss_knowledge::{Fact, FactSource, InMemoryFacts, Term};
use gloss_matchlet::engine::{attr_to_term, term_to_attr};
use gloss_matchlet::eval::{eval, solve, unify, Bindings};
use gloss_matchlet::{parse_rules, EventPattern, MatchletEngine, Rule};
use gloss_sim::SimTime;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A direct transcription of the seed engine: no kind index, no
/// precompiled patterns, no hash join, eviction on every event.
type Buffers = Vec<VecDeque<(SimTime, Bindings)>>;

struct ReferenceEngine {
    /// Each rule with its buffers and how many times it fired.
    rules: Vec<(Rule, Buffers, u64)>,
    eval_errors: u64,
}

impl ReferenceEngine {
    fn new(rules: Vec<Rule>) -> Self {
        let mut engine = ReferenceEngine { rules: Vec::new(), eval_errors: 0 };
        for rule in rules {
            engine.add_rule(rule);
        }
        engine
    }

    fn add_rule(&mut self, rule: Rule) {
        let buffers = vec![VecDeque::new(); rule.patterns.len()];
        self.rules.push((rule, buffers, 0));
    }

    fn remove_rule(&mut self, name: &str) -> bool {
        let before = self.rules.len();
        self.rules.retain(|(rule, _, _)| rule.name != name);
        self.rules.len() != before
    }

    fn fired(&self) -> Vec<u64> {
        self.rules.iter().map(|(_, _, fired)| *fired).collect()
    }

    fn match_pattern(pattern: &EventPattern, event: &Event) -> Option<Bindings> {
        if pattern.kind != event.kind() {
            return None;
        }
        let mut env = Bindings::new();
        for (key, pat) in &pattern.fields {
            // Generated rules only use plain attribute keys (no payload
            // projections), matching the seed's attribute path.
            let value = attr_to_term(event.attr(key)?);
            if !unify(pat, &value, &mut env) {
                return None;
            }
        }
        Some(env)
    }

    fn on_event(&mut self, now: SimTime, event: &Event, kb: &dyn FactSource) -> Vec<Event> {
        let mut out = Vec::new();
        for (rule, buffers, fired) in &mut self.rules {
            let window = rule.window;
            let cutoff = if now.as_micros() > window.as_micros() {
                SimTime::from_micros(now.as_micros() - window.as_micros())
            } else {
                SimTime::ZERO
            };
            for buf in buffers.iter_mut() {
                while buf.front().is_some_and(|(t, _)| *t < cutoff) {
                    buf.pop_front();
                }
            }

            let mut matched: Vec<(usize, Bindings)> = Vec::new();
            for (p, pattern) in rule.patterns.iter().enumerate() {
                if let Some(b) = Self::match_pattern(pattern, event) {
                    matched.push((p, b));
                }
            }
            for (fixed, bindings) in &matched {
                // Clone-first nested-loop join, exactly as seeded.
                let mut envs = vec![bindings.clone()];
                for (p, buffer) in buffers.iter().enumerate() {
                    if p == *fixed {
                        continue;
                    }
                    let mut next = Vec::new();
                    for env in &envs {
                        for (_, buffered) in buffer {
                            let mut child = env.clone();
                            let mut compatible = true;
                            for (k, v) in buffered.iter() {
                                match child.get_sym(k) {
                                    Some(existing) if !existing.eq_term(v) => {
                                        compatible = false;
                                        break;
                                    }
                                    Some(_) => {}
                                    None => child.insert_sym(k, v.clone()),
                                }
                            }
                            if compatible {
                                next.push(child);
                            }
                        }
                    }
                    envs = next;
                    if envs.is_empty() {
                        break;
                    }
                }
                for env in envs {
                    let mut solutions: Vec<Bindings> = Vec::new();
                    self.eval_errors += solve(&rule.goals, &env, kb, now, &mut |s| {
                        solutions.push(s.clone());
                    });
                    for solution in solutions {
                        let mut ev = Event::new(rule.emit.kind.as_str());
                        let mut ok = true;
                        for (field, expr) in &rule.emit.fields {
                            match eval(expr, &solution, kb, now) {
                                Ok(term) => ev.set_attr(field.as_str(), term_to_attr(&term)),
                                Err(_) => {
                                    self.eval_errors += 1;
                                    ok = false;
                                    break;
                                }
                            }
                        }
                        if ok {
                            *fired += 1;
                            out.push(ev);
                        }
                    }
                }
            }
            for (p, bindings) in matched {
                buffers[p].push_back((now, bindings));
            }
        }
        out
    }
}

fn kb() -> InMemoryFacts {
    let mut kb = InMemoryFacts::new();
    kb.add(Fact::new("ua", "likes", Term::str("ice")));
    kb.add(Fact::new("ub", "likes", Term::str("ice")));
    kb.add(Fact::new("ub", "likes", Term::str("tea")));
    kb.add(Fact::new("ua", "knows", Term::str("ub")));
    // Links for the join probe: a duplicate (multiplicity), a reverse
    // edge, one valid only for a while, and numeric objects, integral
    // (keyed) and not (scanned).
    kb.add(Fact::new("ua", "knows", Term::str("ub")));
    kb.add(Fact::new("ub", "knows", Term::str("ua")));
    kb.add(
        Fact::new("ub", "knows", Term::str("ice"))
            .valid_between(SimTime::from_secs(30), SimTime::from_secs(90)),
    );
    kb.add(Fact::new("ua", "knows", Term::Int(1)));
    kb.add(Fact::new("ub", "knows", Term::Float(1.5)));
    kb
}

// --- generators ----------------------------------------------------------

fn arb_pat() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..3).prop_map(|v| format!("?v{v}")),
        (0i64..3).prop_map(|n| n.to_string()),
        Just("_".to_string()),
        prop_oneof![Just("ua"), Just("ub"), Just("ice")].prop_map(|s| format!("\"{s}\"")),
    ]
}

fn arb_field() -> impl Strategy<Value = String> {
    ((0usize..3), arb_pat()).prop_map(|(f, p)| format!("f{f}: {p}"))
}

/// The `i`th pattern of a rule. Half of them bind `?v{i}` first, so
/// multi-pattern rules often bind their variables in different patterns:
/// partners that share no variable, linked only by the `where` goals.
fn arb_pattern(i: usize) -> impl Strategy<Value = String> {
    ((0usize..3), proptest::collection::vec(arb_field(), 0..3), (0usize..2), (0usize..3)).prop_map(
        move |(k, mut fields, anchored, f)| {
            if anchored == 0 {
                fields.insert(0, format!("f{f}: ?v{i}"));
            }
            format!("on a: event k{k}({})", fields.join(", "))
        },
    )
}

fn arb_where() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("where ?v0 > 0".to_string()),
        Just("where ?v0 != ?v1".to_string()),
        Just("where fact(?v0, likes, ?v2)".to_string()),
        Just("where fact(?v0, likes, \"ice\") and fact(?v0, knows, ?v1)".to_string()),
        // Pure goals the engine runs inside the join: a linking goal
        // (probes ?v1's pattern when ?v0 is bound by an earlier one) and
        // a unary filter.
        Just(LINK_WHERE.to_string()),
        Just("where fact(?v0, likes, \"ice\")".to_string()),
        // Pure conditions spanning two partners: usable only by the
        // firings that fix one of the patterns they read.
        Just("where ?v0 != ?v1 and ?v1 != ?v2".to_string()),
        // An erring condition (`>` over string values) ahead of a pure
        // goal stops the pushdown; one after a pure run must still count
        // exactly the errors of the environments that reach it.
        Just("where ?v0 > 0 and fact(?v0, likes, \"ice\")".to_string()),
        Just(format!("{LINK_WHERE} and fact(?v0, likes, ?w) and ?w > 0")),
    ]
}

/// A where-body whose `knows` goal links two patterns' variables.
const LINK_WHERE: &str = "where ?v0 != ?v1 and fact(?v0, knows, ?v1)";

fn arb_emit() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("emit out()".to_string()),
        Just("emit out(x: ?v0)".to_string()),
        Just("emit out(x: ?v0, y: ?v1)".to_string()),
        Just("emit out(x: ?v0 + 1)".to_string()),
    ]
}

fn arb_rule(idx: usize) -> impl Strategy<Value = String> {
    // One to three patterns: with three, the fixed pattern has two
    // partners that may share no variable, the shape of the ice-cream rule.
    let patterns = ((1usize..4), arb_pattern(0), arb_pattern(1), arb_pattern(2))
        .prop_map(|(n, p0, p1, p2)| [p0, p1, p2][..n].join(" "));
    (patterns, arb_where(), (5u64..120), arb_emit()).prop_map(
        move |(patterns, cond, window, emit)| {
            format!("rule r{idx} {{ {patterns} {cond} within {window} s {emit} }}")
        },
    )
}

fn arb_rules() -> impl Strategy<Value = String> {
    (arb_rule(0), arb_rule(1), arb_rule(2)).prop_map(|(a, b, c)| format!("{a}\n{b}\n{c}"))
}

fn arb_attr_value() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0i64..3).prop_map(Term::Int),
        // Non-integral floats route joins through the nested-loop
        // fallback (hash fingerprints are not epsilon-faithful for them).
        (0i64..5).prop_map(|i| Term::Float(i as f64 / 2.0)),
        prop_oneof![Just("ua"), Just("ub"), Just("ice")].prop_map(Term::str),
    ]
}

fn arb_event() -> impl Strategy<Value = (u64, Event)> {
    ((0usize..3), proptest::collection::vec(((0usize..3), arb_attr_value()), 0..4), (0u64..10))
        .prop_map(|(k, fields, dt)| {
            let mut ev = Event::new(format!("k{k}"));
            for (f, value) in fields {
                ev.set_attr(format!("f{f}"), term_to_attr(&value));
            }
            (dt, ev)
        })
}

// --- engine vs reference on a fixed knowledge base ----------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn indexed_engine_matches_reference(
        src in arb_rules(),
        events in proptest::collection::vec(arb_event(), 1..80),
    ) {
        let rules = parse_rules(&src).expect("generated rules parse");
        let mut reference = ReferenceEngine::new(rules.clone());
        let mut engine = MatchletEngine::new();
        for rule in rules {
            engine.add_rule(rule);
        }
        let kb = kb();
        let mut now = SimTime::ZERO;
        for (dt, ev) in &events {
            now += gloss_sim::SimDuration::from_secs(*dt);
            let expected = reference.on_event(now, ev, &kb);
            let got = engine.on_event(now, ev, &kb);
            prop_assert_eq!(
                rendered(&got),
                rendered(&expected),
                "rules:\n{}\nevent: {} at {}",
                src,
                ev,
                now
            );
        }
        prop_assert_eq!(engine.stats.eval_errors, reference.eval_errors);
        let fired: Vec<u64> = engine.rules().iter().map(|r| r.fired).collect();
        prop_assert_eq!(&fired, &reference.fired());
        prop_assert_eq!(engine.stats.events_out, fired.iter().sum::<u64>());
    }
}

// --- engine vs reference under event, fact and rule churn ----------------
//
// The engine keeps its kind index and join buffers incrementally across
// fact and rule churn; the reference re-solves every firing from scratch
// against the live store.

/// Renders events order-sensitively (attribute maps iterate in name
/// order, so each rendering is canonical; the *sequence* is compared).
fn rendered(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .map(|e| {
            let attrs: Vec<String> = e.attrs().map(|(k, v)| format!("{k}={v:?}")).collect();
            format!("{}({})", e.kind(), attrs.join(","))
        })
        .collect()
}

/// One step of a random knowledge/rule/event interleaving.
#[derive(Debug, Clone)]
enum ChurnOp {
    /// Advance time and offer an event.
    Event(u64, Event),
    /// Insert a fact, optionally with a validity window starting at the
    /// current time plus the first offset and ending plus the second.
    Insert { fact: ChurnFact, windowed: Option<(u64, u64)> },
    /// Retract every fact matching the triple.
    Retract(ChurnFact),
    /// Remove all facts about a subject.
    RemoveSubject(String),
    /// Hot-add one rule from source.
    AddRule(String),
    /// Remove a rule by name.
    RemoveRule(usize),
}

/// A `(predicate, subject, object)` triple over the churned predicates:
/// `likes` with flavour or numeric objects, `knows` between users.
type ChurnFact = (&'static str, String, Term);

fn arb_fact() -> impl Strategy<Value = ChurnFact> {
    prop_oneof![
        (arb_subject(), arb_object()).prop_map(|(s, o)| ("likes", s, o)),
        (arb_subject(), arb_subject()).prop_map(|(s, o)| ("knows", s, Term::str(o))),
    ]
}

fn arb_subject() -> impl Strategy<Value = String> {
    prop_oneof![Just("ua"), Just("ub"), Just("uc")].prop_map(String::from)
}

fn arb_object() -> impl Strategy<Value = Term> {
    prop_oneof![
        prop_oneof![Just("ice"), Just("tea")].prop_map(Term::str),
        (0i64..3).prop_map(Term::Int),
    ]
}

/// Rule bodies over the churned predicates: fact enumerations with bound
/// and unbound subjects, multi-goal chains, a windowed two-pattern event
/// join on top, and a two-pattern join linked by a `knows` goal, which
/// meets inserts, retracts and validity windows of `knows` facts (each
/// wrapped in `rule aN { ... }` at apply time).
fn arb_churn_rule_body() -> impl Strategy<Value = String> {
    let bodies = prop_oneof![
        Just("on a: event k0(f0: ?v0) where fact(?v0, likes, ?v2)".to_string()),
        Just("on a: event k1() where fact(?v0, likes, \"ice\")".to_string()),
        Just("on a: event k0(f0: ?v0) where fact(?v0, likes, ?v2) and fact(?v0, knows, ?v1)".to_string()),
        Just("on a: event k1(f1: ?v1) on b: event k2(f1: ?v1) where fact(?v0, likes, ?v2) and ?v1 != 1".to_string()),
        Just("on a: event k2(f0: ?v0, f1: ?v1) where fact(?v0, rank, ?v1)".to_string()),
        Just(format!("on a: event k0(f0: ?v0) on b: event k1(f1: ?v1) {LINK_WHERE}")),
    ];
    (bodies, 10u64..40).prop_map(|(body, win)| format!("{body} within {win} s emit out(u: ?v0)"))
}

fn arb_op() -> impl Strategy<Value = ChurnOp> {
    let event = || arb_event().prop_map(|(dt, ev)| ChurnOp::Event(dt, ev));
    let insert = || {
        (arb_fact(), (0u64..4), (0u64..10), (10u64..30)).prop_map(|(fact, w, from, to)| {
            ChurnOp::Insert { fact, windowed: (w == 0).then_some((from, to)) }
        })
    };
    // The vendored proptest has no weighted `prop_oneof!`; duplicate
    // entries weight events and inserts over the rarer churn ops.
    prop_oneof![
        event(),
        event(),
        event(),
        event(),
        event(),
        insert(),
        insert(),
        arb_fact().prop_map(ChurnOp::Retract),
        arb_subject().prop_map(ChurnOp::RemoveSubject),
        arb_churn_rule_body().prop_map(ChurnOp::AddRule),
        (0usize..4).prop_map(ChurnOp::RemoveRule),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn incremental_engine_matches_from_scratch_resolve(
        base_rules in arb_rules(),
        ops in proptest::collection::vec(arb_op(), 1..128),
    ) {
        let rules = parse_rules(&base_rules).expect("generated rules parse");
        let mut reference = ReferenceEngine::new(rules.clone());
        let mut engine = MatchletEngine::new();
        for rule in rules {
            engine.add_rule(rule);
        }
        let mut kb = kb();
        kb.add(Fact::new("ua", "rank", Term::Int(1)));
        kb.add(Fact::new("ub", "rank", Term::Int(2)));
        let mut now = SimTime::ZERO;
        let mut added = 0usize;
        let mut emitted = 0u64;
        for op in &ops {
            match op {
                ChurnOp::Event(dt, ev) => {
                    now += gloss_sim::SimDuration::from_secs(*dt);
                    let got = engine.on_event(now, ev, &kb);
                    let expected = reference.on_event(now, ev, &kb);
                    emitted += got.len() as u64;
                    prop_assert_eq!(
                        rendered(&got),
                        rendered(&expected),
                        "rules:\n{}\ndiverged on event {} at {}",
                        base_rules,
                        ev,
                        now
                    );
                }
                ChurnOp::Insert { fact: (predicate, subject, object), windowed } => {
                    let mut fact = Fact::new(subject.clone(), *predicate, object.clone());
                    if let Some((from, to)) = windowed {
                        fact = fact.valid_between(
                            now + gloss_sim::SimDuration::from_secs(*from),
                            now + gloss_sim::SimDuration::from_secs(*to),
                        );
                    }
                    kb.add(fact);
                }
                ChurnOp::Retract((predicate, subject, object)) => {
                    kb.retract(subject, predicate, object);
                }
                ChurnOp::RemoveSubject(subject) => {
                    kb.remove_subject(subject);
                }
                ChurnOp::AddRule(body) => {
                    // Names cycle over a0..a3 so RemoveRule ops land on
                    // real rules often (same-name rules are fine: removal
                    // takes all of them, identically in both engines).
                    let src = format!("rule a{} {{ {body} }}", added % 4);
                    let parsed = parse_rules(&src).expect("churn rule parses");
                    added += 1;
                    for r in parsed {
                        engine.add_rule(r.clone());
                        reference.add_rule(r);
                    }
                }
                ChurnOp::RemoveRule(i) => {
                    let name = format!("a{i}");
                    prop_assert_eq!(engine.remove_rule(&name), reference.remove_rule(&name));
                }
            }
        }
        prop_assert_eq!(engine.stats.eval_errors, reference.eval_errors);
        prop_assert_eq!(engine.stats.events_out, emitted);
        let fired: Vec<u64> = engine.rules().iter().map(|r| r.fired).collect();
        prop_assert_eq!(fired, reference.fired());
    }
}

/// Validity windows open and close on time: a firing inside a windowed
/// fact's validity sees it, firings before and after do not — in any
/// order of firing times.
#[test]
fn validity_windows_expire_out_of_alpha_and_beta_memories() {
    let mut kb = InMemoryFacts::new();
    kb.add(Fact::new("ua", "likes", Term::str("ice")));
    kb.add(
        Fact::new("ub", "likes", Term::str("ice"))
            .valid_between(SimTime::from_secs(100), SimTime::from_secs(200)),
    );
    let src = r#"rule fans { on q: event k1() where fact(?v0, likes, "ice") emit out(u: ?v0) }"#;
    let mut engine = MatchletEngine::compile(src).unwrap();
    let mut reference = ReferenceEngine::new(parse_rules(src).unwrap());
    let ev = Event::new("k1");
    for secs in [0u64, 50, 99, 100, 150, 199, 200, 250, 150, 50] {
        // (The last two go backwards.)
        let now = SimTime::from_secs(secs);
        let got = rendered(&engine.on_event(now, &ev, &kb));
        let expected = rendered(&reference.on_event(now, &ev, &kb));
        assert_eq!(got, expected, "at t={secs}");
        let inside = (100..200).contains(&secs);
        assert_eq!(got.len(), if inside { 2 } else { 1 }, "ub only inside the window (t={secs})");
    }
}
