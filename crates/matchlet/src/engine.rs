//! The matchlet engine: windowed multi-event joins driving rule firing.
//!
//! The hot path is indexed and allocation-lean:
//!
//! - a **kind index** maps event kinds to the `(rule, pattern)` pairs
//!   that listen for them, so an event never touches a rule that cannot
//!   match it (and [`MatchletEngine::handles_kind`] is O(1));
//! - pattern fields are **precompiled** (attribute name vs. parsed XPath
//!   projection), so matching never re-parses keys;
//! - multi-pattern joins use a **hash join** keyed on the variables the
//!   patterns share, falling back to a nested loop only for tiny buffers
//!   or variable-disjoint (cartesian) joins;
//! - bindings are flat `(Symbol, Term)` vectors ([`Bindings`]), so
//!   environments clone in one allocation and compare keys by integer.
//!
//! Every firing solves the rule's `where` goals from scratch against the
//! knowledge base, in the order [`crate::canonical::normalise_goals`]
//! gives them: each condition runs as soon as the variables it reads are
//! bound, so filters prune before the next fact enumeration multiplies
//! the environments. There is one solve path; nothing is memoised
//! between firings, so fact churn, validity windows and the clock
//! builtins need no invalidation. Equivalence with a naive reference
//! engine under random event, fact and rule churn is property-tested in
//! `tests/engine_equivalence.rs`.

use crate::ast::{EventPattern, Goal, Pat, Rule};
use crate::canonical::normalise_goals;
use crate::eval::{eval, solve_mut, unify, Bindings};
use crate::parser::{parse_rules, MatchletError};
use crate::symbol::Symbol;
use gloss_event::{AttrValue, Event};
use gloss_knowledge::{FactSource, Term};
use gloss_sim::FnvHashMap;
use gloss_sim::SimTime;
use gloss_xml::Path;
use std::collections::VecDeque;
use std::sync::Arc;

/// How one pattern field reads its value from an event, precompiled so
/// the per-event path never inspects or parses field keys.
#[derive(Debug, Clone)]
enum FieldAccess {
    /// A typed attribute, by name.
    Attr(String),
    /// An XPath type projection into the XML payload (§3).
    Payload(Path),
    /// A projection key that failed to parse: matches nothing.
    Invalid,
}

#[derive(Debug, Clone)]
struct CompiledField {
    access: FieldAccess,
    pat: Pat,
}

/// A precompiled event pattern: field accessors plus the variables the
/// pattern binds (sorted, for set intersection during joins).
#[derive(Debug, Clone)]
struct CompiledPattern {
    fields: Vec<CompiledField>,
    vars: Vec<Symbol>,
}

impl CompiledPattern {
    fn new(pattern: &EventPattern) -> Self {
        let fields = pattern
            .fields
            .iter()
            .map(|(key, pat)| {
                let access = if key.contains('/') || key.starts_with('@') {
                    match Path::parse(key) {
                        Ok(path) => FieldAccess::Payload(path),
                        Err(_) => FieldAccess::Invalid,
                    }
                } else {
                    FieldAccess::Attr(key.clone())
                };
                CompiledField { access, pat: pat.clone() }
            })
            .collect::<Vec<_>>();
        let mut vars: Vec<Symbol> = fields
            .iter()
            .filter_map(|f| match f.pat {
                Pat::Var(v) => Some(v),
                _ => None,
            })
            .collect();
        vars.sort_unstable();
        vars.dedup();
        CompiledPattern { fields, vars }
    }
}

/// A rule plus its per-pattern event buffers.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The rule.
    pub rule: Rule,
    /// Precompiled patterns, parallel to `rule.patterns`.
    compiled: Vec<CompiledPattern>,
    /// Per-pattern buffers of `(arrival time, bindings)`.
    buffers: Vec<VecDeque<(SimTime, Bindings)>>,
    /// The emit kind, shared so every synthesised event clones a
    /// refcount instead of the string.
    emit_kind: Arc<str>,
    /// Emit field names, parallel to `rule.emit.fields`, shared the same
    /// way.
    emit_keys: Vec<Arc<str>>,
    /// The rule's `where` goals with conditions hoisted to their earliest
    /// sound position ([`normalise_goals`]): the chain every firing solves.
    goals: Vec<Goal>,
    /// How many times the rule has fired.
    pub fired: u64,
}

impl CompiledRule {
    fn new(rule: Rule) -> Self {
        let compiled = rule.patterns.iter().map(CompiledPattern::new).collect();
        let buffers = vec![VecDeque::new(); rule.patterns.len()];
        let emit_kind = Arc::from(rule.emit.kind.as_str());
        let emit_keys = rule.emit.fields.iter().map(|(k, _)| Arc::from(k.as_str())).collect();
        let goals = normalise_goals(&rule.goals);
        CompiledRule { rule, compiled, buffers, emit_kind, emit_keys, goals, fired: 0 }
    }

    fn evict_before(&mut self, cutoff: SimTime) {
        for buf in &mut self.buffers {
            while buf.front().is_some_and(|(t, _)| *t < cutoff) {
                buf.pop_front();
            }
        }
    }

    /// Total buffered partial matches.
    pub fn buffered(&self) -> usize {
        self.buffers.iter().map(VecDeque::len).sum()
    }
}

/// Aggregate engine statistics — the "distillation" measure of Figure 1:
/// a high volume of input events reduced to few meaningful outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events offered to the engine.
    pub events_in: u64,
    /// Events synthesised.
    pub events_out: u64,
    /// Where-clause evaluation errors (branches pruned).
    pub eval_errors: u64,
    /// Always 0: the engine memoises no goal solves. Kept so readers of
    /// the stats (the performance ledger's replay trace) keep compiling.
    pub memo_hits: u64,
    /// Always 0, for the same reason as [`EngineStats::memo_hits`].
    pub memo_misses: u64,
}

impl EngineStats {
    /// Input events per output event (∞ reported as `f64::INFINITY`).
    pub fn distillation_ratio(&self) -> f64 {
        if self.events_out == 0 {
            f64::INFINITY
        } else {
            self.events_in as f64 / self.events_out as f64
        }
    }
}

/// A matchlet engine hosting compiled rules.
///
/// All hosted rules — however they were deployed — share one kind index
/// per engine, so a node running many matchlets dispatches each event
/// with one lookup.
///
/// See the [crate docs](crate) for the language and an example.
#[derive(Debug, Clone, Default)]
pub struct MatchletEngine {
    rules: Vec<CompiledRule>,
    /// Event kind → `(rule index, pattern index)` pairs listening for it,
    /// in rule order. Rebuilt on rule addition/removal.
    kind_index: FnvHashMap<String, Vec<(u32, u32)>>,
    /// Engine statistics.
    pub stats: EngineStats,
}

impl MatchletEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        MatchletEngine::default()
    }

    /// Compiles source text into a fresh engine.
    ///
    /// # Errors
    ///
    /// Returns [`MatchletError`] on syntax errors.
    pub fn compile(src: &str) -> Result<Self, MatchletError> {
        let mut engine = MatchletEngine::new();
        engine.add_rules(src)?;
        Ok(engine)
    }

    /// Hot-adds rules from source to a running engine (the dynamic
    /// deployment path used by code bundles).
    ///
    /// # Errors
    ///
    /// Returns [`MatchletError`] on syntax errors; existing rules are
    /// untouched.
    pub fn add_rules(&mut self, src: &str) -> Result<(), MatchletError> {
        for rule in parse_rules(src)? {
            self.add_rule(rule);
        }
        Ok(())
    }

    /// Adds one already-parsed rule.
    pub fn add_rule(&mut self, rule: Rule) {
        let ri = self.rules.len() as u32;
        for (pi, pattern) in rule.patterns.iter().enumerate() {
            self.kind_index.entry(pattern.kind.clone()).or_default().push((ri, pi as u32));
        }
        self.rules.push(CompiledRule::new(rule));
    }

    /// Removes every rule with the given name; returns whether any
    /// existed.
    pub fn remove_rule(&mut self, name: &str) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.rule.name != name);
        if before == self.rules.len() {
            return false;
        }
        self.rebuild_kind_index();
        true
    }

    fn rebuild_kind_index(&mut self) {
        self.kind_index.clear();
        for (ri, compiled) in self.rules.iter().enumerate() {
            for (pi, pattern) in compiled.rule.patterns.iter().enumerate() {
                self.kind_index
                    .entry(pattern.kind.clone())
                    .or_default()
                    .push((ri as u32, pi as u32));
            }
        }
    }

    /// The hosted rule names.
    pub fn rule_names(&self) -> Vec<&str> {
        self.rules.iter().map(|r| r.rule.name.as_str()).collect()
    }

    /// The hosted rules (with buffer state).
    pub fn rules(&self) -> &[CompiledRule] {
        &self.rules
    }

    /// Whether any rule listens for the given event kind (one index
    /// lookup; hosting layers call this per event).
    pub fn handles_kind(&self, kind: &str) -> bool {
        self.kind_index.contains_key(kind)
    }

    /// Offers an event to the rules listening for its kind; returns the
    /// synthesised events. Rules without a pattern on the event's kind
    /// are never touched.
    ///
    /// Joining semantics: the new event is fixed at each pattern position
    /// it matches and joined against the *buffered* partial matches of
    /// the other patterns (so an event never joins with itself), then the
    /// event is buffered. All joined events lie within the rule's window
    /// of the new event.
    pub fn on_event(&mut self, now: SimTime, event: &Event, kb: &dyn FactSource) -> Vec<Event> {
        self.stats.events_in += 1;
        let mut out = Vec::new();
        let MatchletEngine { rules, kind_index, stats } = self;
        let Some(entries) = kind_index.get(event.kind()) else {
            return out;
        };
        // Entries are grouped by rule (rule order, then pattern order).
        let mut i = 0;
        while i < entries.len() {
            let ri = entries[i].0 as usize;
            let mut j = i;
            while j < entries.len() && entries[j].0 as usize == ri {
                j += 1;
            }
            let pattern_entries = &entries[i..j];
            i = j;

            let rule = &mut rules[ri];
            let window = rule.rule.window;
            let cutoff = if now.as_micros() > window.as_micros() {
                SimTime::from_micros(now.as_micros() - window.as_micros())
            } else {
                SimTime::ZERO
            };
            rule.evict_before(cutoff);

            let mut matched: Vec<(usize, Bindings)> = Vec::new();
            for &(_, pi) in pattern_entries {
                let p = pi as usize;
                if let Some(b) = match_compiled(&rule.compiled[p], event) {
                    matched.push((p, b));
                }
            }
            if matched.is_empty() {
                continue;
            }

            // Single-pattern rules have no join partner, so their buffers
            // are never read: fire directly and skip buffering entirely.
            let single = rule.rule.patterns.len() == 1;
            let rule = &rules[ri];
            let mut fired = 0u64;
            let mut errors = 0u64;
            if single {
                // Drain (moves the bindings): single-pattern rules never
                // buffer, so nothing downstream reads `matched`.
                for (_, bindings) in matched.drain(..) {
                    fire(rule, bindings, kb, now, &mut out, &mut fired, &mut errors);
                }
            } else {
                for (p, bindings) in &matched {
                    join_and_fire(
                        rule,
                        *p,
                        bindings.clone(),
                        kb,
                        now,
                        &mut out,
                        &mut fired,
                        &mut errors,
                    );
                }
            }
            stats.eval_errors += errors;
            let rule = &mut rules[ri];
            rule.fired += fired;
            if !single {
                for (p, bindings) in matched {
                    rule.buffers[p].push_back((now, bindings));
                }
            }
        }
        stats.events_out += out.len() as u64;
        out
    }
}

/// Matches one precompiled pattern against an event, producing bindings.
/// The kind has already been matched by the engine's kind index.
fn match_compiled(pattern: &CompiledPattern, event: &Event) -> Option<Bindings> {
    let mut env = Bindings::new();
    for field in &pattern.fields {
        let value = match &field.access {
            FieldAccess::Attr(name) => attr_to_term(event.attr(name)?),
            FieldAccess::Payload(path) => {
                let payload = event.payload()?;
                let text = path.select_text_first(payload)?;
                text_to_term(&text)
            }
            FieldAccess::Invalid => return None,
        };
        if !unify(&field.pat, &value, &mut env) {
            return None;
        }
    }
    Some(env)
}

/// Joins below this buffer size use the nested loop: building a hash
/// table costs more than scanning a handful of entries.
const HASH_JOIN_MIN_BUFFER: usize = 8;

/// Joins the fixed bindings against the other patterns' buffers and
/// fires the rule's goals/emit for every complete join environment.
///
/// Patterns sharing variables with the environment are joined through a
/// hash table keyed on a fingerprint of the shared variables' values, so
/// only compatible buffer entries are visited; fingerprint collisions are
/// harmless because `merge` re-verifies every shared binding.
#[allow(clippy::too_many_arguments)]
fn join_and_fire(
    rule: &CompiledRule,
    fixed_pattern: usize,
    fixed_bindings: Bindings,
    kb: &dyn FactSource,
    now: SimTime,
    out: &mut Vec<Event>,
    fired: &mut u64,
    errors: &mut u64,
) {
    if rule.compiled.len() == 1 {
        // No join partners: solve straight over the pattern's bindings.
        fire(rule, fixed_bindings, kb, now, out, fired, errors);
        return;
    }
    let mut envs = vec![fixed_bindings];
    // Variables bound so far (sorted): fixed pattern first, then each
    // joined pattern's in turn.
    let mut bound: Vec<Symbol> = rule.compiled[fixed_pattern].vars.clone();
    let stages = rule.compiled.len() - 1;
    let mut stage = 0;
    for (p, cp) in rule.compiled.iter().enumerate() {
        if p == fixed_pattern {
            continue;
        }
        stage += 1;
        let buffer = &rule.buffers[p];
        if buffer.is_empty() {
            return;
        }
        let join_vars: Vec<Symbol> =
            cp.vars.iter().copied().filter(|v| bound.binary_search(v).is_ok()).collect();

        // On the last stage, fire each merged environment directly
        // instead of materialising one more `envs` vector.
        let last = stage == stages;
        let mut next = Vec::with_capacity(if last { 0 } else { envs.len() });
        let mut sink = |child: Bindings, out: &mut Vec<Event>| {
            if last {
                fire(rule, child, kb, now, out, fired, errors);
            } else {
                next.push(child);
            }
        };
        // Try the hash path in one pass over the buffer; `join_key`
        // returns `None` for values whose fingerprint would not be
        // faithful to `eq_term` (non-integral numerics), in which case
        // the whole stage falls back to the nested loop.
        let mut hashed = false;
        if !join_vars.is_empty() && buffer.len() >= HASH_JOIN_MIN_BUFFER {
            let mut table: FnvHashMap<u64, Vec<usize>> =
                FnvHashMap::with_capacity_and_hasher(buffer.len(), Default::default());
            let mut exact = true;
            for (idx, (_, buffered)) in buffer.iter().enumerate() {
                match join_key(buffered, &join_vars) {
                    Some(key) => table.entry(key).or_default().push(idx),
                    None => {
                        exact = false;
                        break;
                    }
                }
            }
            if exact {
                hashed = true;
                for env in &envs {
                    match join_key(env, &join_vars) {
                        Some(key) => {
                            if let Some(bucket) = table.get(&key) {
                                for &idx in bucket {
                                    let (_, buffered) = &buffer[idx];
                                    if let Some(child) = env.merged(buffered) {
                                        sink(child, out);
                                    }
                                }
                            }
                        }
                        // This probe's key is not exactly hashable:
                        // scan the buffer for just this environment.
                        None => {
                            for (_, buffered) in buffer {
                                if let Some(child) = env.merged(buffered) {
                                    sink(child, out);
                                }
                            }
                        }
                    }
                }
            }
        }
        if !hashed {
            for env in &envs {
                for (_, buffered) in buffer {
                    if let Some(child) = env.merged(buffered) {
                        sink(child, out);
                    }
                }
            }
        }
        if last {
            return;
        }
        envs = next;
        if envs.is_empty() {
            return;
        }
        for v in &cp.vars {
            if let Err(pos) = bound.binary_search(v) {
                bound.insert(pos, *v);
            }
        }
    }
}

/// Solves the rule's where-goals over one join environment and emits one
/// event per solution. Emit expressions are evaluated per solution (they
/// may read the clock or the knowledge base); a solution whose emit fails
/// to evaluate is counted as an error and skipped.
fn fire(
    rule: &CompiledRule,
    mut env: Bindings,
    kb: &dyn FactSource,
    now: SimTime,
    out: &mut Vec<Event>,
    fired: &mut u64,
    errors: &mut u64,
) {
    let mut local_fired = 0u64;
    let mut emit_errors = 0u64;
    let solve_errors = solve_mut(&rule.goals, &mut env, kb, now, &mut |solution| {
        let mut ev = Event::new(rule.emit_kind.clone());
        for (key, (_, expr)) in rule.emit_keys.iter().zip(&rule.rule.emit.fields) {
            match eval(expr, solution, kb, now) {
                Ok(term) => ev.set_attr(key.clone(), term_to_attr(&term)),
                Err(_) => {
                    emit_errors += 1;
                    return;
                }
            }
        }
        local_fired += 1;
        out.push(ev);
    });
    *fired += local_fired;
    *errors += solve_errors + emit_errors;
}

/// Fingerprints the join variables' values in `env` into a hash key, or
/// `None` when the key cannot be hashed faithfully to
/// [`Term::eq_term`] and the join must use the nested loop instead.
///
/// Numeric terms (`Int`/`Float`/`Time`) hash their `f64` value, so
/// `Int(3)` and `Float(3.0)` land in the same bucket — but only
/// *integral* values within `f64`'s exact range qualify: two integral
/// values within eq_term's 1e-12 epsilon are bitwise equal, while
/// non-integral or huge numerics can compare eq_term-equal with
/// different bits and would make buckets diverge from nested-loop
/// semantics. Unbound variables also yield `None` (cannot happen for a
/// pattern's own buffered bindings). Non-numeric terms compare
/// structurally and always hash faithfully.
fn join_key(env: &Bindings, join_vars: &[Symbol]) -> Option<u64> {
    use std::hash::Hasher as _;
    // IEEE 754 zero has two bit patterns (+0.0 / -0.0) that compare
    // equal; hash them identically.
    fn norm_bits(f: f64) -> u64 {
        (if f == 0.0 { 0.0 } else { f }).to_bits()
    }
    let mut h = gloss_sim::FnvHasher::default();
    for &v in join_vars {
        let term = env.get_sym(v)?;
        if let Some(f) = term.as_f64() {
            if f.fract() != 0.0 || f.abs() >= 9.0e15 {
                return None;
            }
            h.write_u8(1);
            h.write_u64(norm_bits(f));
        } else {
            match term {
                Term::Str(s) => {
                    h.write_u8(2);
                    h.write(s.as_bytes());
                }
                Term::Bool(b) => {
                    h.write_u8(3);
                    h.write_u8(*b as u8);
                }
                Term::Geo(g) => {
                    h.write_u8(4);
                    h.write_u64(norm_bits(g.lat));
                    h.write_u64(norm_bits(g.lon));
                }
                // Int/Float/Time are numeric and handled above.
                _ => h.write_u8(5),
            }
        }
    }
    Some(h.finish())
}

/// Converts an event attribute to a matchlet term.
pub fn attr_to_term(value: &AttrValue) -> Term {
    match value {
        AttrValue::Str(s) => Term::Str(s.clone()),
        AttrValue::Int(i) => Term::Int(*i),
        AttrValue::Float(f) => Term::Float(*f),
        AttrValue::Bool(b) => Term::Bool(*b),
    }
}

/// Converts a matchlet term to an event attribute.
pub fn term_to_attr(term: &Term) -> AttrValue {
    match term {
        Term::Str(s) => AttrValue::Str(s.clone()),
        Term::Int(i) => AttrValue::Int(*i),
        Term::Float(f) => AttrValue::Float(*f),
        Term::Bool(b) => AttrValue::Bool(*b),
        Term::Geo(g) => AttrValue::Str(format!("{},{}", g.lat, g.lon).into()),
        Term::Time(t) => AttrValue::Int(t.as_micros() as i64),
    }
}

/// Parses projected payload text into the most specific term.
fn text_to_term(text: &str) -> Term {
    let t = text.trim();
    if let Ok(i) = t.parse::<i64>() {
        return Term::Int(i);
    }
    if let Ok(f) = t.parse::<f64>() {
        return Term::Float(f);
    }
    match t {
        "true" => Term::Bool(true),
        "false" => Term::Bool(false),
        _ => Term::str(text),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_knowledge::{Fact, InMemoryFacts};
    use gloss_xml::parse;

    fn kb() -> InMemoryFacts {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("bob", "likes", Term::str("ice cream")));
        kb.add(Fact::new("bob", "nationality", Term::str("scottish")));
        kb.add(Fact::new("anna", "nationality", Term::str("australian")));
        kb.add(Fact::new("anna", "likes", Term::str("ice cream")));
        kb
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn single_pattern_rule_fires_immediately() {
        let mut e = MatchletEngine::compile(
            r#"rule r { on a: event ping(n: ?n) where ?n > 2 emit pong(n: ?n) }"#,
        )
        .unwrap();
        let out = e.on_event(t(0), &Event::new("ping").with_attr("n", 5i64), &kb());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind(), "pong");
        assert_eq!(out[0].num_attr("n"), Some(5.0));
        let out = e.on_event(t(1), &Event::new("ping").with_attr("n", 1i64), &kb());
        assert!(out.is_empty());
        assert_eq!(e.stats.events_in, 2);
        assert_eq!(e.stats.events_out, 1);
    }

    #[test]
    fn two_pattern_join_within_window() {
        let src = r#"
            rule meet {
                on a: event user.location(user: ?u, place: ?p)
                on b: event user.location(user: ?v, place: ?p)
                where ?u != ?v
                within 1m
                emit co_located(a: ?u, b: ?v, place: ?p)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let ev = |u: &str, p: &str| {
            Event::new("user.location").with_attr("user", u).with_attr("place", p)
        };
        assert!(e.on_event(t(0), &ev("bob", "market st"), &kb()).is_empty());
        // Different place: no join.
        assert!(e.on_event(t(10), &ev("anna", "north st"), &kb()).is_empty());
        // Same place within window: fires (both pattern orders join).
        let out = e.on_event(t(20), &ev("anna", "market st"), &kb());
        assert_eq!(out.len(), 2, "anna joins bob's buffered event in both roles");
        assert_eq!(out[0].kind(), "co_located");
    }

    #[test]
    fn window_expiry_prevents_stale_joins() {
        let src = r#"
            rule meet {
                on a: event x(u: ?u)
                on b: event y(v: ?v)
                within 30 s
                emit z(u: ?u, v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        e.on_event(t(0), &Event::new("x").with_attr("u", "one"), &kb());
        // 60 s later: the x event has expired.
        let out = e.on_event(t(60), &Event::new("y").with_attr("v", "two"), &kb());
        assert!(out.is_empty());
        // Within the window it joins.
        e.on_event(t(70), &Event::new("x").with_attr("u", "three"), &kb());
        let out = e.on_event(t(80), &Event::new("y").with_attr("v", "four"), &kb());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn event_does_not_join_with_itself() {
        let src = r#"
            rule pair {
                on a: event k(u: ?u)
                on b: event k(v: ?v)
                within 1m
                emit p(u: ?u, v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let out = e.on_event(t(0), &Event::new("k").with_attr("u", "x").with_attr("v", "x"), &kb());
        assert!(out.is_empty(), "first event has nothing buffered to join");
    }

    #[test]
    fn fact_goals_enrich_matches() {
        let src = r#"
            rule hot_for_you {
                on w: event weather(celsius: ?c)
                where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
                where ?c >= hot_threshold(?nat)
                within 1m
                emit suggest(user: ?u, c: ?c)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        // 20C: hot for scottish bob (18), not for australian anna (30).
        let out = e.on_event(t(0), &Event::new("weather").with_attr("celsius", 20.0), &kb());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].str_attr("user"), Some("bob"));
        // 35C: hot for both.
        let out = e.on_event(t(10), &Event::new("weather").with_attr("celsius", 35.0), &kb());
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn payload_projection_binding() {
        let src = r#"
            rule gps {
                on l: event loc("pos/@lat": ?lat, "pos/@lon": ?lon)
                where ?lat > 56.0
                within 1m
                emit seen(lat: ?lat, lon: ?lon)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let payload = parse(r#"<fix><pos lat="56.34" lon="-2.80"/></fix>"#).unwrap();
        let out = e.on_event(t(0), &Event::new("loc").with_payload(payload), &kb());
        assert_eq!(out.len(), 1);
        assert!((out[0].num_attr("lat").unwrap() - 56.34).abs() < 1e-9);
        // Event without a payload cannot match a projection pattern.
        let out = e.on_event(t(1), &Event::new("loc"), &kb());
        assert!(out.is_empty());
    }

    #[test]
    fn literal_field_constraints_filter() {
        let src = r#"
            rule walkers {
                on l: event loc(user: ?u, on_foot: true)
                within 1m
                emit walking(user: ?u)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let walk = Event::new("loc").with_attr("user", "bob").with_attr("on_foot", true);
        let drive = Event::new("loc").with_attr("user", "anna").with_attr("on_foot", false);
        assert_eq!(e.on_event(t(0), &walk, &kb()).len(), 1);
        assert_eq!(e.on_event(t(1), &drive, &kb()).len(), 0);
    }

    #[test]
    fn hot_rule_addition_and_removal() {
        let mut e = MatchletEngine::new();
        assert!(!e.handles_kind("ping"));
        e.add_rules(r#"rule r { on a: event ping() emit pong() }"#).unwrap();
        assert!(e.handles_kind("ping"));
        assert_eq!(e.on_event(t(0), &Event::new("ping"), &kb()).len(), 1);
        assert!(e.remove_rule("r"));
        assert!(!e.remove_rule("r"));
        assert!(!e.handles_kind("ping"));
        assert_eq!(e.on_event(t(1), &Event::new("ping"), &kb()).len(), 0);
    }

    #[test]
    fn kind_index_tracks_rule_indices_after_removal() {
        let mut e = MatchletEngine::new();
        e.add_rules(
            r#"
            rule one { on a: event x() emit ox() }
            rule two { on a: event y() emit oy() }
            rule three { on a: event y() emit oz() }
            "#,
        )
        .unwrap();
        // Removing `one` shifts the indices of `two` and `three`.
        assert!(e.remove_rule("one"));
        assert!(!e.handles_kind("x"));
        let out = e.on_event(t(0), &Event::new("y"), &kb());
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].kind(), "oy");
        assert_eq!(out[1].kind(), "oz");
    }

    #[test]
    fn distillation_ratio() {
        let mut e = MatchletEngine::compile(
            r#"rule r { on a: event tick(n: ?n) where ?n = 0 emit rare() }"#,
        )
        .unwrap();
        for i in 0..100i64 {
            e.on_event(t(i as u64), &Event::new("tick").with_attr("n", i % 50), &kb());
        }
        assert_eq!(e.stats.events_out, 2);
        assert_eq!(e.stats.distillation_ratio(), 50.0);
    }

    #[test]
    fn cross_variable_join_narrows() {
        // The shared ?u across patterns requires the same user.
        let src = r#"
            rule same_user {
                on a: event enter(user: ?u)
                on b: event exit(user: ?u)
                within 1m
                emit visit(user: ?u)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        e.on_event(t(0), &Event::new("enter").with_attr("user", "bob"), &kb());
        let out = e.on_event(t(5), &Event::new("exit").with_attr("user", "anna"), &kb());
        assert!(out.is_empty(), "different users do not join");
        let out = e.on_event(t(6), &Event::new("exit").with_attr("user", "bob"), &kb());
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn hash_join_matches_nested_loop_on_deep_buffers() {
        // Buffer well past HASH_JOIN_MIN_BUFFER so the hash path runs,
        // with only a few compatible entries.
        let src = r#"
            rule same_user {
                on a: event enter(user: ?u, n: ?n)
                on b: event exit(user: ?u)
                within 10m
                emit visit(user: ?u, n: ?n)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        for i in 0..40i64 {
            let user = format!("user{}", i % 10);
            e.on_event(
                t(i as u64),
                &Event::new("enter").with_attr("user", user).with_attr("n", i),
                &kb(),
            );
        }
        // user3 entered 4 times (i = 3, 13, 23, 33).
        let out = e.on_event(t(50), &Event::new("exit").with_attr("user", "user3"), &kb());
        assert_eq!(out.len(), 4);
        let ns: Vec<f64> = out.iter().map(|ev| ev.num_attr("n").unwrap()).collect();
        assert_eq!(ns, vec![3.0, 13.0, 23.0, 33.0], "buffer order is preserved");
    }

    #[test]
    fn numeric_join_keys_cross_int_float() {
        // Int(3) in the buffer must hash-join with Float(3.0) probes,
        // mirroring eq_term's numeric equality.
        let src = r#"
            rule num {
                on a: event ia(v: ?v)
                on b: event fb(v: ?v)
                within 10m
                emit both(v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        for i in 0..20i64 {
            e.on_event(t(i as u64), &Event::new("ia").with_attr("v", i), &kb());
        }
        let out = e.on_event(t(30), &Event::new("fb").with_attr("v", 7.0), &kb());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].num_attr("v"), Some(7.0));
    }

    #[test]
    fn epsilon_equal_floats_join_even_with_deep_buffers() {
        // 0.1 + 0.2 != 0.3 bitwise but eq_term-equal; the join must not
        // lose the pair once the buffer is deep enough for the hash
        // path, so non-integral floats fall back to the nested loop.
        let src = r#"
            rule f {
                on a: event x(v: ?v)
                on b: event y(v: ?v)
                within 10m
                emit z(v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        for i in 0..20u64 {
            let v = if i == 5 { 0.1 + 0.2 } else { i as f64 + 0.5 };
            e.on_event(t(i), &Event::new("x").with_attr("v", v), &kb());
        }
        let out = e.on_event(t(30), &Event::new("y").with_attr("v", 0.3), &kb());
        assert_eq!(out.len(), 1, "epsilon-equal pair must join");
    }

    #[test]
    fn negative_zero_joins_with_positive_zero_at_depth() {
        // -0.0 and 0.0 are eq_term-equal with different bit patterns;
        // the hash path must bucket them together.
        let src = r#"
            rule f {
                on a: event x(v: ?v)
                on b: event y(v: ?v)
                within 10m
                emit z(v: ?v)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        for i in 0..20u64 {
            let v = if i == 5 { -0.0 } else { (i as f64) + 1.0 };
            e.on_event(t(i), &Event::new("x").with_attr("v", v), &kb());
        }
        let out = e.on_event(t(30), &Event::new("y").with_attr("v", 0.0), &kb());
        assert_eq!(out.len(), 1, "-0.0 buffered entry must join a +0.0 probe");
    }

    #[test]
    fn emit_errors_counted_and_skipped() {
        let src = r#"rule r { on a: event k() emit out(v: ?never_bound) }"#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let out = e.on_event(t(0), &Event::new("k"), &kb());
        assert!(out.is_empty());
        assert_eq!(e.stats.eval_errors, 1);
    }

    // --- knowledge churn and rule churn --------------------------------

    const FACT_RULE: &str = r#"
        rule suggest {
            on w: event weather(celsius: ?c)
            where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
            where ?c >= hot_threshold(?nat)
            within 1m
            emit suggest(user: ?u)
        }
    "#;

    #[test]
    fn repeated_events_hit_the_memo() {
        // Identical events re-solve against the knowledge base each time
        // and fire identically.
        let kb = kb();
        let mut e = MatchletEngine::compile(FACT_RULE).unwrap();
        let ev = Event::new("weather").with_attr("celsius", 20.0);
        for i in 0..10 {
            let out = e.on_event(t(i), &ev, &kb);
            assert_eq!(out.len(), 1, "bob suggested every event");
        }
    }

    #[test]
    fn fact_churn_invalidates_and_repairs_incrementally() {
        let mut kb = kb();
        let mut e = MatchletEngine::compile(FACT_RULE).unwrap();
        let ev = Event::new("weather").with_attr("celsius", 35.0);
        assert_eq!(e.on_event(t(0), &ev, &kb).len(), 2, "bob and anna");
        assert_eq!(e.on_event(t(1), &ev, &kb).len(), 2);
        // Anna stops liking ice cream: the next firing must see it.
        assert_eq!(kb.retract("anna", "likes", &Term::str("ice cream")), 1);
        assert_eq!(e.on_event(t(2), &ev, &kb).len(), 1, "only bob now");
        // A new fan appears mid-stream.
        kb.add(Fact::new("zoe", "likes", Term::str("ice cream")));
        kb.add(Fact::new("zoe", "nationality", Term::str("scottish")));
        let out = e.on_event(t(3), &ev, &kb);
        assert_eq!(out.len(), 2, "bob and zoe");
        assert_eq!(out[1].str_attr("user"), Some("zoe"));
    }

    #[test]
    fn validity_windows_expire_out_of_the_memories() {
        let mut kb = InMemoryFacts::new();
        kb.add(
            Fact::new("shop", "open", Term::Bool(true))
                .valid_between(SimTime::from_secs(100), SimTime::from_secs(200)),
        );
        let src = r#"
            rule visit {
                on p: event ping()
                where fact(?s, open, true)
                within 1m
                emit go(shop: ?s)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let ping = Event::new("ping");
        assert!(e.on_event(t(50), &ping, &kb).is_empty(), "not open yet");
        assert_eq!(e.on_event(t(150), &ping, &kb).len(), 1, "open");
        assert_eq!(e.on_event(t(160), &ping, &kb).len(), 1, "still open");
        assert!(e.on_event(t(250), &ping, &kb).is_empty(), "closed again");
    }

    #[test]
    fn rule_churn_invalidation_is_clean() {
        let mut kb = kb();
        let mut e = MatchletEngine::compile(FACT_RULE).unwrap();
        let ev = Event::new("weather").with_attr("celsius", 20.0);
        assert_eq!(e.on_event(t(0), &ev, &kb).len(), 1);
        // A second rule reading one of the first rule's predicates.
        e.add_rules(
            r#"rule fans { on q: event query() where fact(?u, likes, "ice cream") emit fan(user: ?u) }"#,
        )
        .unwrap();
        assert_eq!(e.on_event(t(1), &Event::new("query"), &kb).len(), 2);
        assert!(e.remove_rule("suggest"));
        assert!(e.on_event(t(2), &ev, &kb).is_empty(), "removed rule no longer fires");
        kb.add(Fact::new("zoe", "likes", Term::str("ice cream")));
        assert_eq!(e.on_event(t(3), &Event::new("query"), &kb).len(), 3);
        assert!(e.remove_rule("fans"));
        assert!(e.on_event(t(4), &Event::new("query"), &kb).is_empty());
    }

    #[test]
    fn clock_reading_rules_stay_on_the_direct_path() {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("shop", "closes_at", Term::Int(17 * 60)));
        let src = r#"
            rule open_now {
                on p: event ping()
                where fact(?s, closes_at, ?c)
                where minutes_of_day() < ?c
                within 1m
                emit go(shop: ?s)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        // 10:00: open. 18:00: closed. The rule reads `minutes_of_day()`,
        // so each firing must see the clock move.
        assert_eq!(e.on_event(SimTime::from_secs(10 * 3600), &Event::new("ping"), &kb).len(), 1);
        assert_eq!(
            e.on_event(SimTime::from_secs(10 * 3600 + 1), &Event::new("ping"), &kb).len(),
            1
        );
        assert!(e.on_event(SimTime::from_secs(18 * 3600), &Event::new("ping"), &kb).is_empty());
    }

    #[test]
    fn sources_without_a_change_feed_disable_memoisation() {
        /// A [`FactSource`] that implements only `query`, so it has no
        /// change feed and uses the default `for_each_at`.
        struct Opaque<'a>(&'a InMemoryFacts);
        impl FactSource for Opaque<'_> {
            fn query<'b>(
                &'b self,
                subject: Option<&'b str>,
                predicate: Option<&'b str>,
            ) -> Box<dyn Iterator<Item = &'b Fact> + 'b> {
                self.0.query(subject, predicate)
            }
        }
        let kb = kb();
        let mut e = MatchletEngine::compile(FACT_RULE).unwrap();
        let ev = Event::new("weather").with_attr("celsius", 20.0);
        assert_eq!(e.on_event(t(0), &ev, &Opaque(&kb)).len(), 1);
        assert_eq!(e.on_event(t(1), &ev, &Opaque(&kb)).len(), 1);
        // Switching between the two kinds of source changes nothing.
        assert_eq!(e.on_event(t(2), &ev, &kb).len(), 1);
        assert_eq!(e.on_event(t(3), &ev, &Opaque(&kb)).len(), 1);
    }

    #[test]
    fn memo_respects_join_provided_bindings() {
        // The goal reads ?u, which arrives bound from the event: each
        // user's firing must see only that user's facts.
        let src = r#"
            rule likes_what {
                on l: event seen(user: ?u)
                where fact(?u, likes, ?what)
                within 1m
                emit pref(user: ?u, what: ?what)
            }
        "#;
        let kb = kb();
        let mut e = MatchletEngine::compile(src).unwrap();
        let see = |u: &str| Event::new("seen").with_attr("user", u);
        assert_eq!(e.on_event(t(0), &see("bob"), &kb).len(), 1);
        assert_eq!(e.on_event(t(1), &see("anna"), &kb).len(), 1);
        let out = e.on_event(t(2), &see("bob"), &kb);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].str_attr("user"), Some("bob"));
    }

    #[test]
    fn nan_objects_retract_cleanly_from_the_alpha_index() {
        // NaN != NaN under PartialEq: a retracted NaN-valued fact must
        // still stop matching.
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("s", "score", Term::Float(f64::NAN)));
        let src = r#"rule r { on p: event ping() where fact(?u, score, ?v) emit out(u: ?u) }"#;
        let mut e = MatchletEngine::compile(src).unwrap();
        assert_eq!(e.on_event(t(0), &Event::new("ping"), &kb).len(), 1);
        kb.remove_subject("s");
        assert!(
            e.on_event(t(1), &Event::new("ping"), &kb).is_empty(),
            "retracted NaN fact must stop matching"
        );
    }

    #[test]
    fn memo_does_not_conflate_int_and_float_keys() {
        // Int(5) and Float(5.0) are eq_term-equal but divide differently;
        // each firing must divide the value its own event carried.
        let src = r#"
            rule halve {
                on k: event k(v: ?v)
                where fact(ok, is, true)
                where ?v / 2 > 1
                within 1m
                emit h(half: ?v / 2)
            }
        "#;
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("ok", "is", Term::Bool(true)));
        let mut e = MatchletEngine::compile(src).unwrap();
        let out = e.on_event(t(0), &Event::new("k").with_attr("v", 5i64), &kb);
        assert_eq!(out[0].num_attr("half"), Some(2.0), "integer division");
        let out = e.on_event(t(1), &Event::new("k").with_attr("v", 5.0), &kb);
        assert_eq!(out[0].num_attr("half"), Some(2.5), "float division");
    }

    // --- rules with overlapping goal chains -----------------------------

    #[test]
    fn shared_prefix_computed_once_feeds_sibling_rules() {
        let src = r#"
            rule fans {
                on q: event query()
                where fact(?u, likes, "ice cream")
                emit fan(user: ?u)
            }
            rule natl_fans {
                on q: event query()
                where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
                emit natl(user: ?u, nat: ?nat)
            }
        "#;
        let kb = kb();
        let mut e = MatchletEngine::compile(src).unwrap();
        assert_eq!(e.on_event(t(0), &Event::new("query"), &kb).len(), 4, "2 fans + 2 national");
        assert_eq!(e.on_event(t(1), &Event::new("query"), &kb).len(), 4);
    }

    #[test]
    fn beta_nodes_free_when_the_last_hosted_rule_leaves() {
        let src = r#"
            rule a {
                on q: event query()
                where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
                emit a(user: ?u)
            }
            rule b {
                on q: event query()
                where fact(?u, likes, "ice cream") and fact(?u, visited, ?p)
                emit b(user: ?u)
            }
        "#;
        let mut kb = kb();
        kb.add(Fact::new("bob", "visited", Term::str("market st")));
        let mut e = MatchletEngine::compile(src).unwrap();
        assert_eq!(e.on_event(t(0), &Event::new("query"), &kb).len(), 3, "a: bob+anna, b: bob");
        assert!(e.remove_rule("a"));
        // The surviving rule with the same goal prefix still fires.
        assert_eq!(e.on_event(t(1), &Event::new("query"), &kb).len(), 1);
        assert!(e.remove_rule("b"));
        assert!(e.on_event(t(2), &Event::new("query"), &kb).is_empty());
    }

    #[test]
    fn hoisted_filters_share_prefixes_across_placements() {
        // Rule a writes the filter *after* the second fact goal; rule b
        // writes it in hoisted position. Normalisation gives both the same
        // chain, and firings still reflect the filter.
        let src = r#"
            rule a {
                on q: event query()
                where fact(?u, likes, ?w) and fact(?u, nationality, ?n) and ?w != "golf"
                emit a(user: ?u)
            }
            rule b {
                on q: event query()
                where fact(?p, likes, ?q) and ?q != "golf" and fact(?p, nationality, ?m)
                emit b(user: ?p)
            }
        "#;
        let mut kb = kb();
        kb.add(Fact::new("zoe", "likes", Term::str("golf")));
        kb.add(Fact::new("zoe", "nationality", Term::str("scottish")));
        let mut e = MatchletEngine::compile(src).unwrap();
        for rule in e.rules() {
            let shape: Vec<bool> = rule.goals.iter().map(|g| matches!(g, Goal::Cond(_))).collect();
            assert_eq!(shape, [false, true, false], "filter between the two fact goals");
        }
        let out = e.on_event(t(0), &Event::new("query"), &kb);
        assert_eq!(out.len(), 4, "bob+anna for each rule; zoe filtered in both");
        assert!(out.iter().all(|ev| ev.str_attr("user") != Some("zoe")));
    }
}
