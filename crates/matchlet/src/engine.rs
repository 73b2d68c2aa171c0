//! The matchlet engine: windowed multi-event joins driving rule firing.
//!
//! The hot path is indexed and allocation-lean:
//!
//! - a **kind index** maps event kinds to the `(rule, pattern)` pairs
//!   that listen for them, so an event never touches a rule that cannot
//!   match it (and [`MatchletEngine::handles_kind`] is O(1));
//! - pattern fields are **precompiled** (attribute name vs. parsed XPath
//!   projection), so matching never re-parses keys;
//! - bindings are flat `(Symbol, Term)` vectors ([`Bindings`]), so
//!   environments clone in one allocation and compare keys by integer.
//!
//! A multi-pattern firing fixes the new event at one pattern and joins
//! the other patterns' buffers in index order. The rule's *pure* goals
//! (the leading run of the chain that binds nothing and cannot error,
//! [`crate::canonical::pure_prefix`]) run inside that join, compiled
//! once per fixed pattern into a [`FiringPlan`]:
//!
//! - goals over the fixed pattern alone are checked once, and a failure
//!   ends the firing;
//! - goals over the fixed pattern and one partner filter that partner's
//!   buffer into a per-firing **view**, in buffer order (condition-level
//!   filtering before the join, as in TREAT);
//! - each stage joins its view through a **hash join** keyed on the
//!   variables it shares with what is already bound (a nested loop for
//!   tiny views). A stage that shares none but is reached by a linking
//!   goal `fact(?x, pred, ?y)` is **probed** instead: each environment
//!   enumerates its `?x`'s `pred` facts and visits only the view entries
//!   whose `?y` one of them names (a semi-join through the knowledge
//!   index). Only what no index applies to is a cartesian nested loop.
//!
//! Pruning by a pure goal is exact: an environment failing one ends with
//! no solution and no error. Every surviving environment still solves
//! the rule's whole `where` chain from scratch against the knowledge
//! base, in the order [`crate::canonical::normalise_goals`] gives it:
//! each condition runs as soon as the variables it reads are bound. So
//! firings, their order and multiplicity, and error counts are those of
//! the plain cross product. There is one solve path; nothing outlives a
//! firing, so fact churn, validity windows and the clock builtins need
//! no invalidation. Equivalence with a naive reference engine under
//! random event, fact and rule churn is property-tested in
//! `tests/engine_equivalence.rs`.

use crate::ast::{EventPattern, Goal, Pat, Rule};
use crate::canonical::{collect_goal_vars, normalise_goals, pure_prefix};
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

/// A linking goal `fact(?subject, predicate, ?object)` whose subject is
/// bound before a join stage and whose object that stage binds first.
#[derive(Debug, Clone, PartialEq)]
struct Link {
    subject: Symbol,
    predicate: String,
    object: Symbol,
}

/// How a firing with one pattern fixed uses the rule's pure goals inside
/// the join (see the module docs). A goal is placed by where each
/// variable it reads gets its first binding in join order — the fixed
/// pattern, then the others in index order — so it reads exactly the
/// values the full environment will hold.
#[derive(Debug, Clone, PartialEq)]
struct FiringPlan {
    /// Goals reading only the fixed pattern: checked once per firing.
    fixed: Vec<Goal>,
    /// Per pattern: goals reading that partner and the fixed pattern,
    /// which filter the partner's buffer into the firing's view.
    filters: Vec<Vec<Goal>>,
    /// Per pattern: the linking goal that probes the partner's view.
    probes: Vec<Option<Link>>,
}

impl FiringPlan {
    fn new(compiled: &[CompiledPattern], pure: &[Goal], fixed: usize) -> Self {
        let n = compiled.len();
        let order: Vec<usize> =
            std::iter::once(fixed).chain((0..n).filter(|&p| p != fixed)).collect();
        // Join position of the pattern that first binds `v` (pure goals
        // read only pattern-bound variables, so there is one).
        let first = |v: Symbol| {
            order.iter().position(|&p| compiled[p].vars.binary_search(&v).is_ok()).unwrap_or(0)
        };
        let mut plan =
            FiringPlan { fixed: Vec::new(), filters: vec![Vec::new(); n], probes: vec![None; n] };
        for goal in pure {
            if let Goal::Fact { subject: Pat::Var(x), predicate, object: Pat::Var(y) } = goal {
                let (sx, sy) = (first(*x), first(*y));
                let p = order[sy];
                // The stage must share no variable with what is already
                // bound: every variable of `p` is first bound at `p`.
                if sx < sy
                    && plan.probes[p].is_none()
                    && compiled[p].vars.iter().all(|v| first(*v) == sy)
                {
                    plan.probes[p] =
                        Some(Link { subject: *x, predicate: predicate.clone(), object: *y });
                    continue;
                }
            }
            let mut vars = Vec::new();
            collect_goal_vars(goal, &mut vars);
            let mut partners: Vec<usize> = vars.into_iter().map(first).filter(|&s| s > 0).collect();
            partners.sort_unstable();
            partners.dedup();
            match partners[..] {
                [] => plan.fixed.push(goal.clone()),
                [s] => plan.filters[order[s]].push(goal.clone()),
                _ => {}
            }
        }
        plan
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
    /// Per fixed pattern (parallel to `compiled`): how a firing with that
    /// pattern fixed uses the pure goals inside the join.
    plans: Vec<FiringPlan>,
    /// How many times the rule has fired.
    pub fired: u64,
}

impl CompiledRule {
    fn new(rule: Rule) -> Self {
        let compiled: Vec<CompiledPattern> =
            rule.patterns.iter().map(CompiledPattern::new).collect();
        let buffers = vec![VecDeque::new(); rule.patterns.len()];
        let emit_kind = Arc::from(rule.emit.kind.as_str());
        let emit_keys = rule.emit.fields.iter().map(|(k, _)| Arc::from(k.as_str())).collect();
        let goals = normalise_goals(&rule.goals);
        let mut pattern_vars: Vec<Symbol> =
            compiled.iter().flat_map(|cp| cp.vars.iter().copied()).collect();
        pattern_vars.sort_unstable();
        pattern_vars.dedup();
        let pure = &goals[..pure_prefix(&goals, &pattern_vars)];
        let plans =
            (0..compiled.len()).map(|fixed| FiringPlan::new(&compiled, pure, fixed)).collect();
        CompiledRule { rule, compiled, buffers, emit_kind, emit_keys, goals, plans, fired: 0 }
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

/// Views below this size join by nested loop: building a hash table
/// costs more than scanning a handful of entries.
const HASH_JOIN_MIN_BUFFER: usize = 8;

/// Joins the fixed bindings against the other patterns' buffers and
/// fires the rule's goals/emit for every complete join environment.
///
/// The rule's [`FiringPlan`] for the fixed pattern prunes first: its
/// fixed goals are checked once, and each partner's buffer is filtered
/// into a view. Each stage then visits, per environment, only the view
/// entries that can join: through a hash table keyed on a fingerprint of
/// the shared variables' values, or, at a probed stage, on the linking
/// goal's object. Fingerprint collisions are harmless because `merge`
/// re-verifies every shared binding and `fire` solves the whole chain.
#[allow(clippy::too_many_arguments)]
fn join_and_fire(
    rule: &CompiledRule,
    fixed_pattern: usize,
    mut fixed_bindings: Bindings,
    kb: &dyn FactSource,
    now: SimTime,
    out: &mut Vec<Event>,
    fired: &mut u64,
    errors: &mut u64,
) {
    let plan = &rule.plans[fixed_pattern];
    if !plan.fixed.iter().all(|goal| holds(goal, &mut fixed_bindings, kb, now)) {
        return;
    }
    // Filter every partner's buffer before joining: an empty view means
    // no complete environment, so the firing ends before any join work.
    let mut views: Vec<Vec<&Bindings>> = Vec::with_capacity(rule.buffers.len());
    for (p, buffer) in rule.buffers.iter().enumerate() {
        if p == fixed_pattern {
            views.push(Vec::new());
            continue;
        }
        let filters = &plan.filters[p];
        let mark = fixed_bindings.len();
        let entries = buffer.iter().map(|(_, buffered)| buffered);
        let view: Vec<&Bindings> = if filters.is_empty() {
            entries.collect()
        } else {
            entries
                .filter(|buffered| {
                    // The filters read only the fixed pattern's values
                    // and the variables this entry binds first.
                    for (v, term) in buffered.iter() {
                        if fixed_bindings.get_sym(v).is_none() {
                            fixed_bindings.insert_sym(v, term.clone());
                        }
                    }
                    let keep = filters.iter().all(|goal| holds(goal, &mut fixed_bindings, kb, now));
                    fixed_bindings.truncate(mark);
                    keep
                })
                .collect()
        };
        if view.is_empty() {
            return;
        }
        views.push(view);
    }

    let mut envs = vec![fixed_bindings];
    // Variables bound so far (sorted): fixed pattern first, then each
    // joined pattern's in turn.
    let mut bound: Vec<Symbol> = rule.compiled[fixed_pattern].vars.clone();
    let stages = rule.compiled.len() - 1;
    let mut stage = 0;
    let mut hits: Vec<usize> = Vec::new();
    for (p, cp) in rule.compiled.iter().enumerate() {
        if p == fixed_pattern {
            continue;
        }
        stage += 1;
        let view = &views[p];
        let join_vars: Vec<Symbol> =
            cp.vars.iter().copied().filter(|v| bound.binary_search(v).is_ok()).collect();

        // On the last stage, fire each merged environment directly
        // instead of materialising one more `envs` vector.
        let last = stage == stages;
        let mut next = Vec::with_capacity(if last { 0 } else { envs.len() });
        let mut sink = |env: &Bindings, buffered: &Bindings, out: &mut Vec<Event>| {
            if let Some(child) = env.merged(buffered) {
                if last {
                    fire(rule, child, kb, now, out, fired, errors);
                } else {
                    next.push(child);
                }
            }
        };
        // A probed stage shares no variable with `bound` (the plan only
        // links such stages), so it never also has join variables.
        let probe = plan.probes[p].as_ref();
        let table = match probe {
            Some(link) => key_table(view, std::slice::from_ref(&link.object)),
            None if !join_vars.is_empty() && view.len() >= HASH_JOIN_MIN_BUFFER => {
                key_table(view, &join_vars)
            }
            None => None,
        };
        for env in &envs {
            // The view entries this environment can join, in view
            // order; `None` scans the whole view.
            let candidates: Option<&[usize]> = match (&table, probe) {
                (None, _) => None,
                (Some(table), Some(link)) => {
                    link_hits(link, env, table, kb, now, &mut hits).then_some(&hits[..])
                }
                (Some(table), None) => join_key(env, &join_vars)
                    .map(|key| table.get(&key).map_or(&[][..], Vec::as_slice)),
            };
            match candidates {
                Some(indices) => indices.iter().for_each(|&i| sink(env, view[i], out)),
                None => view.iter().for_each(|buffered| sink(env, buffered, out)),
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

/// Whether a pure goal holds under `env`, solved by the same
/// [`solve_mut`] as the full chain so the two always agree.
fn holds(goal: &Goal, env: &mut Bindings, kb: &dyn FactSource, now: SimTime) -> bool {
    let mut found = false;
    solve_mut(std::slice::from_ref(goal), env, kb, now, &mut |_| found = true);
    found
}

/// Indexes a view by the fingerprint of `vars`' values: key → view
/// indices in view order. `None` when some entry's key is not faithful
/// to [`Term::eq_term`] ([`join_key`]), so the stage must scan instead.
fn key_table(view: &[&Bindings], vars: &[Symbol]) -> Option<FnvHashMap<u64, Vec<usize>>> {
    let mut table: FnvHashMap<u64, Vec<usize>> =
        FnvHashMap::with_capacity_and_hasher(view.len(), Default::default());
    for (idx, buffered) in view.iter().enumerate() {
        table.entry(join_key(buffered, vars)?).or_default().push(idx);
    }
    Some(table)
}

/// Collects into `hits`, in view order and without repeats, the view
/// entries whose linked variable is the object of some `link` fact about
/// `env`'s subject valid at `now`. Returns `false` when the probe cannot
/// be exact (the subject is not a string, or a fact's object has no
/// faithful key) and the caller must scan the whole view.
fn link_hits(
    link: &Link,
    env: &Bindings,
    table: &FnvHashMap<u64, Vec<usize>>,
    kb: &dyn FactSource,
    now: SimTime,
    hits: &mut Vec<usize>,
) -> bool {
    hits.clear();
    let Some(Term::Str(subject)) = env.get_sym(link.subject) else {
        return false;
    };
    let mut exact = true;
    kb.for_each_at(Some(subject), Some(&link.predicate), now, &mut |fact| {
        let Some(key) = term_key(&fact.object) else {
            exact = false;
            return;
        };
        if let Some(bucket) = table.get(&key) {
            hits.extend_from_slice(bucket);
        }
    });
    // Duplicate facts name an entry more than once; the full chain
    // enumerates them again, so each entry is visited once.
    hits.sort_unstable();
    hits.dedup();
    exact
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
    let mut h = gloss_sim::FnvHasher::default();
    for &v in join_vars {
        hash_term(&mut h, env.get_sym(v)?)?;
    }
    Some(std::hash::Hasher::finish(&h))
}

/// [`join_key`] of a single value: a fact object keys the same bucket as
/// a view entry binding its linked variable to an `eq_term`-equal value.
fn term_key(term: &Term) -> Option<u64> {
    let mut h = gloss_sim::FnvHasher::default();
    hash_term(&mut h, term)?;
    Some(std::hash::Hasher::finish(&h))
}

/// Feeds one value into a [`join_key`] fingerprint, or `None` when it
/// cannot be hashed faithfully.
fn hash_term(h: &mut gloss_sim::FnvHasher, term: &Term) -> Option<()> {
    use std::hash::Hasher as _;
    // IEEE 754 zero has two bit patterns (+0.0 / -0.0) that compare
    // equal; hash them identically.
    fn norm_bits(f: f64) -> u64 {
        (if f == 0.0 { 0.0 } else { f }).to_bits()
    }
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
    Some(())
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

    // --- pure goals inside the join ------------------------------------

    /// The paper's flagship rule, as the ice-cream scenario deploys it.
    const ICE_CREAM_RULES: &str = include_str!("../../core/src/matchlets/ice_cream.matchlet");

    /// A plan's goals, rendered as predicate names (`cond` for conditions).
    fn shape(goals: &[Goal]) -> Vec<&str> {
        goals
            .iter()
            .map(|g| match g {
                Goal::Fact { predicate, .. } => predicate.as_str(),
                Goal::Cond(_) => "cond",
            })
            .collect()
    }

    fn link(subject: &str, predicate: &str, object: &str) -> Option<Link> {
        Some(Link {
            subject: Symbol::intern(subject),
            predicate: predicate.to_string(),
            object: Symbol::intern(object),
        })
    }

    #[test]
    fn ice_cream_plan_filters_fans_and_probes_friends() {
        let e = MatchletEngine::compile(ICE_CREAM_RULES).unwrap();
        let rule = &e.rules()[0];
        let [w, b, f] = &rule.plans[..] else { panic!("three patterns: w, b, f") };
        // Weather fixed: `likes` filters the on-foot buffer, and `knows`
        // probes the friend stage from each walker's ?u.
        assert!(w.fixed.is_empty());
        assert_eq!(
            w.filters.iter().map(|g| shape(g)).collect::<Vec<_>>(),
            [vec![], vec!["likes"], vec![]]
        );
        assert_eq!(w.probes, [None, None, link("u", "knows", "v")]);
        // A walker fixed: `likes` is checked once, before any join.
        assert_eq!(shape(&b.fixed), ["likes"]);
        assert_eq!(shape(&b.filters[2]), ["cond"], "?u != ?v filters the friends");
        assert_eq!(b.probes, [None, None, link("u", "knows", "v")]);
        // A friend fixed: `knows` reads ?v from the fixed event, so it
        // filters the walkers with the other pure goals.
        assert!(f.fixed.is_empty());
        assert_eq!(shape(&f.filters[1]), ["cond", "knows", "likes"]);
        assert_eq!(f.probes, [None, None, None]);
    }

    /// A walker/friend rule linked by `knows`, for the probe tests.
    const LINKED: &str = r#"
        rule walk_with {
            on a: event walker(user: ?u)
            on b: event friend(user: ?v, n: ?n)
            where fact(?u, knows, ?v)
            within 10m
            emit pair(u: ?u, v: ?v, n: ?n)
        }
    "#;

    fn walker(u: &str) -> Event {
        Event::new("walker").with_attr("user", u)
    }

    fn friend(v: impl Into<AttrValue>, n: i64) -> Event {
        Event::new("friend").with_attr("user", v).with_attr("n", n)
    }

    #[test]
    fn duplicate_link_facts_keep_their_multiplicity_and_buffer_order() {
        let mut kb = kb();
        kb.add(Fact::new("bob", "knows", Term::str("anna")));
        kb.add(Fact::new("bob", "knows", Term::str("anna")));
        kb.add(Fact::new("bob", "knows", Term::str("zoe")));
        let mut e = MatchletEngine::compile(LINKED).unwrap();
        assert_eq!(e.rules()[0].plans[0].probes[1], link("u", "knows", "v"));
        for i in 0..12 {
            let who = match i {
                0 | 5 | 10 => "anna".to_string(),
                3 => "zoe".to_string(),
                _ => format!("u{i}"),
            };
            e.on_event(t(i as u64), &friend(who.as_str(), i), &kb);
        }
        let out = e.on_event(t(20), &walker("bob"), &kb);
        let ns: Vec<f64> = out.iter().map(|ev| ev.num_attr("n").unwrap()).collect();
        // Each anna entry fires once per `knows` fact, and entries reached
        // through different facts keep their buffer order.
        assert_eq!(ns, [0.0, 0.0, 3.0, 5.0, 5.0, 10.0, 10.0]);
        assert_eq!(e.rules()[0].fired, 7);
    }

    #[test]
    fn non_integral_link_values_scan_and_join_epsilon_equal_partners() {
        let mut kb = InMemoryFacts::new();
        kb.add(Fact::new("bob", "knows", Term::Float(0.3)));
        kb.add(Fact::new("eve", "knows", Term::Float(7.0 + 1e-13)));
        let mut e = MatchletEngine::compile(LINKED).unwrap();
        // A view holding non-integral values has no faithful key table.
        for i in 0..12 {
            let v = if i == 5 { 0.1 + 0.2 } else { i as f64 + 0.5 };
            e.on_event(t(i), &friend(v, i as i64), &kb);
        }
        let out = e.on_event(t(20), &walker("bob"), &kb);
        assert_eq!(out.len(), 1, "0.1 + 0.2 joins the 0.3 link");
        assert_eq!(out[0].num_attr("n"), Some(5.0));
        // An integral view is keyed, but a non-integral link object has
        // no faithful key: that probe scans the view.
        let mut e = MatchletEngine::compile(LINKED).unwrap();
        for i in 0..12i64 {
            e.on_event(t(i as u64), &friend(i, i), &kb);
        }
        let out = e.on_event(t(20), &walker("eve"), &kb);
        assert_eq!(out.len(), 1, "7 + 1e-13 joins the Int(7) friend");
        assert_eq!(out[0].num_attr("n"), Some(7.0));
    }

    #[test]
    fn link_facts_stop_matching_when_their_validity_ends() {
        let mut kb = InMemoryFacts::new();
        kb.add(
            Fact::new("bob", "knows", Term::str("anna"))
                .valid_between(SimTime::from_secs(100), SimTime::from_secs(200)),
        );
        let mut e = MatchletEngine::compile(LINKED).unwrap();
        let mut fires = Vec::new();
        for secs in [50u64, 150, 250] {
            e.on_event(t(secs), &friend("anna", secs as i64), &kb);
            fires.push(e.on_event(t(secs + 1), &walker("bob"), &kb).len());
        }
        assert_eq!(fires, [0, 2, 0], "inside the window bob joins both buffered anna events");
    }

    #[test]
    fn an_erring_condition_stops_the_pushdown_where_it_stands() {
        let src = r#"
            rule r {
                on a: event x(who: ?u)
                on b: event y(n: ?n)
                where ?u != "nobody" and ?n > 0 and fact(?u, likes, "ice cream")
                within 10m
                emit z(u: ?u)
            }
        "#;
        let mut e = MatchletEngine::compile(src).unwrap();
        let plan = &e.rules()[0].plans[0];
        assert_eq!(shape(&plan.fixed), ["cond"], "only ?u != \"nobody\" precedes ?n > 0");
        assert!(plan.filters.iter().all(Vec::is_empty));
        assert!(plan.probes.iter().all(Option::is_none));
        for i in 0..3 {
            e.on_event(t(i), &Event::new("y").with_attr("n", "text"), &kb());
        }
        // zoe likes nothing, but `?n > 0` errs on every environment
        // before `likes` can prune it: three errors, as in the chain.
        assert!(e.on_event(t(5), &Event::new("x").with_attr("who", "zoe"), &kb()).is_empty());
        assert_eq!(e.stats.eval_errors, 3);
        // "nobody" fails the pure goal ahead of the erring one: no error.
        assert!(e.on_event(t(6), &Event::new("x").with_attr("who", "nobody"), &kb()).is_empty());
        assert_eq!(e.stats.eval_errors, 3);
    }
}
