//! Goal normalisation: the order in which the engine solves a rule's
//! `where` goals.
//!
//! [`normalise_goals`] hoists each condition to the earliest position at
//! which every variable it reads is already available — right after the
//! last *preceding* fact goal that first introduces one of its variables
//! (or to the front when none does). Fact goals never move, so solution
//! *enumeration order* is untouched: only fact goals multiply
//! environments, and a condition prunes the same environments wherever it
//! runs once its inputs are bound. A hoisted condition is evaluated once
//! per narrower environment, so rules that interleave filters with
//! enumeration get cheaper. (Error *counts* can shrink: a pruned branch
//! is pruned earlier.)

use crate::ast::{Expr, Goal, Pat};
use crate::symbol::Symbol;

/// Collects every variable an expression reads.
pub fn collect_expr_vars(expr: &Expr, vars: &mut Vec<Symbol>) {
    match expr {
        Expr::Lit(_) => {}
        Expr::Var(v) => vars.push(*v),
        Expr::Call(_, args) => args.iter().for_each(|a| collect_expr_vars(a, vars)),
        Expr::Binary(_, l, r) => {
            collect_expr_vars(l, vars);
            collect_expr_vars(r, vars);
        }
        Expr::Not(e) | Expr::Neg(e) => collect_expr_vars(e, vars),
    }
}

/// Hoists conditions to their earliest sound position (see module docs).
/// Fact goals keep their relative order; conditions move only earlier,
/// and conditions landing at the same position keep their written order.
pub fn normalise_goals(goals: &[Goal]) -> Vec<Goal> {
    // Level of a fact goal = its 1-based index among fact goals; level of
    // a condition = the highest level among the *preceding* fact goals
    // that first introduce one of its variables (0 if none). Sorting by
    // (level, facts-before-conds) stably is exactly the hoist.
    let mut intro: Vec<(Symbol, u32)> = Vec::new();
    let mut level = 0u32;
    let mut keyed: Vec<(u32, u8, &Goal)> = Vec::with_capacity(goals.len());
    for goal in goals {
        match goal {
            Goal::Fact { subject, object, .. } => {
                level += 1;
                for pat in [subject, object] {
                    if let Pat::Var(v) = pat {
                        if !intro.iter().any(|(s, _)| s == v) {
                            intro.push((*v, level));
                        }
                    }
                }
                keyed.push((level, 0, goal));
            }
            Goal::Cond(expr) => {
                let mut vars = Vec::new();
                collect_expr_vars(expr, &mut vars);
                let at = vars
                    .iter()
                    .filter_map(|v| intro.iter().find(|(s, _)| s == v).map(|(_, l)| *l))
                    .max()
                    .unwrap_or(0);
                keyed.push((at, 1, goal));
            }
        }
    }
    keyed.sort_by_key(|&(level, cond, _)| (level, cond));
    keyed.into_iter().map(|(_, _, g)| g.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_rules;

    fn normalised(body: &str) -> Vec<Goal> {
        let src = format!("rule r {{ on a: event k(x: ?x) {body} within 1m emit o() }}");
        normalise_goals(&parse_rules(&src).unwrap()[0].goals)
    }

    fn predicate(goal: &Goal) -> &str {
        match goal {
            Goal::Fact { predicate, .. } => predicate,
            Goal::Cond(_) => panic!("expected a fact goal, got {goal:?}"),
        }
    }

    #[test]
    fn conditions_hoist_to_their_introduction_point() {
        let c = normalised("where fact(?u, likes, ?w) and fact(?u, knows, ?k) and ?w != \"golf\"");
        // The filter reads ?w (introduced by goal 1): it hoists between
        // the two fact goals.
        assert!(matches!(c[0], Goal::Fact { .. }));
        assert!(matches!(c[1], Goal::Cond(_)));
        assert!(matches!(c[2], Goal::Fact { .. }));
        // ... which is where the filter-first spelling already puts it.
        let d = normalised("where fact(?u, likes, ?w) and ?w != \"golf\" and fact(?u, knows, ?k)");
        assert_eq!(c, d);
    }

    #[test]
    fn input_only_conditions_hoist_to_the_front() {
        let c = normalised("where fact(?u, likes, ?w) and ?x > 2");
        assert!(matches!(c[0], Goal::Cond(_)), "?x comes from the event pattern");
        assert_eq!(predicate(&c[1]), "likes");
    }

    #[test]
    fn facts_never_reorder() {
        let c = normalised("where fact(?u, likes, ?w) and fact(?w, sold_at, ?s)");
        assert_eq!(predicate(&c[0]), "likes");
        assert_eq!(predicate(&c[1]), "sold_at");
    }
}
