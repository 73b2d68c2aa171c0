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
//!
//! [`pure_prefix`] then marks the leading goals the engine may also test
//! during the event join, before the full chain runs.

use crate::ast::{BinOp, Expr, Goal, Pat};
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

/// Collects every variable a goal reads: a fact goal's subject and object
/// variables, or a condition's expression variables.
pub fn collect_goal_vars(goal: &Goal, vars: &mut Vec<Symbol>) {
    match goal {
        Goal::Fact { subject, object, .. } => {
            for pat in [subject, object] {
                if let Pat::Var(v) = pat {
                    vars.push(*v);
                }
            }
        }
        Goal::Cond(expr) => collect_expr_vars(expr, vars),
    }
}

/// The length of the leading run of `goals` that is *pure* once the
/// event patterns have bound `pattern_vars` (sorted): every goal in it
/// binds no new variable and cannot error. These are
///
/// - `fact` goals whose variable arguments are all pattern-bound, and
/// - `=` / `!=` between pattern-bound variables and literals.
///
/// Such goals change no environment and never count an error, so their
/// conjunction commutes, and an environment that fails one of them ends
/// with no solution and no error whatever follows it in the chain.
pub fn pure_prefix(goals: &[Goal], pattern_vars: &[Symbol]) -> usize {
    let bound = |v: &Symbol| pattern_vars.binary_search(v).is_ok();
    let pure_operand = |e: &Expr| match e {
        Expr::Lit(_) => true,
        Expr::Var(v) => bound(v),
        _ => false,
    };
    goals
        .iter()
        .take_while(|goal| match goal {
            Goal::Fact { subject, object, .. } => {
                [subject, object].iter().all(|pat| !matches!(pat, Pat::Var(v) if !bound(v)))
            }
            Goal::Cond(Expr::Binary(BinOp::Eq | BinOp::Ne, l, r)) => {
                pure_operand(l) && pure_operand(r)
            }
            Goal::Cond(_) => false,
        })
        .count()
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
    fn pure_prefix_stops_at_the_first_binding_or_erring_goal() {
        let vars = |names: &[&str]| {
            let mut v: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
            v.sort_unstable();
            v
        };
        let pv = vars(&["x", "u"]);
        let c = normalised(
            "where ?u != ?x and fact(?u, knows, ?x) and fact(?u, likes, _) \
             and fact(?u, nationality, ?n) and fact(?u, likes, \"tea\")",
        );
        assert_eq!(pure_prefix(&c, &pv), 3, "?n is not pattern-bound");
        // An ordering test can error (strings vs numbers): not pure.
        assert_eq!(pure_prefix(&normalised("where ?x > 0 and fact(?x, likes, _)"), &pv), 0);
        // Equality with an unbound variable errors: not pure.
        assert_eq!(pure_prefix(&normalised("where ?x = ?y"), &pv), 0);
        assert_eq!(pure_prefix(&normalised("where ?x = 3 and fact(a, b, c)"), &pv), 2);
    }

    #[test]
    fn facts_never_reorder() {
        let c = normalised("where fact(?u, likes, ?w) and fact(?w, sold_at, ?s)");
        assert_eq!(predicate(&c[0]), "likes");
        assert_eq!(predicate(&c[1]), "sold_at");
    }
}
