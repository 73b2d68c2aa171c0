//! Builtin functions of the matchlet language: the spatial, temporal and
//! contextual primitives the paper's correlations need ("the detection of
//! spatial, temporal and logical relationships", §1.1).

use crate::eval::EvalError;
use gloss_knowledge::{profile, Term};
use gloss_sim::{GeoPoint, SimTime};

/// Whether a call to `name` can read state outside its arguments — the
/// clock (`now`, zero-argument `minutes_of_day`) or the knowledge base
/// (the `fact` boolean form handled in `eval`). Static analysis never
/// constant-folds an expression that calls one of these; keep this list
/// in sync with [`call`] below when adding a builtin.
pub fn reads_dynamic_state(name: &str) -> bool {
    matches!(name, "fact" | "now" | "minutes_of_day")
}

/// Whether `name` is a builtin function (a bare identifier that is not a
/// builtin evaluates to itself as a string "atom"). Keep in sync with
/// [`call`].
pub fn is_builtin(name: &str) -> bool {
    matches!(
        name,
        "geo"
            | "distance_km"
            | "lat"
            | "lon"
            | "walk_minutes"
            | "now"
            | "minutes_of_day"
            | "seconds_between"
            | "hot_threshold"
            | "lower"
            | "contains"
            | "concat"
            | "abs"
            | "min"
            | "max"
    )
}

/// Evaluates builtin `name` on `args` at time `now`.
///
/// # Errors
///
/// Returns [`EvalError::UnknownFunction`] or [`EvalError::BadArguments`].
pub fn call(name: &str, args: &[Term], now: SimTime) -> Result<Term, EvalError> {
    let bad =
        || EvalError::BadArguments { function: name.to_string(), detail: format!("{args:?}") };
    match name {
        // --- spatial ---
        "geo" => match args {
            [a, b] => {
                let (lat, lon) = (a.as_f64().ok_or_else(bad)?, b.as_f64().ok_or_else(bad)?);
                Ok(Term::Geo(GeoPoint::new(lat, lon)))
            }
            _ => Err(bad()),
        },
        "distance_km" => match args {
            [a, b] => {
                let (x, y) = (a.as_geo().ok_or_else(bad)?, b.as_geo().ok_or_else(bad)?);
                Ok(Term::Float(x.distance_km(y)))
            }
            _ => Err(bad()),
        },
        "lat" => match args {
            [a] => Ok(Term::Float(a.as_geo().ok_or_else(bad)?.lat)),
            _ => Err(bad()),
        },
        "lon" => match args {
            [a] => Ok(Term::Float(a.as_geo().ok_or_else(bad)?.lon)),
            _ => Err(bad()),
        },
        // Walking time in minutes at 5 km/h.
        "walk_minutes" => match args {
            [a, b] => {
                let (x, y) = (a.as_geo().ok_or_else(bad)?, b.as_geo().ok_or_else(bad)?);
                Ok(Term::Float(x.distance_km(y) / 5.0 * 60.0))
            }
            _ => Err(bad()),
        },
        // --- temporal ---
        "now" => match args {
            [] => Ok(Term::Time(now)),
            _ => Err(bad()),
        },
        // Minutes since (simulated) midnight; the sim day is 24 h long.
        "minutes_of_day" => match args {
            [a] => {
                let t = a.as_time().ok_or_else(bad)?;
                Ok(Term::Int(((t.as_micros() / 60_000_000) % (24 * 60)) as i64))
            }
            [] => Ok(Term::Int(((now.as_micros() / 60_000_000) % (24 * 60)) as i64)),
            _ => Err(bad()),
        },
        "seconds_between" => match args {
            [a, b] => {
                let (x, y) = (a.as_time().ok_or_else(bad)?, b.as_time().ok_or_else(bad)?);
                let d = if x > y { x.since(y) } else { y.since(x) };
                Ok(Term::Float(d.as_secs_f64()))
            }
            _ => Err(bad()),
        },
        // --- contextual ---
        "hot_threshold" => match args {
            [a] => Ok(Term::Float(profile::hot_threshold_celsius(a.as_str()))),
            _ => Err(bad()),
        },
        // --- strings ---
        "lower" => match args {
            [Term::Str(s)] => Ok(Term::Str(s.to_lowercase().into())),
            _ => Err(bad()),
        },
        "contains" => match args {
            [Term::Str(h), Term::Str(n)] => Ok(Term::Bool(h.contains(n.as_ref() as &str))),
            _ => Err(bad()),
        },
        "concat" => match args {
            [Term::Str(a), Term::Str(b)] => Ok(Term::Str(format!("{a}{b}").into())),
            _ => Err(bad()),
        },
        // --- numeric ---
        "abs" => match args {
            [a] => Ok(Term::Float(a.as_f64().ok_or_else(bad)?.abs())),
            _ => Err(bad()),
        },
        "min" => match args {
            [a, b] => Ok(Term::Float(a.as_f64().ok_or_else(bad)?.min(b.as_f64().ok_or_else(bad)?))),
            _ => Err(bad()),
        },
        "max" => match args {
            [a, b] => Ok(Term::Float(a.as_f64().ok_or_else(bad)?.max(b.as_f64().ok_or_else(bad)?))),
            _ => Err(bad()),
        },
        other => Err(EvalError::UnknownFunction(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn spatial_builtins() {
        let g = call("geo", &[Term::Float(56.34), Term::Float(-2.80)], t0()).unwrap();
        assert!(g.as_geo().is_some());
        let h = call("geo", &[Term::Float(56.35), Term::Float(-2.80)], t0()).unwrap();
        let d = call("distance_km", &[g.clone(), h], t0()).unwrap();
        let km = d.as_f64().unwrap();
        assert!(km > 0.9 && km < 1.4, "1 degree lat ~ 1.1 km here: {km}");
        assert!(
            (call("lat", std::slice::from_ref(&g), t0()).unwrap().as_f64().unwrap() - 56.34).abs()
                < 1e-9
        );
        let w = call("walk_minutes", &[g.clone(), g], t0()).unwrap();
        assert_eq!(w.as_f64(), Some(0.0));
    }

    #[test]
    fn temporal_builtins() {
        let now = SimTime::from_secs(10 * 3600 + 30 * 60); // 10:30
        assert_eq!(call("now", &[], now).unwrap(), Term::Time(now));
        assert_eq!(call("minutes_of_day", &[], now).unwrap(), Term::Int(10 * 60 + 30));
        let d = call(
            "seconds_between",
            &[Term::Time(SimTime::from_secs(5)), Term::Time(SimTime::from_secs(12))],
            now,
        )
        .unwrap();
        assert_eq!(d.as_f64(), Some(7.0));
    }

    #[test]
    fn hot_threshold_builtin() {
        let scot = call("hot_threshold", &[Term::str("scottish")], t0()).unwrap();
        let aus = call("hot_threshold", &[Term::str("australian")], t0()).unwrap();
        assert!(scot.as_f64() < aus.as_f64());
    }

    #[test]
    fn string_builtins() {
        assert_eq!(
            call("lower", &[Term::str("Market Street")], t0()).unwrap(),
            Term::str("market street")
        );
        assert_eq!(
            call("contains", &[Term::str("market street"), Term::str("street")], t0()).unwrap(),
            Term::Bool(true)
        );
        assert_eq!(
            call("concat", &[Term::str("a"), Term::str("b")], t0()).unwrap(),
            Term::str("ab")
        );
    }

    #[test]
    fn numeric_builtins() {
        assert_eq!(call("abs", &[Term::Float(-2.5)], t0()).unwrap(), Term::Float(2.5));
        assert_eq!(call("min", &[Term::Int(3), Term::Int(5)], t0()).unwrap(), Term::Float(3.0));
        assert_eq!(call("max", &[Term::Int(3), Term::Int(5)], t0()).unwrap(), Term::Float(5.0));
    }

    #[test]
    fn errors() {
        assert!(matches!(call("warp_speed", &[], t0()), Err(EvalError::UnknownFunction(_))));
        assert!(matches!(
            call("geo", &[Term::str("x")], t0()),
            Err(EvalError::BadArguments { .. })
        ));
        assert!(matches!(
            call("distance_km", &[Term::Int(1), Term::Int(2)], t0()),
            Err(EvalError::BadArguments { .. })
        ));
    }
}
