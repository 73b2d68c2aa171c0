//! `perfledger --self-test`: a tiny pass of every workload, the metric
//! catalogue against `BENCHMARK.json`, and seed determinism.

use crate::{END_TO_END, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// Units whose values depend on wall-clock time (everything else is
/// simulated time or a count, and must repeat exactly per seed).
const WALL_UNITS: [&str; 3] = ["s", "us", "MB/s"];
const WALL_SUFFIXES: [&str; 2] = ["sim.speedup_2t", ".share"];

fn is_wall(name: &str, unit: &str) -> bool {
    WALL_UNITS.contains(&unit) || WALL_SUFFIXES.iter().any(|p| name.ends_with(p))
}

fn valid_name(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

struct Report {
    failures: usize,
}

impl Report {
    fn expect(&mut self, ok: bool, what: &str) {
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
        if !ok {
            self.failures += 1;
        }
    }
}

/// A run's result line: correct, attempted, failed, and metric
/// name → (value, unit).
#[derive(Debug, PartialEq)]
struct Result {
    head: (bool, u64, u64),
    metrics: BTreeMap<String, (f64, String)>,
}

impl Result {
    /// Counts and simulated-time metrics: what must repeat per seed.
    fn fixed(&self) -> (bool, u64, u64, Vec<(&String, u64)>) {
        let (c, a, f) = self.head;
        let m = self
            .metrics
            .iter()
            .filter(|(n, (_, u))| !is_wall(n, u))
            .map(|(n, (v, _))| (n, v.to_bits()));
        (c, a, f, m.collect())
    }
}

/// Runs this program with `args` and a tiny scale; parses the last line.
fn run(args: &[&str]) -> Option<Result> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe).args(args).args(["--scale", "tiny"]).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let json = Json::parse(text.trim_end().lines().last()?)?;
    let metrics = match json.get("metrics")? {
        Json::Obj(kv) => kv
            .iter()
            .map(|(k, v)| {
                Some((k.clone(), (v.get("value")?.as_num()?, v.get("unit")?.as_str()?.to_string())))
            })
            .collect::<Option<_>>()?,
        _ => return None,
    };
    let num = |k: &str| json.get(k)?.as_num().map(|v| v as u64);
    let correct = matches!(json.get("correct")?, Json::Lit(true));
    Some(Result { head: (correct, num("attempted")?, num("failed")?), metrics })
}

pub fn self_test() -> ExitCode {
    let mut r = Report { failures: 0 };
    let catalogue = std::fs::read_to_string("BENCHMARK.json").ok().and_then(|t| catalogue(&t));
    r.expect(catalogue.is_some(), "BENCHMARK.json is readable from the working directory");
    let (listed_e2e, listed_layer) = catalogue.unwrap_or_default();
    for (name, unit) in listed_e2e.iter().chain(&listed_layer) {
        r.expect(
            valid_name(name) && !unit.is_empty(),
            &format!("{name} ({unit}) is a valid name with a unit"),
        );
    }
    r.expect(
        END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
            == listed_e2e,
        "the end-to-end catalogue in code matches BENCHMARK.json",
    );
    let host = crate::probe::HostProbe::new().factor();
    r.expect(host.is_finite() && host > 0.0, &format!("the host probe reads a factor ({host:.3})"));
    for w in WORKLOADS {
        println!("workload {w} (tiny)");
        let e2e = run(&["--workload", w, "--seed", "1", "--seconds", "0", "--trace", "0"]);
        r.expect(
            e2e.as_ref().is_some_and(|e| e.head.1 > 0),
            "a tiny pass runs and attempts operations",
        );
        if let Some(e) = &e2e {
            same_names(&mut r, "end-to-end", &e.metrics, &listed_e2e);
        }
        let traced = |seed: &str| run(&["--workload", w, "--seed", seed, "--trace", "1"]);
        let (Some(a), Some(b), Some(other)) = (traced("1"), traced("1"), traced("2")) else {
            r.expect(false, "three tiny traced runs complete");
            continue;
        };
        same_names(&mut r, "per-layer", &a.metrics, &listed_layer);
        let (fa, fb) = (a.fixed(), b.fixed());
        let differing: Vec<&String> =
            fa.3.iter().zip(&fb.3).filter(|(x, y)| x != y).map(|(x, _)| x.0).collect();
        r.expect(
            fa == fb,
            &format!("same seed: identical outcome, counts and sim-time metrics (differing: {differing:?})"),
        );
        r.expect(
            a.fixed() != other.fixed() && a.head.1 > 0 && other.head.1 > 0,
            "another seed: the inputs change, so some count or sim-time metric changes",
        );
        r.expect(
            a.metrics.values().all(|(v, _)| v.is_finite()),
            "every traced metric is a finite number",
        );
    }
    if r.failures == 0 {
        println!("self-test passed");
        ExitCode::SUCCESS
    } else {
        println!("self-test: {} failure(s)", r.failures);
        ExitCode::FAILURE
    }
}

fn same_names(
    r: &mut Report,
    what: &str,
    emitted: &BTreeMap<String, (f64, String)>,
    listed: &[(String, String)],
) {
    let missing: Vec<&String> = listed
        .iter()
        .filter(|(n, u)| emitted.get(n).map(|(_, eu)| eu) != Some(u))
        .map(|(n, _)| n)
        .collect();
    let extra: Vec<&String> =
        emitted.keys().filter(|n| !listed.iter().any(|(l, _)| l == *n)).collect();
    r.expect(
        missing.is_empty() && extra.is_empty() && !listed.is_empty(),
        &format!("every {what} name in BENCHMARK.json is emitted with its unit (missing {missing:?}, unlisted {extra:?})"),
    );
}

type Listed = Vec<(String, String)>;

/// The `(name, unit)` pairs of BENCHMARK.json's `end_to_end` and
/// `per_layer` lists.
fn catalogue(text: &str) -> Option<(Listed, Listed)> {
    let json = Json::parse(text)?;
    let list = |key: &str| -> Option<Listed> {
        match json.get(key)? {
            Json::Arr(items) => items
                .iter()
                .map(|m| {
                    Some((
                        m.get("name")?.as_str()?.to_string(),
                        m.get("unit")?.as_str()?.to_string(),
                    ))
                })
                .collect(),
            _ => None,
        }
    };
    Some((list("end_to_end")?, list("per_layer")?))
}

/// Just enough JSON to read the benchmark's own catalogue.
enum Json {
    Str(String),
    Num(f64),
    Lit(bool),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(|c| c.is_ascii_whitespace()) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        (self.s.get(self.i) == Some(&c)).then(|| self.i += 1)
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b']').is_some() {
                        return Some(Json::Arr(items));
                    }
                    self.eat(b',')?;
                }
            }
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Json::Obj(kv));
                }
                loop {
                    self.ws();
                    let k = self.string()?;
                    self.eat(b':')?;
                    kv.push((k, self.value()?));
                    if self.eat(b'}').is_some() {
                        return Some(Json::Obj(kv));
                    }
                    self.eat(b',')?;
                }
            }
            b't' | b'f' | b'n' => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(u8::is_ascii_alphabetic) {
                    self.i += 1;
                }
                Some(Json::Lit(&self.s[start..self.i] == b"true"))
            }
            _ => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i]).ok()?.parse().ok().map(Json::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match *self.s.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).ok();
                }
                b'\\' => {
                    out.push(*self.s.get(self.i + 1)?);
                    self.i += 2;
                }
                c => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}
