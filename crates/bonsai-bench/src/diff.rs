//! Structural + numeric diff of two same-schema bench artifacts, with
//! ranked human-readable attribution.
//!
//! This is the engine behind `gates diff` and the gate runner's byte pin:
//! given two `BENCH_*.json` documents it walks both JSON trees in lockstep and
//! reports every out-of-tolerance difference as a [`Delta`] whose path
//! names the phase × rank × metric it belongs to. Array elements are
//! matched by *identity keys* (`kernel`, `phase`, `term`, `rank`, …) when
//! present, so a reordered or grown array attributes changes to the right
//! row instead of smearing them across indices. Objects are walked in the
//! base's key order, then the keys only the current document has; an
//! integer and a float compare by value.

use std::collections::BTreeMap;

use bonsai_obs::json::{escape, fmt_f64, Value};

/// Keys that identify an array element (checked in order; the first ones
/// present form the element's label). These are the dimension columns of
/// every bench schema: a roofline row is `kernel` × `rank`, a residual row
/// is `term`, an alert row is `rule` × `step`, a view change is `epoch`,
/// a flow-ledger row is `link`, a wait-attribution row is `cause`.
const IDENTITY_KEYS: [&str; 15] = [
    "kernel", "phase", "term", "rule", "metric", "family", "name", "id", "rank", "step", "epoch",
    "decision", "link", "cause", "kind",
];

/// Numeric comparison tolerance: `a` and `b` agree when
/// `|a − b| ≤ abs + rel · max(|a|, |b|)`.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// Relative term.
    pub rel: f64,
    /// Absolute floor (absorbs denormal noise around zero).
    pub abs: f64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Self {
            rel: 0.05,
            abs: 1e-9,
        }
    }
}

impl Tolerance {
    /// Below half an ulp of relative difference: any two different numbers
    /// are a delta, and severity still ranks them by relative change. What
    /// a byte pin is explained with.
    pub const EXACT: Tolerance = Tolerance {
        rel: 1e-16,
        abs: 0.0,
    };

    /// The allowed band for a pair of values.
    fn band(&self, a: f64, b: f64) -> f64 {
        self.abs + self.rel * a.abs().max(b.abs())
    }
}

/// What kind of disagreement a delta records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaKind {
    /// Both sides numeric, difference outside tolerance.
    Numeric,
    /// Type mismatch, string change, or a key/element present on only one
    /// side.
    Structural,
}

/// One out-of-tolerance difference between the two artifacts.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Dotted path with identity-labelled array segments, e.g.
    /// `roofline[kernel=local,rank=2].seconds`.
    pub path: String,
    /// Rendered baseline value (`∅` when absent).
    pub base: String,
    /// Rendered current value (`∅` when absent).
    pub current: String,
    /// How far outside tolerance: `|a − b| / band` for numeric deltas
    /// (always > 1), `∞` for structural ones. The report ranks by this.
    pub severity: f64,
    /// Numeric or structural.
    pub kind: DeltaKind,
}

impl Delta {
    fn structural(path: &str, base: Option<&Value>, current: Option<&Value>) -> Self {
        Self {
            path: path.to_string(),
            base: base.map_or("∅".into(), render),
            current: current.map_or("∅".into(), render),
            severity: f64::INFINITY,
            kind: DeltaKind::Structural,
        }
    }
}

fn render(v: &Value) -> String {
    match v {
        Value::Null => "null".into(),
        Value::Bool(b) => b.to_string(),
        Value::Int(i) => i.to_string(),
        Value::Num(x) => fmt_f64(*x),
        Value::Str(s) => escape(s),
        Value::Arr(a) => format!("[…{} items]", a.len()),
        Value::Obj(m) => format!("{{…{} keys}}", m.len()),
    }
}

/// The identity label of an array element, if it carries any identity keys
/// (e.g. `kernel=local,rank=2`).
fn identity(v: &Value) -> Option<String> {
    let parts: Vec<String> = IDENTITY_KEYS
        .iter()
        .filter_map(|&k| {
            v.get(k).and_then(|x| match x {
                Value::Str(s) => Some(format!("{k}={s}")),
                Value::Int(_) | Value::Num(_) => Some(format!("{k}={}", render(x))),
                _ => None,
            })
        })
        .collect();
    if parts.is_empty() {
        None
    } else {
        Some(parts.join(","))
    }
}

/// Diff two parsed documents; returns every out-of-tolerance delta
/// (unranked — [`rank`] sorts them for presentation).
pub fn diff_values(base: &Value, current: &Value, tol: Tolerance) -> Vec<Delta> {
    let mut out = Vec::new();
    walk("", base, current, tol, &mut out);
    out
}

fn walk(path: &str, a: &Value, b: &Value, tol: Tolerance, out: &mut Vec<Delta>) {
    if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
        let band = tol.band(x, y);
        let d = (x - y).abs();
        if d > band && !(x.is_nan() && y.is_nan()) {
            out.push(Delta {
                path: path.to_string(),
                base: render(a),
                current: render(b),
                severity: if band > 0.0 { d / band } else { f64::INFINITY },
                kind: DeltaKind::Numeric,
            });
        }
        return;
    }
    match (a, b) {
        (Value::Obj(ma), Value::Obj(mb)) => {
            // The base's keys in its order, then the keys only the current
            // document has, in its order.
            let only_current = mb.iter().filter(|(k, _)| a.get(k).is_none());
            for (k, _) in ma.iter().chain(only_current) {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                match (a.get(k), b.get(k)) {
                    (Some(x), Some(y)) => walk(&sub, x, y, tol, out),
                    (x, y) => out.push(Delta::structural(&sub, x, y)),
                }
            }
        }
        (Value::Arr(xs), Value::Arr(ys)) => diff_arrays(path, xs, ys, tol, out),
        _ if a == b => {}
        _ => out.push(Delta::structural(path, Some(a), Some(b))),
    }
}

fn diff_arrays(path: &str, xs: &[Value], ys: &[Value], tol: Tolerance, out: &mut Vec<Delta>) {
    // Identity-keyed matching when every element on both sides is
    // labelled; positional otherwise.
    let lx: Option<Vec<String>> = xs.iter().map(identity).collect();
    let ly: Option<Vec<String>> = ys.iter().map(identity).collect();
    if let (Some(lx), Some(ly)) = (lx, ly) {
        let ma: BTreeMap<&String, &Value> = lx.iter().zip(xs).collect();
        let mb: BTreeMap<&String, &Value> = ly.iter().zip(ys).collect();
        if ma.len() == xs.len() && mb.len() == ys.len() {
            let keys: std::collections::BTreeSet<&&String> = ma.keys().chain(mb.keys()).collect();
            for k in keys {
                let sub = format!("{path}[{k}]");
                match (ma.get(*k), mb.get(*k)) {
                    (Some(x), Some(y)) => walk(&sub, x, y, tol, out),
                    (x, y) => out.push(Delta::structural(&sub, x.copied(), y.copied())),
                }
            }
            return;
        }
    }
    if xs.len() != ys.len() {
        out.push(Delta::structural(
            &format!("{path}.length"),
            Some(&Value::from(xs.len())),
            Some(&Value::from(ys.len())),
        ));
    }
    for (i, (x, y)) in xs.iter().zip(ys).enumerate() {
        walk(&format!("{path}[{i}]"), x, y, tol, out);
    }
}

/// Rank deltas most-severe first (structural above everything, then by
/// excess ratio, ties broken by path for determinism).
pub fn rank(mut deltas: Vec<Delta>) -> Vec<Delta> {
    deltas.sort_by(|a, b| {
        b.severity
            .partial_cmp(&a.severity)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.path.cmp(&b.path))
    });
    deltas
}

/// Human-readable ranked report.
pub fn render_report(deltas: &[Delta], tol: Tolerance) -> String {
    let mut s = String::new();
    if deltas.is_empty() {
        s.push_str(&format!(
            "no deltas outside tolerance (rel {}, abs {})\n",
            fmt_f64(tol.rel),
            fmt_f64(tol.abs)
        ));
        return s;
    }
    s.push_str(&format!(
        "{} delta(s) outside tolerance (rel {}, abs {}), most severe first:\n",
        deltas.len(),
        fmt_f64(tol.rel),
        fmt_f64(tol.abs)
    ));
    for d in deltas {
        let sev = if d.severity.is_finite() {
            format!("{:.1}x", d.severity)
        } else {
            "structural".into()
        };
        s.push_str(&format!(
            "  [{sev:>10}] {}: {} -> {}\n",
            d.path, d.base, d.current
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_obs::json::parse;

    fn d(a: &str, b: &str) -> Vec<Delta> {
        rank(diff_values(
            &parse(a).unwrap(),
            &parse(b).unwrap(),
            Tolerance::default(),
        ))
    }

    #[test]
    fn identical_documents_have_no_deltas() {
        let doc = r#"{"schema": "bonsai-step-v1", "x": [1.0, 2.0], "s": "ok"}"#;
        assert!(d(doc, doc).is_empty());
    }

    #[test]
    fn small_numeric_drift_is_within_tolerance() {
        assert!(d(r#"{"x": 100.0}"#, r#"{"x": 104.0}"#).is_empty());
        let out = d(r#"{"x": 100.0}"#, r#"{"x": 120.0}"#);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].kind, DeltaKind::Numeric);
        assert!(out[0].severity > 1.0);
        assert_eq!(out[0].path, "x");
    }

    #[test]
    fn identity_keyed_arrays_attribute_by_row_not_index() {
        // Rows swap order and `local` slows down: only the `local` row's
        // seconds should be flagged, under its identity label.
        let base = r#"{"roofline": [
            {"kernel": "local", "rank": 0, "seconds": 1.0},
            {"kernel": "sort", "rank": 0, "seconds": 0.5}]}"#;
        let cur = r#"{"roofline": [
            {"kernel": "sort", "rank": 0, "seconds": 0.5},
            {"kernel": "local", "rank": 0, "seconds": 2.0}]}"#;
        let out = d(base, cur);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].path, "roofline[kernel=local,rank=0].seconds");
    }

    #[test]
    fn missing_rows_and_type_changes_are_structural() {
        let base = r#"{"rows": [{"term": "sort", "s": 1.0}], "v": 1.0}"#;
        let cur = r#"{"rows": [], "v": "one"}"#;
        let out = d(base, cur);
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|x| x.kind == DeltaKind::Structural));
        assert!(out.iter().any(|x| x.path == "rows[term=sort]"));
        assert!(out.iter().any(|x| x.path == "v"));
    }

    #[test]
    fn ranking_puts_the_largest_excess_first() {
        let base = r#"{"a": 1.0, "b": 1.0, "c": true}"#;
        let cur = r#"{"a": 1.2, "b": 10.0, "c": false}"#;
        let out = d(base, cur);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].path, "c"); // structural outranks numeric
        assert_eq!(out[1].path, "b"); // 9.0 over a ~0.5 band
        assert_eq!(out[2].path, "a");
        let report = render_report(&out, Tolerance::default());
        assert!(report.contains("3 delta(s)"));
        assert!(report.contains("structural"));
    }

    #[test]
    fn empty_report_names_the_tolerance() {
        let report = render_report(&[], Tolerance::default());
        assert!(report.contains("no deltas"));
        assert!(report.contains("0.05"));
    }
}
