//! Chrome trace-event JSON export.
//!
//! Produces the [Trace Event Format] consumed by Perfetto
//! (<https://ui.perfetto.dev>) and `chrome://tracing`: one *process* per
//! rank, one *thread* per lane (GPU / COMM / CPU), complete (`"X"`) events
//! for spans, instant (`"i"`) events for faults, and flow (`"s"`/`"t"`/
//! `"f"`) events for cross-rank message arrows (Perfetto joins points that
//! share an id into an arrow binding to the enclosing spans). Timestamps
//! are microseconds with fixed 3-decimal precision, so identical stores
//! export byte-identically.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use crate::json::{escape, fmt_f64};
use crate::span::{ArgValue, FlowPhase, Lane, TraceStore};

/// Seconds → trace microseconds, fixed precision.
fn ts(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e6)
}

fn args_json(args: &[(&'static str, ArgValue)]) -> String {
    let fields: Vec<String> = args
        .iter()
        .map(|(k, v)| {
            let val = match v {
                ArgValue::F64(x) => fmt_f64(*x),
                ArgValue::U64(x) => x.to_string(),
                ArgValue::Str(s) => escape(s),
            };
            format!("{}:{}", escape(k), val)
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Export `store` as a Chrome trace-event JSON document.
pub fn chrome_trace_json(store: &TraceStore) -> String {
    // (pid, tid, ts-string, event-json); sorted for deterministic output
    // and monotonic timestamps per track.
    let mut events: Vec<(u32, u32, f64, u8, String)> = Vec::new();

    // Metadata: process per rank, thread per lane used by that rank.
    for rank in store.ranks() {
        events.push((
            rank,
            0,
            -1.0,
            0,
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{rank},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                escape(&format!("rank {rank}"))
            ),
        ));
        let mut lanes: Vec<Lane> = store
            .spans()
            .iter()
            .filter(|s| s.rank == rank)
            .map(|s| s.lane)
            .chain(
                store
                    .instants()
                    .iter()
                    .filter(|e| e.rank == rank)
                    .map(|e| e.lane),
            )
            .chain(
                store
                    .flow_points()
                    .iter()
                    .filter(|f| f.rank == rank)
                    .map(|f| f.lane),
            )
            .collect();
        lanes.sort();
        lanes.dedup();
        for lane in lanes {
            events.push((
                rank,
                lane.tid(),
                -1.0,
                1,
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{rank},\"tid\":{},\
                     \"args\":{{\"name\":{}}}}}",
                    lane.tid(),
                    escape(lane.name())
                ),
            ));
        }
    }

    for s in store.spans() {
        let dur = (s.end - s.start).max(0.0);
        let mut ev = format!(
            "{{\"ph\":\"X\",\"name\":{},\"cat\":{},\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{}",
            escape(&s.name),
            escape(&format!("step{}", s.step)),
            s.rank,
            s.lane.tid(),
            ts(s.start),
            ts(dur),
        );
        if !s.args.is_empty() {
            ev.push_str(&format!(",\"args\":{}", args_json(&s.args)));
        }
        ev.push('}');
        events.push((s.rank, s.lane.tid(), s.start, 2, ev));
    }

    for e in store.instants() {
        let mut ev = format!(
            "{{\"ph\":\"i\",\"s\":\"t\",\"name\":{},\"cat\":{},\"pid\":{},\"tid\":{},\"ts\":{}",
            escape(&e.name),
            escape(&format!("step{}", e.step)),
            e.rank,
            e.lane.tid(),
            ts(e.at),
        );
        if !e.args.is_empty() {
            ev.push_str(&format!(",\"args\":{}", args_json(&e.args)));
        }
        ev.push('}');
        events.push((e.rank, e.lane.tid(), e.at, 3, ev));
    }

    for f in store.flow_points().iter() {
        let ph = match f.phase {
            FlowPhase::Start => "s",
            FlowPhase::Step => "t",
            FlowPhase::Finish => "f",
        };
        // `"bp":"e"` binds each end to the span *enclosing* the point (the
        // COMM-lane exchange span) rather than the next slice to start.
        let ev = format!(
            "{{\"ph\":\"{ph}\",\"id\":{},\"bp\":\"e\",\"name\":{},\"cat\":{},\
             \"pid\":{},\"tid\":{},\"ts\":{}}}",
            f.id,
            escape(f.name),
            escape(&format!("step{}", f.step)),
            f.rank,
            f.lane.tid(),
            ts(f.at),
        );
        events.push((f.rank, f.lane.tid(), f.at, 4, ev));
    }

    events.sort_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then(a.2.partial_cmp(&b.2).unwrap())
            .then(a.3.cmp(&b.3))
            .then(a.4.cmp(&b.4))
    });

    let body: Vec<String> = events.into_iter().map(|(_, _, _, _, e)| e).collect();
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        body.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::span::Lane;

    fn sample() -> TraceStore {
        let mut t = TraceStore::new();
        let g = t.span(0, 1, Lane::Gpu, "local", 0.0, 1.45);
        t.arg_f64(g, "gflops", 1770.0);
        t.arg_u64(g, "pp", 1716);
        t.span(0, 1, Lane::Comm, "let-comm", 0.2, 0.9);
        t.span(1, 1, Lane::Gpu, "local", 0.0, 1.3);
        t.instant(0, 1, Lane::Comm, "fault:drop", 0.25);
        t.flow_point(41, 0, 1, Lane::Comm, "flow:Let", 0.3, FlowPhase::Start);
        t.flow_point(41, 1, 1, Lane::Comm, "flow:Let", 0.6, FlowPhase::Finish);
        t
    }

    #[test]
    fn export_is_valid_json_with_tracks() {
        let doc = chrome_trace_json(&sample());
        let v = json::parse(&doc).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 process_name + 4 thread_name + 3 spans + 1 instant + 2 flow ends
        assert_eq!(evs.len(), 12);
        let phases: Vec<&str> = evs
            .iter()
            .map(|e| e.get("ph").unwrap().as_str().unwrap())
            .collect();
        assert!(phases.contains(&"X") && phases.contains(&"i") && phases.contains(&"M"));
        assert!(phases.contains(&"s") && phases.contains(&"f"));
        // Both ends of the arrow share the flow id and sit on COMM lanes.
        let ends: Vec<_> = evs
            .iter()
            .filter(|e| {
                matches!(
                    e.get("ph").and_then(|p| p.as_str()),
                    Some("s") | Some("t") | Some("f")
                )
            })
            .collect();
        assert_eq!(ends.len(), 2);
        for e in &ends {
            assert_eq!(e.get("id").unwrap().as_f64(), Some(41.0));
            assert_eq!(e.get("tid").unwrap().as_f64(), Some(1.0));
            assert_eq!(e.get("bp").unwrap().as_str(), Some("e"));
        }
    }

    #[test]
    fn deterministic_export() {
        let a = chrome_trace_json(&sample());
        let b = chrome_trace_json(&sample());
        assert_eq!(a, b);
    }

    #[test]
    fn timestamps_are_microseconds() {
        let doc = chrome_trace_json(&sample());
        let v = json::parse(&doc).unwrap();
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        let local = evs
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("local"))
            .unwrap();
        assert_eq!(local.get("dur").unwrap().as_f64(), Some(1.45e6));
    }
}
