//! Exporters: the machine-readable JSONL dump and the human-readable
//! federation "ops report".
//!
//! Trace events — nearly every line of a dump — are written straight into
//! the output `String`: keys in sorted order, strings escaped and numbers
//! formatted exactly as the `serde_json` shim renders them (a test keeps
//! the shim's `Value` rendering as the oracle), with each interned name
//! escaped once per export rather than once per event. The few meta and
//! metric lines go through `serde_json` object maps, which are ordered
//! `BTreeMap`s. Events are emitted in ring order, so two runs that record
//! the same values produce byte-identical artifacts, which the test suite
//! asserts.

use std::fmt::Write as _;

use serde_json::{json, Value};

use crate::metrics::{HistogramSnapshot, MetricsCore};
use crate::trace::{EventValue, SpanId, TraceCore, TraceEvent};

/// Append `s` as a JSON string literal, escaped like the `serde_json`
/// shim: the two-character escapes it knows, `\u00XX` for the other
/// control characters, everything else verbatim.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    let mut plain = 0;
    for (i, c) in s.char_indices() {
        let esc = match c {
            '"' => "\\\"",
            '\\' => "\\\\",
            '\n' => "\\n",
            '\r' => "\\r",
            '\t' => "\\t",
            '\u{8}' => "\\b",
            '\u{c}' => "\\f",
            c if (c as u32) < 0x20 => "",
            _ => continue,
        };
        out.push_str(&s[plain..i]);
        if esc.is_empty() {
            let _ = write!(out, "\\u{:04x}", c as u32);
        } else {
            out.push_str(esc);
        }
        plain = i + c.len_utf8();
    }
    out.push_str(&s[plain..]);
    out.push('"');
}

fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ASCII digits"));
}

fn push_i64(out: &mut String, n: i64) {
    if n < 0 {
        out.push('-');
    }
    push_u64(out, n.unsigned_abs());
}

/// A float as the shim's `Number` displays it: whole values below 1e15
/// keep a `.0`, the rest use shortest-repr `Display`; non-finite values
/// have no JSON form and become `null`.
fn push_f64(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() < 1e15 {
        let _ = write!(out, "{x:.1}");
    } else {
        let _ = write!(out, "{x}");
    }
}

/// Append one event's JSON object (no newline). `names` holds the core's
/// names already rendered as JSON string literals.
fn write_event(ev: &TraceEvent, names: &[String], out: &mut String) {
    match *ev {
        TraceEvent::SpanStart {
            id,
            parent,
            name,
            t,
        } => {
            out.push_str("{\"id\":");
            push_u64(out, id.0);
            out.push_str(",\"kind\":\"span_start\",\"name\":");
            out.push_str(&names[name as usize]);
            if parent != SpanId::NONE {
                out.push_str(",\"parent\":");
                push_u64(out, parent.0);
            }
            out.push_str(",\"t_ns\":");
            push_u64(out, t.as_nanos());
        }
        TraceEvent::SpanEnd { id, t } => {
            out.push_str("{\"id\":");
            push_u64(out, id.0);
            out.push_str(",\"kind\":\"span_end\",\"t_ns\":");
            push_u64(out, t.as_nanos());
        }
        TraceEvent::Attr { span, key, value } => {
            out.push_str("{\"key\":");
            out.push_str(&names[key as usize]);
            out.push_str(",\"kind\":\"attr\",\"span\":");
            push_u64(out, span.0);
            out.push_str(",\"value\":");
            match value {
                EventValue::U64(n) => push_u64(out, n),
                EventValue::I64(n) => push_i64(out, n),
                EventValue::F64(x) => push_f64(out, x),
                EventValue::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                EventValue::Str(s) => out.push_str(&names[s as usize]),
            }
        }
        TraceEvent::Point { name, t, value } => {
            out.push_str("{\"kind\":\"point\",\"name\":");
            out.push_str(&names[name as usize]);
            out.push_str(",\"t_ns\":");
            push_u64(out, t.as_nanos());
            out.push_str(",\"value\":");
            push_f64(out, value);
        }
    }
    out.push('}');
}

/// Append every buffered event as one JSONL line, in ring order.
fn write_events(trace: &TraceCore, out: &mut String) {
    let names: Vec<String> = trace
        .names
        .iter()
        .map(|n| {
            let mut lit = String::with_capacity(n.len() + 2);
            push_json_str(&mut lit, n);
            lit
        })
        .collect();
    for ev in &trace.events {
        write_event(ev, &names, out);
        out.push('\n');
    }
}

fn histogram_to_json(snap: &HistogramSnapshot) -> Value {
    json!({
        "kind": "histogram",
        "name": snap.name.as_str(),
        "count": snap.count,
        "sum": snap.sum,
        "mean": snap.mean,
        "p50": snap.p50,
        "p99": snap.p99,
        "buckets": snap.buckets
            .iter()
            .map(|&(i, c)| json!([i as u64, c]))
            .collect::<Vec<_>>(),
    })
}

/// Serialize the full trace + metrics state as JSONL into `out`.
pub(crate) fn write_jsonl(trace: &TraceCore, metrics: &MetricsCore, out: &mut String) {
    fn line(out: &mut String, v: Value) {
        out.push_str(&serde_json::to_string(&v).expect("telemetry JSON serializes"));
        out.push('\n');
    }
    line(
        out,
        json!({
            "kind": "meta",
            "format": "osdc-telemetry/1",
            "events": trace.events.len() as u64,
            "dropped_events": trace.dropped,
        }),
    );
    write_events(trace, out);
    for (name, value) in metrics.counters.names.iter().zip(&metrics.counters.values) {
        line(
            out,
            json!({"kind": "counter", "name": name.as_str(), "value": *value}),
        );
    }
    for (name, value) in metrics.gauges.names.iter().zip(&metrics.gauges.values) {
        line(
            out,
            json!({"kind": "gauge", "name": name.as_str(), "value": *value}),
        );
    }
    for (name, h) in metrics
        .histograms
        .names
        .iter()
        .zip(&metrics.histograms.values)
    {
        line(out, histogram_to_json(&HistogramSnapshot::from(name, h)));
    }
}

/// Render the human-readable federation ops report: every counter, gauge
/// and histogram the run registered, in the style of the §7.4 status page.
pub(crate) fn ops_report(trace: &TraceCore, metrics: &MetricsCore) -> String {
    let mut out = String::new();
    let rule = "-".repeat(72);
    out.push_str("federation ops report\n");
    out.push_str(&rule);
    out.push('\n');

    if !metrics.counters.names.is_empty() {
        out.push_str("counters\n");
        for (name, value) in metrics.counters.names.iter().zip(&metrics.counters.values) {
            out.push_str(&format!("  {name:<44} {value:>18}\n"));
        }
    }
    if !metrics.gauges.names.is_empty() {
        out.push_str("gauges\n");
        for (name, value) in metrics.gauges.names.iter().zip(&metrics.gauges.values) {
            out.push_str(&format!("  {name:<44} {value:>18.3}\n"));
        }
    }
    if !metrics.histograms.names.is_empty() {
        out.push_str("histograms                                      count       mean        p50        p99\n");
        for (name, h) in metrics
            .histograms
            .names
            .iter()
            .zip(&metrics.histograms.values)
        {
            out.push_str(&format!(
                "  {name:<40} {:>9} {:>10.2} {:>10.0} {:>10.0}\n",
                h.count(),
                h.mean(),
                h.quantile_upper_bound(0.5),
                h.quantile_upper_bound(0.99),
            ));
        }
    }
    out.push_str(&rule);
    out.push('\n');
    out.push_str(&format!(
        "trace: {} events buffered, {} dropped\n",
        trace.events.len(),
        trace.dropped
    ));
    out
}

#[cfg(test)]
mod tests {
    use osdc_sim::SimTime;
    use proptest::prelude::*;
    use serde_json::Map;

    use super::*;
    use crate::trace::{AttrValue, Names};

    /// The `serde_json::Value` rendering of one event — the exporter's
    /// former path, kept as the oracle the direct writer must match.
    fn event_to_json(ev: &TraceEvent, names: &Names) -> Value {
        match *ev {
            TraceEvent::SpanStart {
                id,
                parent,
                name,
                t,
            } => {
                let mut m = Map::new();
                m.insert("kind".into(), json!("span_start"));
                m.insert("id".into(), json!(id.0));
                if parent != SpanId::NONE {
                    m.insert("parent".into(), json!(parent.0));
                }
                m.insert("name".into(), json!(names.get(name)));
                m.insert("t_ns".into(), json!(t.as_nanos()));
                Value::Object(m)
            }
            TraceEvent::SpanEnd { id, t } => json!({
                "kind": "span_end",
                "id": id.0,
                "t_ns": t.as_nanos(),
            }),
            TraceEvent::Attr { span, key, value } => json!({
                "kind": "attr",
                "span": span.0,
                "key": names.get(key),
                "value": match value {
                    EventValue::U64(n) => json!(n),
                    EventValue::I64(n) => json!(n),
                    EventValue::F64(x) => json!(x),
                    EventValue::Bool(b) => json!(b),
                    EventValue::Str(s) => json!(names.get(s)),
                },
            }),
            TraceEvent::Point { name, t, value } => json!({
                "kind": "point",
                "name": names.get(name),
                "t_ns": t.as_nanos(),
                "value": value,
            }),
        }
    }

    /// Names that need every kind of escape, plus plain and non-ASCII.
    fn name() -> impl Strategy<Value = String> {
        let ch = prop_oneof![
            4 => any::<char>(),
            1 => Just('"'),
            1 => Just('\\'),
            1 => (0u32..0x20).prop_map(|c| char::from_u32(c).expect("control char")),
            1 => Just('\u{7f}'),
            1 => Just('é'),
        ];
        prop::collection::vec(ch, 0..12).prop_map(|cs| cs.into_iter().collect())
    }

    /// Whole, huge, tiny, signed-zero and non-finite floats.
    fn float() -> impl Strategy<Value = f64> {
        prop_oneof![
            3 => any::<f64>(),
            2 => any::<i32>().prop_map(f64::from),
            1 => (-1e6f64..1e6).prop_map(f64::round),
            1 => (1e15f64..1e17).prop_map(|x| x.round()),
            1 => -1e30f64..-1e15,
            1 => Just(1e15),
            1 => Just(999_999_999_999_999.0),
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => Just(f64::NAN),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
            1 => Just(f64::MIN_POSITIVE),
            1 => Just(f64::MAX),
        ]
    }

    fn attr_value() -> impl Strategy<Value = AttrValue> {
        prop_oneof![
            any::<u64>().prop_map(AttrValue::U64),
            any::<i64>().prop_map(AttrValue::I64),
            float().prop_map(AttrValue::F64),
            any::<bool>().prop_map(AttrValue::Bool),
            name().prop_map(AttrValue::Str),
        ]
    }

    /// One recording step: 0 opens a span, 1 closes the innermost one, 2
    /// adds an attr, 3 records a point.
    type Step = (u8, String, AttrValue, f64, u64);

    fn step() -> impl Strategy<Value = Step> {
        (0u8..4, name(), attr_value(), float(), any::<u64>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn direct_writer_matches_the_serde_rendering(
            steps in prop::collection::vec(step(), 1..40),
        ) {
            let mut core = TraceCore::with_capacity(64);
            let mut open = Vec::new();
            for (op, name, value, x, t) in steps {
                let t = SimTime(t);
                match op {
                    0 => open.push(core.span_start(&name, t)),
                    1 => {
                        let id = open.pop().unwrap_or(SpanId(t.0 % 3));
                        core.span_end(id, t);
                    }
                    2 => {
                        let span = open.last().copied().unwrap_or(SpanId::NONE);
                        core.attr(span, &name, value);
                    }
                    _ => core.point(&name, t, x),
                }
            }
            let mut direct = String::new();
            write_events(&core, &mut direct);
            let mut oracle = String::new();
            for ev in &core.events {
                oracle.push_str(&serde_json::to_string(&event_to_json(ev, &core.names)).unwrap());
                oracle.push('\n');
            }
            prop_assert_eq!(direct, oracle);
        }
    }
}
