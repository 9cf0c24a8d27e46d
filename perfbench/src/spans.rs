//! The traced run's spans: the benchmark's own spans around every
//! public call it makes, plus the spans the engine already emits,
//! collected in memory and reduced to calibrated self and total times
//! per span name.

use std::collections::HashMap;

use dc_trace::{FieldValue, SpanKind, TraceRecord};

/// Name of the benchmark's per-operation root span; its `op` field is
/// the operation's index in the schedule.
pub const OP_SPAN: &str = "client.op";

/// Open one of the benchmark's own spans (inert while tracing is off).
pub fn client(name: &'static str) -> dc_trace::Span {
    dc_trace::span(SpanKind::Info).name_with(|| name.to_string())
}

/// Open the root span of operation `idx`.
pub fn op(idx: usize) -> dc_trace::Span {
    let mut span = client(OP_SPAN);
    span.field("op", idx);
    span
}

/// The grouping key of a record: the benchmark's span name for its own
/// spans, the kind label for the engine's, refined by the phase name
/// for `phase` spans and by the outcome for `subscription_refresh`.
fn key(rec: &TraceRecord) -> String {
    match rec.kind {
        SpanKind::Info => rec.name.clone(),
        SpanKind::Phase => format!("phase.{}", rec.name),
        SpanKind::SubscriptionRefresh => match rec.field("outcome") {
            Some(FieldValue::Str(o)) => format!("subscription_refresh.{o}"),
            _ => "subscription_refresh".to_string(),
        },
        kind => kind.label().to_string(),
    }
}

/// Calibrated per-name totals over a traced run.
#[derive(Default, Debug)]
pub struct SpanTotals {
    /// Per key: (span count, total ms, self ms), calibrated.
    pub by_key: HashMap<String, (usize, f64, f64)>,
}

impl SpanTotals {
    /// Reduce `records`, scaling each span by the speed factor of the
    /// operation whose root span it descends from (`factor(op index)`);
    /// spans outside any operation are ignored.
    pub fn from_records(records: &[TraceRecord], factor: impl Fn(usize) -> f64) -> SpanTotals {
        let spans: Vec<&TraceRecord> = records.iter().filter(|r| !r.is_event).collect();
        let by_id: HashMap<u64, &TraceRecord> = spans.iter().map(|r| (r.id, *r)).collect();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for r in &spans {
            children
                .entry(r.parent)
                .or_default()
                .push((r.start_us, r.end_us));
        }
        let mut op_of: HashMap<u64, Option<usize>> = HashMap::new();
        let mut totals = SpanTotals::default();
        for r in &spans {
            let Some(op) = root_op(r.id, &by_id, &mut op_of) else {
                continue;
            };
            let f = factor(op);
            let total = r.duration_us() as f64;
            let covered = children.get(&r.id).map_or(0, |c| covered_us(r, c)) as f64;
            let e = totals.by_key.entry(key(r)).or_default();
            e.0 += 1;
            e.1 += total * f / 1e3;
            e.2 += (total - covered) * f / 1e3;
        }
        totals
    }

    /// Number of spans under `key`.
    pub fn count(&self, key: &str) -> usize {
        self.by_key.get(key).map_or(0, |e| e.0)
    }

    /// Total calibrated ms under `key`.
    pub fn total_ms(&self, key: &str) -> f64 {
        self.by_key.get(key).map_or(0.0, |e| e.1)
    }

    /// Calibrated self ms under `key`.
    pub fn self_ms(&self, key: &str) -> f64 {
        self.by_key.get(key).map_or(0.0, |e| e.2)
    }
}

/// The operation index of the `client.op` span `id` descends from.
fn root_op(
    id: u64,
    by_id: &HashMap<u64, &TraceRecord>,
    memo: &mut HashMap<u64, Option<usize>>,
) -> Option<usize> {
    if let Some(&m) = memo.get(&id) {
        return m;
    }
    let rec = by_id.get(&id)?;
    let found = if rec.kind == SpanKind::Info && rec.name == OP_SPAN {
        match rec.field("op") {
            Some(FieldValue::U64(i)) => Some(*i as usize),
            _ => None,
        }
    } else if rec.parent == 0 {
        None
    } else {
        root_op(rec.parent, by_id, memo)
    };
    memo.insert(id, found);
    found
}

/// Microseconds of `parent`'s interval covered by the union of its
/// children's intervals.
fn covered_us(parent: &TraceRecord, children: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(parent.start_us), e.min(parent.end_us)))
        .filter(|(s, e)| s < e)
        .collect();
    iv.sort_unstable();
    let mut covered = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: u64,
        kind: SpanKind,
        name: &str,
        start_us: u64,
        end_us: u64,
    ) -> TraceRecord {
        let fields = if name == OP_SPAN {
            vec![("op", FieldValue::U64(1))]
        } else {
            Vec::new()
        };
        TraceRecord {
            id,
            parent,
            kind,
            name: name.to_string(),
            start_us,
            end_us,
            is_event: false,
            fields,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_and_scales_by_operation() {
        let records = vec![
            span(1, 0, SpanKind::Info, OP_SPAN, 0, 1000),
            span(2, 1, SpanKind::SessionQuery, "", 100, 900),
            // Overlapping children cover 200..600 once.
            span(3, 2, SpanKind::Solve, "", 200, 500),
            span(4, 2, SpanKind::DecorrBuild, "", 400, 600),
            // Outside any operation: ignored.
            span(5, 0, SpanKind::Solve, "", 0, 5000),
        ];
        let t = SpanTotals::from_records(&records, |op| if op == 1 { 2.0 } else { 0.0 });
        assert_eq!(t.count("session_query"), 1);
        assert_eq!(t.total_ms("session_query"), 1.6);
        assert_eq!(t.self_ms("session_query"), 0.8);
        assert_eq!(t.count("solve"), 1);
        assert_eq!(t.self_ms(OP_SPAN), 0.4);
    }
}
