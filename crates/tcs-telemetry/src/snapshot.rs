//! The exported telemetry state: one consistent copy of every
//! histogram, gauge, hot-key table and the event ring, with a
//! Prometheus-text exporter and an exact JSON round-trip.
//!
//! # Metric names and units
//!
//! | metric | unit | labels |
//! |---|---|---|
//! | `tcs_edge_latency_ns` | ns, summary (p50/p99/p999 + sum/count) | — |
//! | `tcs_detection_latency_ns` | ns, summary | `query` |
//! | `tcs_template_detection_latency_ns` | ns, summary | `template` (hex digest) |
//! | `tcs_hot_key_traffic_total` | recordings | `degree_bucket` (log2 prior heat) |
//! | `tcs_hot_key_count` | hits | `key` (top keys only) |
//! | `tcs_shard_edges_routed_total` | edges | `shard` |
//! | `tcs_shard_queue_depth_hwm` | chunks | `shard` |
//! | `tcs_shard_restarts_total` | restarts | `shard` |
//! | `tcs_events_total` / `tcs_events_dropped_total` | events | — |
//! | `tcs_latency_sample_every` | edges per stamp | — |
//!
//! Latency quantiles describe the *sampled* population (see the
//! recorder's sampling contract); everything else is exact.

use crate::event::{Event, EventKind};
use crate::hist::HistogramSnapshot;
use crate::json::{self, Value};
use std::fmt::Write as _;

/// One shard's load gauges, as last published by the front-end.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard index.
    pub shard: u64,
    /// Edges routed to this shard since startup (an edge reaching two
    /// shards counts on both).
    pub edges_routed: u64,
    /// High-water mark of the shard queue depth, in chunks.
    pub queue_depth_hwm: u64,
    /// Times the supervisor rebuilt this shard.
    pub restarts: u64,
}

/// Everything a [`Recorder`](crate::Recorder) knows, frozen. Snapshots
/// compare with `==` and round-trip exactly through
/// [`to_json`](TelemetrySnapshot::to_json) /
/// [`from_json`](TelemetrySnapshot::from_json).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// The recorder's sampling period (1 = every edge was stamped).
    pub sample_every: u32,
    /// Per-edge processing latency, ns.
    pub edge: HistogramSnapshot,
    /// Detection latency per query id, ascending by id; the key
    /// `u64::MAX` aggregates queries beyond the tracked-scope cap.
    pub detection_by_query: Vec<(u64, HistogramSnapshot)>,
    /// Detection latency per canonical template digest, ascending.
    pub detection_by_template: Vec<(u64, HistogramSnapshot)>,
    /// `(log2 prior heat, recordings)` — traffic mass per key-hotness
    /// band; skew piles mass into high buckets.
    pub degree_buckets: Vec<(u32, u64)>,
    /// The hottest join keys, `(key, hits)`, hottest first.
    pub hot_keys: Vec<(u64, u64)>,
    /// Key recordings not counted exactly (distinct-key cap reached).
    pub hot_overflow: u64,
    /// Per-shard load gauges, ascending by shard.
    pub shards: Vec<ShardLoad>,
    /// The retained event ring, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring before this snapshot.
    pub events_dropped: u64,
}

fn prom_summary(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (q, v) in [("0.5", h.p50()), ("0.99", h.p99()), ("0.999", h.p999())] {
        let _ = writeln!(out, "{name}{{{labels}{sep}quantile=\"{q}\"}} {v}");
    }
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
    }
}

fn json_hist(h: &HistogramSnapshot) -> String {
    let mut s =
        format!("{{\"count\": {}, \"sum\": {}, \"max\": {}, \"buckets\": [", h.count, h.sum, h.max);
    for (i, (idx, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "[{idx}, {n}]");
    }
    s.push_str("]}");
    s
}

fn hist_from_json(v: &Value) -> Result<HistogramSnapshot, json::ParseError> {
    let mut buckets = Vec::new();
    for pair in v.req("buckets")?.as_arr()? {
        let pair = pair.as_arr()?;
        if pair.len() != 2 {
            return Err(json::ParseError("bucket pair must have 2 entries".into()));
        }
        buckets.push((pair[0].as_u64()? as u32, pair[1].as_u64()?));
    }
    Ok(HistogramSnapshot {
        count: v.req("count")?.as_u64()?,
        sum: v.req("sum")?.as_u64()?,
        max: v.req("max")?.as_u64()?,
        buckets,
    })
}

fn json_event(e: &Event) -> String {
    let seq = e.seq;
    match &e.kind {
        EventKind::Register { qid } => {
            format!("{{\"seq\": {seq}, \"kind\": \"register\", \"qid\": {qid}}}")
        }
        EventKind::Unregister { qid } => {
            format!("{{\"seq\": {seq}, \"kind\": \"unregister\", \"qid\": {qid}}}")
        }
        EventKind::Quarantine { qid, edge_seq, payload } => format!(
            "{{\"seq\": {seq}, \"kind\": \"quarantine\", \"qid\": {qid}, \"edge_seq\": {edge_seq}, \"payload\": {}}}",
            json::escape(payload)
        ),
        EventKind::WorkerRestart { shard } => {
            format!("{{\"seq\": {seq}, \"kind\": \"worker_restart\", \"shard\": {shard}}}")
        }
    }
}

fn event_from_json(v: &Value) -> Result<Event, json::ParseError> {
    let seq = v.req("seq")?.as_u64()?;
    let kind = match v.req("kind")?.as_str()? {
        "register" => EventKind::Register { qid: v.req("qid")?.as_u64()? },
        "unregister" => EventKind::Unregister { qid: v.req("qid")?.as_u64()? },
        "quarantine" => EventKind::Quarantine {
            qid: v.req("qid")?.as_u64()?,
            edge_seq: v.req("edge_seq")?.as_u64()?,
            payload: v.req("payload")?.as_str()?.to_string(),
        },
        "worker_restart" => EventKind::WorkerRestart { shard: v.req("shard")?.as_u64()? },
        other => return Err(json::ParseError(format!("unknown event kind {other:?}"))),
    };
    Ok(Event { seq, kind })
}

impl TelemetrySnapshot {
    /// Prometheus text exposition (the table in the module docs).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# TYPE tcs_latency_sample_every gauge");
        let _ = writeln!(out, "tcs_latency_sample_every {}", self.sample_every);
        let _ = writeln!(out, "# TYPE tcs_edge_latency_ns summary");
        prom_summary(&mut out, "tcs_edge_latency_ns", "", &self.edge);
        let _ = writeln!(out, "# TYPE tcs_detection_latency_ns summary");
        for (qid, h) in &self.detection_by_query {
            prom_summary(&mut out, "tcs_detection_latency_ns", &format!("query=\"{qid}\""), h);
        }
        let _ = writeln!(out, "# TYPE tcs_template_detection_latency_ns summary");
        for (digest, h) in &self.detection_by_template {
            prom_summary(
                &mut out,
                "tcs_template_detection_latency_ns",
                &format!("template=\"{digest:016x}\""),
                h,
            );
        }
        let _ = writeln!(out, "# TYPE tcs_hot_key_traffic_total counter");
        for (bucket, n) in &self.degree_buckets {
            let _ = writeln!(out, "tcs_hot_key_traffic_total{{degree_bucket=\"{bucket}\"}} {n}");
        }
        let _ = writeln!(out, "# TYPE tcs_hot_key_count gauge");
        for (key, n) in &self.hot_keys {
            let _ = writeln!(out, "tcs_hot_key_count{{key=\"{key}\"}} {n}");
        }
        let _ = writeln!(out, "tcs_hot_key_overflow_total {}", self.hot_overflow);
        for s in &self.shards {
            let sh = s.shard;
            let _ =
                writeln!(out, "tcs_shard_edges_routed_total{{shard=\"{sh}\"}} {}", s.edges_routed);
            let _ =
                writeln!(out, "tcs_shard_queue_depth_hwm{{shard=\"{sh}\"}} {}", s.queue_depth_hwm);
            let _ = writeln!(out, "tcs_shard_restarts_total{{shard=\"{sh}\"}} {}", s.restarts);
        }
        let total = self.events.last().map(|e| e.seq).unwrap_or(self.events_dropped);
        let _ = writeln!(out, "tcs_events_total {total}");
        let _ = writeln!(out, "tcs_events_dropped_total {}", self.events_dropped);
        out
    }

    /// The full snapshot as JSON — lossless: `from_json(to_json(s)) ==
    /// s`, enforced by the round-trip tests.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"sample_every\": {},", self.sample_every);
        let _ = writeln!(out, "  \"edge\": {},", json_hist(&self.edge));
        let scoped = |items: &[(u64, HistogramSnapshot)]| -> String {
            let mut s = String::from("[");
            for (i, (key, h)) in items.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{key}, {}]", json_hist(h));
            }
            s.push(']');
            s
        };
        let _ = writeln!(out, "  \"detection_by_query\": {},", scoped(&self.detection_by_query));
        let _ =
            writeln!(out, "  \"detection_by_template\": {},", scoped(&self.detection_by_template));
        let pairs = |items: &[(u64, u64)]| -> String {
            let mut s = String::from("[");
            for (i, (a, b)) in items.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "[{a}, {b}]");
            }
            s.push(']');
            s
        };
        let degree: Vec<(u64, u64)> =
            self.degree_buckets.iter().map(|&(b, n)| (b as u64, n)).collect();
        let _ = writeln!(out, "  \"degree_buckets\": {},", pairs(&degree));
        let _ = writeln!(out, "  \"hot_keys\": {},", pairs(&self.hot_keys));
        let _ = writeln!(out, "  \"hot_overflow\": {},", self.hot_overflow);
        out.push_str("  \"shards\": [");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"shard\": {}, \"edges_routed\": {}, \"queue_depth_hwm\": {}, \"restarts\": {}}}",
                s.shard, s.edges_routed, s.queue_depth_hwm, s.restarts
            );
        }
        out.push_str("],\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_event(e));
        }
        out.push_str("],\n");
        let _ = writeln!(out, "  \"events_dropped\": {}", self.events_dropped);
        out.push_str("}\n");
        out
    }

    /// Parses [`to_json`](Self::to_json) output back, exactly.
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, json::ParseError> {
        let v = json::parse(text)?;
        let scoped = |key: &str| -> Result<Vec<(u64, HistogramSnapshot)>, json::ParseError> {
            let mut out = Vec::new();
            for pair in v.req(key)?.as_arr()? {
                let pair = pair.as_arr()?;
                if pair.len() != 2 {
                    return Err(json::ParseError(format!("{key} pair must have 2 entries")));
                }
                out.push((pair[0].as_u64()?, hist_from_json(&pair[1])?));
            }
            Ok(out)
        };
        let pairs = |key: &str| -> Result<Vec<(u64, u64)>, json::ParseError> {
            let mut out = Vec::new();
            for pair in v.req(key)?.as_arr()? {
                let pair = pair.as_arr()?;
                if pair.len() != 2 {
                    return Err(json::ParseError(format!("{key} pair must have 2 entries")));
                }
                out.push((pair[0].as_u64()?, pair[1].as_u64()?));
            }
            Ok(out)
        };
        let mut shards = Vec::new();
        for s in v.req("shards")?.as_arr()? {
            shards.push(ShardLoad {
                shard: s.req("shard")?.as_u64()?,
                edges_routed: s.req("edges_routed")?.as_u64()?,
                queue_depth_hwm: s.req("queue_depth_hwm")?.as_u64()?,
                restarts: s.req("restarts")?.as_u64()?,
            });
        }
        let mut events = Vec::new();
        for e in v.req("events")?.as_arr()? {
            events.push(event_from_json(e)?);
        }
        Ok(TelemetrySnapshot {
            sample_every: v.req("sample_every")?.as_u64()? as u32,
            edge: hist_from_json(v.req("edge")?)?,
            detection_by_query: scoped("detection_by_query")?,
            detection_by_template: scoped("detection_by_template")?,
            degree_buckets: pairs("degree_buckets")?
                .into_iter()
                .map(|(b, n)| (b as u32, n))
                .collect(),
            hot_keys: pairs("hot_keys")?,
            hot_overflow: v.req("hot_overflow")?.as_u64()?,
            shards,
            events,
            events_dropped: v.req("events_dropped")?.as_u64()?,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    fn populated_snapshot() -> TelemetrySnapshot {
        let rec = Recorder::with_sampling(1);
        for v in [100u64, 2_000, 35_000, 1 << 40] {
            rec.record_edge_ns(v, 2);
        }
        rec.record_detection(3, 5_000, 4);
        rec.record_detection(9, 900, 1);
        rec.record_detection_template(u64::MAX - 17, 7_700, 2);
        for _ in 0..10 {
            rec.record_key(42);
        }
        rec.record_key(1);
        rec.event(EventKind::Register { qid: 3 });
        rec.event(EventKind::Quarantine {
            qid: 9,
            edge_seq: 1234,
            payload: "panic: \"boom\"\nat line 7".into(),
        });
        rec.event(EventKind::WorkerRestart { shard: 1 });
        rec.event(EventKind::Unregister { qid: 3 });
        rec.set_shard_load(ShardLoad {
            shard: 0,
            edges_routed: 100,
            queue_depth_hwm: 3,
            restarts: 1,
        });
        rec.snapshot()
    }

    /// The ISSUE acceptance bar: the JSON export parses back to an
    /// identical snapshot — histograms, u64 digests above 2^53, escaped
    /// event payloads, gauges and all.
    #[test]
    fn json_round_trips_exactly() {
        let snap = populated_snapshot();
        let parsed = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = Recorder::new().snapshot();
        let parsed = TelemetrySnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn prometheus_exposition_has_the_documented_series() {
        let text = populated_snapshot().to_prometheus();
        for needle in [
            "tcs_latency_sample_every 1",
            "tcs_edge_latency_ns{quantile=\"0.5\"}",
            "tcs_edge_latency_ns_count 8",
            "tcs_detection_latency_ns{query=\"3\",quantile=\"0.99\"}",
            "tcs_template_detection_latency_ns{template=\"ffffffffffffffee\"",
            "tcs_hot_key_traffic_total{degree_bucket=\"0\"}",
            "tcs_hot_key_count{key=\"42\"} 10",
            "tcs_shard_edges_routed_total{shard=\"0\"} 100",
            "tcs_shard_queue_depth_hwm{shard=\"0\"} 3",
            "tcs_shard_restarts_total{shard=\"0\"} 1",
            "tcs_events_total 4",
            "tcs_events_dropped_total 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn dump_writes_both_files() {
        let dir = std::env::temp_dir().join(format!("tcs-telemetry-test-{}", std::process::id()));
        let rec = Recorder::new();
        rec.record_edge_ns(123, 1);
        rec.dump(&dir).unwrap();
        let json = std::fs::read_to_string(dir.join("metrics.json")).unwrap();
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert_eq!(TelemetrySnapshot::from_json(&json).unwrap(), rec.snapshot());
        assert!(prom.contains("tcs_edge_latency_ns_count 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
