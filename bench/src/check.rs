//! Correctness checks that run in the same command as the measurement.
//!
//! (a) an untimed oracle pass — the workload's own stack over a prefix of
//!     its stream, against `tcs_subiso::SnapshotOracle`, per registration;
//!     a pass whose reference is empty compares nothing and fails;
//! (b) `MatchRecord::verify` on every match delivered in that pass;
//! (c) digest + count equality across runs is done by the caller;
//! (d) the seed-42 digests recorded in `expected.json`.

use crate::pipeline::set_up;
use crate::workload::{Inputs, Spec};
use std::collections::HashMap;
use tcs_core::MsTreeStore;
use tcs_graph::{MatchRecord, QueryGraph, SlidingWindow, StreamEdge};
use tcs_subiso::SnapshotOracle;
use tcs_telemetry::json;

#[derive(Clone, Copy, Debug, Default)]
pub struct OracleReport {
    pub edges: u64,
    /// Deliveries the oracle says every subscriber must receive, summed.
    pub reference: u64,
    pub missing: u64,
    pub extra: u64,
    /// Delivered matches that fail `MatchRecord::verify`.
    pub unverified: u64,
    /// Edges refused or deliveries that named no arrival of their call.
    pub refused: u64,
}

impl OracleReport {
    /// An empty reference counts as one failure: the pass checked nothing.
    pub fn failed(&self) -> u64 {
        self.missing + self.extra + self.unverified + self.refused + u64::from(self.reference == 0)
    }
}

fn oracle_matches(q: &QueryGraph, stream: &[StreamEdge], window: u64) -> Vec<MatchRecord> {
    let mut oracle = SnapshotOracle::new(q.clone());
    let mut window = SlidingWindow::new(window);
    let mut out = Vec::new();
    for &e in stream {
        out.extend(oracle.advance(&window.advance(e)));
    }
    out.sort();
    out
}

/// Size of the symmetric difference of two sorted multisets, split into
/// (in `want` only, in `got` only).
fn multiset_diff(want: &[MatchRecord], got: &[MatchRecord]) -> (u64, u64) {
    let (mut i, mut j, mut missing, mut extra) = (0, 0, 0u64, 0u64);
    while i < want.len() && j < got.len() {
        match want[i].cmp(&got[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                missing += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                extra += 1;
                j += 1;
            }
        }
    }
    (missing + (want.len() - i) as u64, extra + (got.len() - j) as u64)
}

/// Checks (a) and (b): feeds the first `spec.oracle_edges` edges through
/// the workload's stack at window `spec.oracle_window` and compares every
/// registration's match multiset with the oracle's.
pub fn oracle_pass(spec: &Spec, inputs: &Inputs) -> Result<OracleReport, String> {
    let cut = inputs
        .stream_text
        .match_indices('\n')
        .nth(spec.oracle_edges - 1)
        .map_or(inputs.stream_text.len(), |(i, _)| i + 1);
    let prefix = Inputs {
        stream_text: inputs.stream_text[..cut].to_string(),
        query_texts: inputs.query_texts.clone(),
    };
    let mut ready = set_up::<MsTreeStore>(spec, &prefix, spec.oracle_window, 0, None)?;
    let stream = std::mem::take(&mut ready.measured);
    ready.sink.keep = Some(Vec::new());
    for leg in ready.legs.each() {
        leg.feed(&stream, &mut ready.sink);
    }
    let mut got: Vec<Vec<MatchRecord>> = vec![Vec::new(); ready.queries.len()];
    let mut report = OracleReport {
        edges: stream.len() as u64,
        refused: ready.sink.refused + ready.sink.stray,
        ..OracleReport::default()
    };
    for (q, m) in ready.sink.keep.take().unwrap_or_default() {
        let Some(slot) = got.get_mut(q as usize) else {
            report.extra += 1;
            continue;
        };
        if m.verify(&ready.queries[q as usize], |id| stream.get(id.0 as usize)).is_err() {
            report.unverified += 1;
        }
        slot.push(m);
    }
    // One oracle run per distinct query text; twins and copies share it.
    let mut by_text: HashMap<&str, Vec<MatchRecord>> = HashMap::new();
    for (i, text) in inputs.query_texts.iter().enumerate() {
        let want = by_text
            .entry(text)
            .or_insert_with(|| oracle_matches(&ready.queries[i], &stream, spec.oracle_window));
        got[i].sort();
        let (missing, extra) = multiset_diff(want, &got[i]);
        report.reference += want.len() as u64;
        report.missing += missing;
        report.extra += extra;
    }
    Ok(report)
}

/// Check (d): the (count, digest) recorded for `workload` in
/// `expected.json`, if any.
pub fn expected(text: &str, workload: &str) -> Result<Option<(u64, u64)>, String> {
    let v = json::parse(text).map_err(|e| format!("expected.json: {}", e.0))?;
    let Some(w) = v.get("workloads").and_then(|w| w.get(workload)) else {
        return Ok(None);
    };
    let count = w.req("count").and_then(|c| c.as_u64()).map_err(|e| e.0)?;
    let digest = w.req("digest").and_then(|d| d.as_str()).map_err(|e| e.0)?;
    let digest = u64::from_str_radix(digest, 16).map_err(|e| format!("expected.json: {e}"))?;
    Ok(Some((count, digest)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tcs_graph::EdgeId;

    fn rec(ids: &[u64]) -> MatchRecord {
        MatchRecord::from(ids.iter().map(|&i| EdgeId(i)).collect::<Vec<_>>())
    }

    #[test]
    fn multiset_diff_counts_missing_and_extra_with_multiplicity() {
        let want = [rec(&[1, 2]), rec(&[1, 2]), rec(&[3, 4])];
        let got = [rec(&[1, 2]), rec(&[3, 4]), rec(&[5, 6])];
        assert_eq!(multiset_diff(&want, &got), (1, 1));
        assert_eq!(multiset_diff(&want, &want), (0, 0));
        assert_eq!(multiset_diff(&[], &got), (0, 3));
    }

    #[test]
    fn an_empty_reference_fails_the_oracle_pass() {
        assert_eq!(OracleReport { edges: 10, ..OracleReport::default() }.failed(), 1);
        assert_eq!(OracleReport { edges: 10, reference: 3, ..OracleReport::default() }.failed(), 0);
    }

    #[test]
    fn expected_reads_count_and_hex_digest() {
        let text = r#"{"workloads": {"w": {"count": 7, "digest": "00000000000000ff"}}}"#;
        assert_eq!(expected(text, "w"), Ok(Some((7, 255))));
        assert_eq!(expected(text, "other"), Ok(None));
        assert!(expected("{", "w").is_err());
    }
}
