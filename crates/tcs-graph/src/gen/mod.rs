//! Synthetic dataset generators and the query-set generator of §VII.
//!
//! The paper evaluates on three datasets we cannot redistribute or download
//! here (CAIDA 2015 traces, the LSBench social stream, SNAP wiki-talk).
//! Each generator below reproduces the *statistical knobs that drive the
//! experiments* — label-alphabet size and skew, degree skew, vertex typing —
//! rather than the raw data; each generator's module docs record its
//! substitution.
//!
//! All generators emit strictly increasing timestamps with a mean
//! inter-arrival gap of exactly one time unit, so a window of duration `w`
//! holds `≈ w` edges — matching the paper's window-size unit ("the ratio of
//! the total time span to the total number of edges").

pub mod case_study;
pub mod network_flow;
pub mod query_gen;
pub mod social_stream;
pub mod wiki_talk;
pub mod zipf;

pub use network_flow::NetworkFlowGen;
pub use query_gen::{QueryGen, TimingMode};
pub use social_stream::SocialStreamGen;
pub use wiki_talk::WikiTalkGen;
pub use zipf::Zipf;

use crate::edge::StreamEdge;

/// The three evaluation datasets of §VII-A.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// CAIDA-like network traffic ("Network Flow" in the figures).
    NetworkFlow,
    /// LSBench-like streaming social data ("Social Stream").
    SocialStream,
    /// SNAP wiki-talk-like communication data ("Wiki-talk").
    WikiTalk,
}

impl Dataset {
    /// All datasets in the order the paper's figures present them.
    pub const ALL: [Dataset; 3] = [Dataset::NetworkFlow, Dataset::SocialStream, Dataset::WikiTalk];

    /// Display name matching the paper's figure captions.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::NetworkFlow => "NetworkFlow",
            Dataset::SocialStream => "SocialStream",
            Dataset::WikiTalk => "Wiki-talk",
        }
    }

    /// Generates `n_edges` edges of this dataset with the given seed.
    pub fn generate(self, n_edges: usize, seed: u64) -> Vec<StreamEdge> {
        match self {
            Dataset::NetworkFlow => NetworkFlowGen::default().generate(n_edges, seed),
            Dataset::SocialStream => SocialStreamGen::default().generate(n_edges, seed),
            Dataset::WikiTalk => WikiTalkGen::default().generate(n_edges, seed),
        }
    }
}

/// Shared sanity checks used by every generator's tests.
#[cfg(test)]
pub(crate) fn check_stream_invariants(edges: &[StreamEdge]) {
    let mut last_ts = 0;
    let mut last_id = None;
    for e in edges {
        assert!(e.ts.0 > last_ts, "timestamps strictly increase");
        last_ts = e.ts.0;
        if let Some(prev) = last_id {
            assert!(e.id.0 > prev, "ids strictly increase");
        }
        last_id = Some(e.id.0);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests panic by design
mod tests {
    use super::*;

    #[test]
    fn all_datasets_generate() {
        for d in Dataset::ALL {
            let es = d.generate(2_000, 42);
            assert_eq!(es.len(), 2_000);
            check_stream_invariants(&es);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for d in Dataset::ALL {
            assert_eq!(d.generate(500, 7), d.generate(500, 7));
            assert_ne!(d.generate(500, 7), d.generate(500, 8));
        }
    }
}
