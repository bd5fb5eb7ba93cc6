//! Core-to-core communication latency (paper Figure 2).
//!
//! The paper measures message-passing latency with the
//! `core-to-core-latency` tool's "one writer / one reader on many cache
//! lines" test between (1) sibling hyperthreads, (2) adjacent cores, and
//! (3) cores on different sockets; for the SMT-disabled EPYC 7V73X it
//! instead reports adjacent-core, cross-NUMA-same-socket (different
//! chiplet), and cross-socket latencies.
//!
//! [`LatencyProfile`] stores those four distances; [`CommDistance`]
//! classifies a pair of cores given the topology.

/// Topological distance classes between two hardware threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CommDistance {
    /// Same physical core, sibling SMT threads.
    Hyperthread,
    /// Different cores within the same NUMA domain.
    SameNuma,
    /// Different NUMA domains on the same socket (SNC slice or chiplet).
    CrossNuma,
    /// Different sockets.
    CrossSocket,
}

impl CommDistance {
    /// All distances, nearest first.
    pub const ALL: [CommDistance; 4] = [
        CommDistance::Hyperthread,
        CommDistance::SameNuma,
        CommDistance::CrossNuma,
        CommDistance::CrossSocket,
    ];

    /// Label used in Figure 2 style reports.
    pub fn label(self) -> &'static str {
        match self {
            CommDistance::Hyperthread => "hyperthread",
            CommDistance::SameNuma => "adjacent core",
            CommDistance::CrossNuma => "cross-NUMA (same socket)",
            CommDistance::CrossSocket => "cross-socket",
        }
    }
}

/// One-way cache-line message-passing latency per [`CommDistance`], in
/// nanoseconds. The numbers for the concrete platforms live in
/// [`crate::platforms`] and reproduce the magnitudes of Figure 2: no
/// significant improvement on Xeon MAX over Ice Lake (slight regression in
/// places), and a 1.6× worse cross-socket latency on the virtualized EPYC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyProfile {
    /// Sibling-hyperthread latency; `None` when SMT is off (EPYC 7V73X).
    pub hyperthread_ns: Option<f64>,
    pub same_numa_ns: f64,
    pub cross_numa_ns: f64,
    pub cross_socket_ns: f64,
}

impl LatencyProfile {
    /// Latency for a distance class. For [`CommDistance::Hyperthread`] on an
    /// SMT-off machine this falls back to the adjacent-core latency (the
    /// closest measurable pairing, as the paper does for the EPYC).
    pub fn latency_ns(&self, d: CommDistance) -> f64 {
        match d {
            CommDistance::Hyperthread => self.hyperthread_ns.unwrap_or(self.same_numa_ns),
            CommDistance::SameNuma => self.same_numa_ns,
            CommDistance::CrossNuma => self.cross_numa_ns,
            CommDistance::CrossSocket => self.cross_socket_ns,
        }
    }

    /// Latencies must not decrease with distance; returns true when the
    /// profile is physically sensible.
    pub fn is_monotone(&self) -> bool {
        let ht = self.hyperthread_ns.unwrap_or(0.0);
        ht <= self.same_numa_ns
            && self.same_numa_ns <= self.cross_numa_ns
            && self.cross_numa_ns <= self.cross_socket_ns
    }

    /// An effective software message latency (one-way, small message) for a
    /// message-passing runtime whose transport is shared memory: the
    /// cache-line ping latency plus a fixed software envelope cost.
    ///
    /// `sw_overhead_ns` models the MPI stack (matching, queues). The paper's
    /// MPI_Wait analysis (Figure 7) is dominated by these latencies once the
    /// bandwidth bottleneck is removed.
    pub fn mpi_latency_ns(&self, d: CommDistance, sw_overhead_ns: f64) -> f64 {
        // A rendezvous exchange costs roughly two line transfers each way.
        2.0 * self.latency_ns(d) + sw_overhead_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> LatencyProfile {
        LatencyProfile {
            hyperthread_ns: Some(8.0),
            same_numa_ns: 50.0,
            cross_numa_ns: 70.0,
            cross_socket_ns: 120.0,
        }
    }

    #[test]
    fn distance_ordering_nearest_first() {
        let l = profile();
        let lats: Vec<f64> = CommDistance::ALL.iter().map(|&d| l.latency_ns(d)).collect();
        for w in lats.windows(2) {
            assert!(
                w[0] <= w[1],
                "latency must be monotone in distance: {lats:?}"
            );
        }
    }

    #[test]
    fn monotone_check_accepts_sane_profile() {
        assert!(profile().is_monotone());
    }

    #[test]
    fn monotone_check_rejects_inverted_profile() {
        let mut l = profile();
        l.cross_socket_ns = 1.0;
        assert!(!l.is_monotone());
    }

    #[test]
    fn smt_off_falls_back_to_adjacent() {
        let mut l = profile();
        l.hyperthread_ns = None;
        assert_eq!(l.latency_ns(CommDistance::Hyperthread), l.same_numa_ns);
        assert!(l.is_monotone());
    }

    #[test]
    fn mpi_latency_adds_software_overhead() {
        let l = profile();
        let raw = l.latency_ns(CommDistance::CrossSocket);
        let mpi = l.mpi_latency_ns(CommDistance::CrossSocket, 200.0);
        assert!(mpi > raw);
        assert_eq!(mpi, 2.0 * raw + 200.0);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            CommDistance::ALL.iter().map(|d| d.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
