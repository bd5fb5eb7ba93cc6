//! Per-rank communication statistics — the instrument behind Figure 7.
//!
//! The paper quantifies the communication bottleneck by "measuring the time
//! spent in MPI_Wait for different applications". [`RankStats`] accumulates
//! exactly that (`wait_seconds`: wall time blocked in `recv`/`wait`/
//! `barrier`/collectives), plus message counts and byte volumes, plus a
//! *modelled* latency account (`modeled_latency_s`) that prices each message
//! with the machine-model latency of the rank pair's topological distance —
//! letting figure generators re-cost an observed communication pattern on a
//! platform we do not have.

use std::collections::BTreeMap;

/// Number of log2 buckets in the message-size histograms. Bucket `i`
/// counts messages with `2^i <= bytes < 2^(i+1)` (bucket 0 also takes
/// empty messages); the last bucket absorbs everything `>= 2^31` bytes.
pub const SIZE_HIST_BUCKETS: usize = 32;

fn size_bucket(bytes: usize) -> usize {
    if bytes == 0 {
        0
    } else {
        (bytes.ilog2() as usize).min(SIZE_HIST_BUCKETS - 1)
    }
}

/// Traffic exchanged with one peer, with message-size histograms.
#[derive(Debug, Clone, PartialEq)]
pub struct PeerStats {
    pub sends: u64,
    pub recvs: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Seconds blocked in receives that matched this peer.
    pub wait_seconds: f64,
    /// Log2 size histogram of sent messages (see [`SIZE_HIST_BUCKETS`]).
    pub send_size_hist: [u64; SIZE_HIST_BUCKETS],
    /// Log2 size histogram of received messages.
    pub recv_size_hist: [u64; SIZE_HIST_BUCKETS],
}

impl Default for PeerStats {
    fn default() -> Self {
        PeerStats {
            sends: 0,
            recvs: 0,
            bytes_sent: 0,
            bytes_received: 0,
            wait_seconds: 0.0,
            send_size_hist: [0; SIZE_HIST_BUCKETS],
            recv_size_hist: [0; SIZE_HIST_BUCKETS],
        }
    }
}

/// Per-peer and per-tag communication breakdown for one rank.
///
/// This refines the scalar [`RankStats`] account: `wait_seconds` there stays
/// the single source of truth for total blocked time, while `CommDetail`
/// attributes the receive-side share of it to the matched peer and tag.
/// Barrier wait is deliberately *not* attributed here (it has no peer).
/// `BTreeMap` keeps iteration — and hence any rendered report — deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommDetail {
    pub per_peer: BTreeMap<usize, PeerStats>,
    /// Seconds blocked in receives, keyed by message tag.
    pub per_tag_wait: BTreeMap<u32, f64>,
}

impl CommDetail {
    pub fn note_send(&mut self, peer: usize, bytes: usize) {
        let p = self.per_peer.entry(peer).or_default();
        p.sends += 1;
        p.bytes_sent += bytes as u64;
        p.send_size_hist[size_bucket(bytes)] += 1;
    }

    pub fn note_recv(&mut self, peer: usize, tag: u32, bytes: usize, wait_s: f64) {
        let p = self.per_peer.entry(peer).or_default();
        p.recvs += 1;
        p.bytes_received += bytes as u64;
        p.recv_size_hist[size_bucket(bytes)] += 1;
        p.wait_seconds += wait_s;
        *self.per_tag_wait.entry(tag).or_insert(0.0) += wait_s;
    }

    /// Sum of peer-attributed wait time (receive-side only; excludes
    /// barriers, so this is `<= RankStats::wait_seconds`).
    pub fn attributed_wait_seconds(&self) -> f64 {
        self.per_peer.values().map(|p| p.wait_seconds).sum()
    }

    pub fn merge(&mut self, other: &CommDetail) {
        for (&peer, o) in &other.per_peer {
            let p = self.per_peer.entry(peer).or_default();
            p.sends += o.sends;
            p.recvs += o.recvs;
            p.bytes_sent += o.bytes_sent;
            p.bytes_received += o.bytes_received;
            p.wait_seconds += o.wait_seconds;
            for i in 0..SIZE_HIST_BUCKETS {
                p.send_size_hist[i] += o.send_size_hist[i];
                p.recv_size_hist[i] += o.recv_size_hist[i];
            }
        }
        for (&tag, &w) in &other.per_tag_wait {
            *self.per_tag_wait.entry(tag).or_insert(0.0) += w;
        }
    }
}

/// Statistics for one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    pub sends: u64,
    pub recvs: u64,
    pub bytes_sent: u64,
    pub bytes_received: u64,
    /// Wall-clock seconds blocked in recv/wait/barrier/collectives.
    pub wait_seconds: f64,
    /// Modelled message latency cost (seconds) from the machine profile.
    pub modeled_latency_s: f64,
    pub barriers: u64,
    pub collectives: u64,
    /// Envelopes still queued in this rank's mailbox when the world tore
    /// down — sends nobody received. Nonzero values indicate a matching
    /// bug (debug builds also assert on them at teardown).
    pub unreceived_at_teardown: u64,
}

impl RankStats {
    pub fn merge(&mut self, other: &RankStats) {
        self.sends += other.sends;
        self.recvs += other.recvs;
        self.bytes_sent += other.bytes_sent;
        self.bytes_received += other.bytes_received;
        self.wait_seconds += other.wait_seconds;
        self.modeled_latency_s += other.modeled_latency_s;
        self.barriers += other.barriers;
        self.collectives += other.collectives;
        self.unreceived_at_teardown += other.unreceived_at_teardown;
    }
}

/// Aggregate over all ranks of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorldStats {
    pub per_rank: Vec<RankStats>,
    /// Per-peer/per-tag breakdown, indexed like `per_rank`. Empty when the
    /// producer predates detail collection (e.g. hand-built test fixtures).
    pub details: Vec<CommDetail>,
}

impl WorldStats {
    pub fn total(&self) -> RankStats {
        let mut t = RankStats::default();
        for r in &self.per_rank {
            t.merge(r);
        }
        t
    }

    /// Mean blocked time across ranks, seconds.
    pub fn mean_wait_seconds(&self) -> f64 {
        if self.per_rank.is_empty() {
            return 0.0;
        }
        self.total().wait_seconds / self.per_rank.len() as f64
    }

    /// Maximum blocked time across ranks — the critical-path view.
    pub fn max_wait_seconds(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.wait_seconds)
            .fold(0.0, f64::max)
    }

    /// Fraction of total runtime spent waiting, given the run's wall time —
    /// Figure 7's y-axis.
    pub fn mpi_fraction(&self, wall_seconds: f64) -> f64 {
        if wall_seconds <= 0.0 {
            return 0.0;
        }
        (self.mean_wait_seconds() / wall_seconds).min(1.0)
    }

    pub fn total_messages(&self) -> u64 {
        self.total().sends
    }

    pub fn total_bytes(&self) -> u64 {
        self.total().bytes_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = RankStats {
            sends: 1,
            bytes_sent: 10,
            wait_seconds: 0.5,
            ..Default::default()
        };
        let b = RankStats {
            sends: 2,
            bytes_sent: 30,
            wait_seconds: 1.0,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.sends, 3);
        assert_eq!(a.bytes_sent, 40);
        assert!((a.wait_seconds - 1.5).abs() < 1e-12);
    }

    #[test]
    fn world_aggregates() {
        let w = WorldStats {
            per_rank: vec![
                RankStats {
                    sends: 2,
                    wait_seconds: 1.0,
                    ..Default::default()
                },
                RankStats {
                    sends: 4,
                    wait_seconds: 3.0,
                    ..Default::default()
                },
            ],
            details: Vec::new(),
        };
        assert_eq!(w.total_messages(), 6);
        assert!((w.mean_wait_seconds() - 2.0).abs() < 1e-12);
        assert!((w.max_wait_seconds() - 3.0).abs() < 1e-12);
        assert!((w.mpi_fraction(4.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mpi_fraction_clamped_and_safe() {
        let w = WorldStats {
            per_rank: vec![RankStats {
                wait_seconds: 10.0,
                ..Default::default()
            }],
            details: Vec::new(),
        };
        assert_eq!(w.mpi_fraction(0.0), 0.0);
        assert_eq!(w.mpi_fraction(1.0), 1.0);
    }

    #[test]
    fn size_buckets_are_log2() {
        assert_eq!(size_bucket(0), 0);
        assert_eq!(size_bucket(1), 0);
        assert_eq!(size_bucket(2), 1);
        assert_eq!(size_bucket(1023), 9);
        assert_eq!(size_bucket(1024), 10);
        assert_eq!(size_bucket(usize::MAX), SIZE_HIST_BUCKETS - 1);
    }

    #[test]
    fn detail_attributes_waits_and_sizes() {
        let mut d = CommDetail::default();
        d.note_send(1, 800);
        d.note_send(1, 800);
        d.note_recv(2, 7, 4096, 0.25);
        d.note_recv(2, 9, 0, 0.75);
        let p1 = &d.per_peer[&1];
        assert_eq!(p1.sends, 2);
        assert_eq!(p1.bytes_sent, 1600);
        assert_eq!(p1.send_size_hist[9], 2); // 800 B -> bucket 9
        let p2 = &d.per_peer[&2];
        assert_eq!(p2.recvs, 2);
        assert_eq!(p2.recv_size_hist[12], 1); // 4096 B
        assert_eq!(p2.recv_size_hist[0], 1); // empty message
        assert!((p2.wait_seconds - 1.0).abs() < 1e-12);
        assert!((d.per_tag_wait[&7] - 0.25).abs() < 1e-12);
        assert!((d.attributed_wait_seconds() - 1.0).abs() < 1e-12);
        // Iteration order over peers/tags is sorted — deterministic reports.
        assert_eq!(d.per_peer.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn detail_merge_adds_histograms() {
        let mut a = CommDetail::default();
        a.note_send(3, 64);
        let mut b = CommDetail::default();
        b.note_send(3, 64);
        b.note_recv(0, 1, 128, 0.5);
        a.merge(&b);
        assert_eq!(a.per_peer[&3].sends, 2);
        assert_eq!(a.per_peer[&3].send_size_hist[6], 2);
        assert!((a.per_tag_wait[&1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_world_is_zero() {
        let w = WorldStats::default();
        assert_eq!(w.mean_wait_seconds(), 0.0);
        assert_eq!(w.total_messages(), 0);
    }
}
