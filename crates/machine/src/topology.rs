//! CPU topology: sockets → NUMA domains → cores → SMT threads, plus rank
//! placement policies used by the message-passing substrate.
//!
//! The paper's parallelization study (§5) compares *pure MPI* (one process
//! per physical/logical core) against *MPI+OpenMP* and *MPI+SYCL* (one
//! process per NUMA domain). [`PlacementPolicy`] captures those choices and
//! [`CpuTopology::place_ranks`] maps ranks to hardware threads so that the
//! communication-distance of each rank pair (and hence the injected MPI
//! latency) is known.

use crate::latency::CommDistance;

/// Identifies one hardware thread: `(socket, numa_in_socket, core_in_numa,
/// smt_thread)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId {
    pub socket: u16,
    pub numa: u16,
    pub core: u16,
    pub smt: u8,
}

impl CoreId {
    /// Classify the communication distance between two hardware threads.
    pub fn distance_to(&self, other: &CoreId) -> CommDistance {
        if self.socket != other.socket {
            CommDistance::CrossSocket
        } else if self.numa != other.numa {
            CommDistance::CrossNuma
        } else if self.core != other.core {
            CommDistance::SameNuma
        } else {
            CommDistance::Hyperthread
        }
    }
}

/// Machine topology counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTopology {
    pub sockets: u16,
    pub numa_per_socket: u16,
    pub cores_per_numa: u16,
    /// SMT ways per core (2 with hyperthreading, 1 without).
    pub smt_per_core: u8,
}

/// How ranks (or threads) are assigned to hardware threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// One rank per physical core (HT unused by ranks). Pure-MPI w/o HT.
    OnePerCore,
    /// One rank per hardware thread (both hyperthreads). Pure-MPI w/ HT.
    OnePerThread,
    /// One rank per NUMA domain, pinned to that domain's first core
    /// (MPI+OpenMP / MPI+SYCL configurations).
    OnePerNuma,
    /// One rank per socket.
    OnePerSocket,
    /// One rank per physical core, round-robined across NUMA domains:
    /// rank `r` lands on domain `r mod total_numa` (the
    /// `I_MPI_PIN_ORDER=scatter` counterpart of the compact enumerations
    /// above). Consecutive ranks are topologically far apart, so this is
    /// the adversarial placement for nearest-neighbour stencil traffic —
    /// and the best one for per-rank bandwidth headroom.
    Scatter,
}

impl PlacementPolicy {
    /// Every policy, in a stable enumeration order.
    pub const ALL: [PlacementPolicy; 5] = [
        PlacementPolicy::OnePerNuma,
        PlacementPolicy::OnePerSocket,
        PlacementPolicy::OnePerCore,
        PlacementPolicy::OnePerThread,
        PlacementPolicy::Scatter,
    ];

    /// Stable machine-readable label (used in plan JSON and job specs).
    pub fn label(self) -> &'static str {
        match self {
            PlacementPolicy::OnePerCore => "one-per-core",
            PlacementPolicy::OnePerThread => "one-per-thread",
            PlacementPolicy::OnePerNuma => "one-per-numa",
            PlacementPolicy::OnePerSocket => "one-per-socket",
            PlacementPolicy::Scatter => "scatter",
        }
    }

    /// Inverse of [`Self::label`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == s)
    }
}

/// A computed placement: rank → hardware thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlacement {
    pub policy: PlacementPolicy,
    pub assignments: Vec<CoreId>,
}

impl RankPlacement {
    pub fn n_ranks(&self) -> usize {
        self.assignments.len()
    }

    /// Communication distance between two ranks.
    pub fn distance(&self, a: usize, b: usize) -> CommDistance {
        self.assignments[a].distance_to(&self.assignments[b])
    }

    /// Histogram of pairwise distances over all distinct rank pairs —
    /// useful for estimating average message latency of a halo exchange.
    pub fn distance_histogram(&self) -> [usize; 4] {
        let mut h = [0usize; 4];
        for i in 0..self.assignments.len() {
            for j in (i + 1)..self.assignments.len() {
                let d = self.distance(i, j);
                let idx = CommDistance::ALL.iter().position(|&x| x == d).unwrap();
                h[idx] += 1;
            }
        }
        h
    }

    /// Fraction of nearest-neighbour pairs (rank i, rank i+1) that cross a
    /// socket boundary. Cartesian-decomposed stencil codes mostly talk to
    /// nearby ranks, so this is the latency-relevant statistic.
    pub fn neighbor_cross_socket_fraction(&self) -> f64 {
        if self.assignments.len() < 2 {
            return 0.0;
        }
        let n = self.assignments.len() - 1;
        let crossing = (0..n)
            .filter(|&i| self.distance(i, i + 1) == CommDistance::CrossSocket)
            .count();
        crossing as f64 / n as f64
    }
}

/// How a node's cores are carved into disjoint worker shards (the
/// `bwb-serve` worker pool). Mirrors the two placements the Aurora
/// Xeon-Max study exercises per node: one worker per NUMA domain vs
/// workers packed onto contiguous cores from one end of the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardPolicy {
    /// Shard `i` owns NUMA domains `i, i + n, i + 2n, …`: every shard's
    /// ranks stay inside its own domains, shards spread across the machine.
    OnePerNuma,
    /// Shards own contiguous blocks of physical cores in compact
    /// enumeration order (shard 0 gets the first block, and so on).
    Packed,
}

impl ShardPolicy {
    pub const ALL: [ShardPolicy; 2] = [ShardPolicy::OnePerNuma, ShardPolicy::Packed];

    pub fn label(self) -> &'static str {
        match self {
            ShardPolicy::OnePerNuma => "one-per-numa",
            ShardPolicy::Packed => "packed",
        }
    }

    /// Inverse of [`Self::label`] (wire-format parsing).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.label() == s)
    }
}

impl CpuTopology {
    pub fn total_numa(&self) -> u32 {
        self.sockets as u32 * self.numa_per_socket as u32
    }

    pub fn physical_cores(&self) -> u32 {
        self.total_numa() * self.cores_per_numa as u32
    }

    pub fn hardware_threads(&self) -> u32 {
        self.physical_cores() * self.smt_per_core as u32
    }

    /// Enumerate hardware threads in a compact, NUMA-major order: all first
    /// SMT threads of a NUMA domain, then (if requested) the sibling
    /// threads, then the next domain. This mirrors `I_MPI_PIN_ORDER=compact`.
    pub fn enumerate_threads(&self, use_smt: bool) -> Vec<CoreId> {
        let smt_ways = if use_smt { self.smt_per_core } else { 1 };
        let mut out = Vec::with_capacity(self.physical_cores() as usize * smt_ways as usize);
        for socket in 0..self.sockets {
            for numa in 0..self.numa_per_socket {
                for smt in 0..smt_ways {
                    for core in 0..self.cores_per_numa {
                        out.push(CoreId {
                            socket,
                            numa,
                            core,
                            smt,
                        });
                    }
                }
            }
        }
        out
    }

    /// Compute the rank placement under a policy.
    pub fn place_ranks(&self, policy: PlacementPolicy) -> RankPlacement {
        let assignments = match policy {
            PlacementPolicy::OnePerCore => self.enumerate_threads(false),
            PlacementPolicy::OnePerThread => self.enumerate_threads(true),
            PlacementPolicy::OnePerNuma => {
                let mut v = Vec::new();
                for socket in 0..self.sockets {
                    for numa in 0..self.numa_per_socket {
                        v.push(CoreId {
                            socket,
                            numa,
                            core: 0,
                            smt: 0,
                        });
                    }
                }
                v
            }
            PlacementPolicy::OnePerSocket => (0..self.sockets)
                .map(|socket| CoreId {
                    socket,
                    numa: 0,
                    core: 0,
                    smt: 0,
                })
                .collect(),
            PlacementPolicy::Scatter => {
                // Domain-major round-robin: core index varies slowest, the
                // domain varies fastest, so rank r sits on domain
                // r % total_numa at core r / total_numa.
                let domains = self.total_numa() as u16;
                let mut v = Vec::with_capacity(self.physical_cores() as usize);
                for core in 0..self.cores_per_numa {
                    for dom in 0..domains {
                        v.push(CoreId {
                            socket: dom / self.numa_per_socket,
                            numa: dom % self.numa_per_socket,
                            core,
                            smt: 0,
                        });
                    }
                }
                v
            }
        };
        RankPlacement {
            policy,
            assignments,
        }
    }

    /// Carve the node's physical cores into `shards` disjoint core sets.
    ///
    /// Returns one [`RankPlacement`] per shard whose assignments are that
    /// shard's cores in rank order; a shard universe of `n` ranks uses the
    /// first `n`. Core sets are pairwise disjoint and together cover every
    /// physical core (SMT siblings excluded — ranks never share a core
    /// with another shard's ranks). Errors if `shards` is zero or exceeds
    /// the carve-able units (NUMA domains for [`ShardPolicy::OnePerNuma`],
    /// physical cores for [`ShardPolicy::Packed`]) — callers like the
    /// `bwb-serve` worker pool surface that as a client error rather than
    /// crashing the process.
    pub fn carve_shards(
        &self,
        shards: usize,
        policy: ShardPolicy,
    ) -> Result<Vec<RankPlacement>, String> {
        if shards == 0 {
            return Err("need at least one shard".to_string());
        }
        let cores = self.enumerate_threads(false);
        let sets: Vec<Vec<CoreId>> = match policy {
            ShardPolicy::OnePerNuma => {
                let domains = self.total_numa() as usize;
                if shards > domains {
                    return Err(format!("{shards} shards over {domains} NUMA domains"));
                }
                // Round-robin whole domains over shards, keeping each
                // shard's domain list in machine order.
                (0..shards)
                    .map(|s| {
                        cores
                            .iter()
                            .filter(|c| {
                                let dom = (c.socket as usize * self.numa_per_socket as usize)
                                    + c.numa as usize;
                                dom % shards == s
                            })
                            .copied()
                            .collect()
                    })
                    .collect()
            }
            ShardPolicy::Packed => {
                if shards > cores.len() {
                    return Err(format!("{shards} shards over {} cores", cores.len()));
                }
                // Contiguous blocks; the first `rem` shards get one extra.
                let base = cores.len() / shards;
                let rem = cores.len() % shards;
                let mut out = Vec::with_capacity(shards);
                let mut at = 0usize;
                for s in 0..shards {
                    let len = base + usize::from(s < rem);
                    out.push(cores[at..at + len].to_vec());
                    at += len;
                }
                out
            }
        };
        Ok(sets
            .into_iter()
            .map(|assignments| RankPlacement {
                policy: PlacementPolicy::OnePerCore,
                assignments,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Xeon MAX 9480-like topology: 2 sockets × 4 NUMA × 14 cores × 2 SMT.
    fn max_topo() -> CpuTopology {
        CpuTopology {
            sockets: 2,
            numa_per_socket: 4,
            cores_per_numa: 14,
            smt_per_core: 2,
        }
    }

    #[test]
    fn counts() {
        let t = max_topo();
        assert_eq!(t.total_numa(), 8);
        assert_eq!(t.physical_cores(), 112);
        assert_eq!(t.hardware_threads(), 224);
    }

    #[test]
    fn distance_classification() {
        let a = CoreId {
            socket: 0,
            numa: 0,
            core: 0,
            smt: 0,
        };
        let ht = CoreId {
            socket: 0,
            numa: 0,
            core: 0,
            smt: 1,
        };
        let adj = CoreId {
            socket: 0,
            numa: 0,
            core: 1,
            smt: 0,
        };
        let xn = CoreId {
            socket: 0,
            numa: 1,
            core: 0,
            smt: 0,
        };
        let xs = CoreId {
            socket: 1,
            numa: 0,
            core: 0,
            smt: 0,
        };
        assert_eq!(a.distance_to(&ht), CommDistance::Hyperthread);
        assert_eq!(a.distance_to(&adj), CommDistance::SameNuma);
        assert_eq!(a.distance_to(&xn), CommDistance::CrossNuma);
        assert_eq!(a.distance_to(&xs), CommDistance::CrossSocket);
        // symmetric
        assert_eq!(xs.distance_to(&a), CommDistance::CrossSocket);
    }

    #[test]
    fn one_per_core_uses_physical_cores_only() {
        let t = max_topo();
        let p = t.place_ranks(PlacementPolicy::OnePerCore);
        assert_eq!(p.n_ranks(), 112);
        assert!(p.assignments.iter().all(|c| c.smt == 0));
    }

    #[test]
    fn one_per_thread_uses_all_threads() {
        let t = max_topo();
        let p = t.place_ranks(PlacementPolicy::OnePerThread);
        assert_eq!(p.n_ranks(), 224);
        let smt1 = p.assignments.iter().filter(|c| c.smt == 1).count();
        assert_eq!(smt1, 112);
    }

    #[test]
    fn one_per_numa_gives_numa_count_ranks() {
        let t = max_topo();
        let p = t.place_ranks(PlacementPolicy::OnePerNuma);
        assert_eq!(p.n_ranks(), 8);
        // All on distinct NUMA domains.
        let mut seen = std::collections::HashSet::new();
        for c in &p.assignments {
            assert!(seen.insert((c.socket, c.numa)));
        }
    }

    #[test]
    fn one_per_socket() {
        let t = max_topo();
        let p = t.place_ranks(PlacementPolicy::OnePerSocket);
        assert_eq!(p.n_ranks(), 2);
        assert_eq!(p.distance(0, 1), CommDistance::CrossSocket);
    }

    #[test]
    fn enumerate_threads_compact_keeps_neighbors_close() {
        let t = max_topo();
        let p = t.place_ranks(PlacementPolicy::OnePerCore);
        // With compact placement, consecutive ranks should rarely cross a
        // socket: exactly one boundary out of 111 neighbour pairs.
        let f = p.neighbor_cross_socket_fraction();
        assert!(
            f < 0.02,
            "compact placement should keep neighbours close, got {f}"
        );
    }

    #[test]
    fn carved_shards_are_disjoint_and_cover_all_cores() {
        let t = max_topo();
        for policy in [ShardPolicy::OnePerNuma, ShardPolicy::Packed] {
            for shards in [1, 2, 4, 8] {
                let carved = t.carve_shards(shards, policy).unwrap();
                assert_eq!(carved.len(), shards);
                let mut seen = std::collections::HashSet::new();
                for p in &carved {
                    assert!(!p.assignments.is_empty());
                    for c in &p.assignments {
                        assert!(seen.insert(*c), "{policy:?}/{shards}: core {c:?} reused");
                    }
                }
                assert_eq!(
                    seen.len(),
                    t.physical_cores() as usize,
                    "{policy:?}/{shards}: carve must cover every physical core"
                );
            }
        }
    }

    #[test]
    fn one_per_numa_shards_keep_domains_whole() {
        let t = max_topo();
        let carved = t.carve_shards(8, ShardPolicy::OnePerNuma).unwrap();
        // 8 shards over 8 domains: each shard is exactly one domain.
        for p in &carved {
            assert_eq!(p.assignments.len(), t.cores_per_numa as usize);
            let first = (p.assignments[0].socket, p.assignments[0].numa);
            assert!(p.assignments.iter().all(|c| (c.socket, c.numa) == first));
        }
    }

    #[test]
    fn packed_shards_are_contiguous_blocks() {
        let t = max_topo();
        let carved = t.carve_shards(4, ShardPolicy::Packed).unwrap();
        let all = t.enumerate_threads(false);
        let mut at = 0usize;
        for p in &carved {
            assert_eq!(p.assignments, all[at..at + p.assignments.len()].to_vec());
            at += p.assignments.len();
        }
        assert_eq!(at, all.len());
    }

    #[test]
    fn over_carving_is_an_error_not_a_panic() {
        let err = max_topo()
            .carve_shards(9, ShardPolicy::OnePerNuma)
            .unwrap_err();
        assert!(err.contains("NUMA domains"), "{err}");
        let err = max_topo().carve_shards(0, ShardPolicy::Packed).unwrap_err();
        assert!(err.contains("at least one"), "{err}");
        let err = max_topo()
            .carve_shards(113, ShardPolicy::Packed)
            .unwrap_err();
        assert!(err.contains("cores"), "{err}");
    }

    #[test]
    fn scatter_round_robins_numa_domains() {
        let t = max_topo();
        let p = t.place_ranks(PlacementPolicy::Scatter);
        // Covers every physical core exactly once, SMT unused.
        assert_eq!(p.n_ranks(), 112);
        let distinct: std::collections::HashSet<_> = p.assignments.iter().collect();
        assert_eq!(distinct.len(), 112);
        assert!(p.assignments.iter().all(|c| c.smt == 0));
        // Rank r sits on domain r % 8: the first 8 ranks are pairwise on
        // distinct domains, and consecutive ranks never share one.
        for r in 0..8usize {
            let c = p.assignments[r];
            let dom = c.socket as usize * t.numa_per_socket as usize + c.numa as usize;
            assert_eq!(dom, r % 8);
        }
        for r in 0..111 {
            assert_ne!(
                p.distance(r, r + 1),
                CommDistance::SameNuma,
                "ranks {r},{} must not share a domain",
                r + 1
            );
        }
        // Scatter is adversarial for neighbour traffic: 2 of every 8
        // consecutive-rank hops cross the socket (domain 3 -> 4 and
        // 7 -> 0), where the compact enumeration has exactly one crossing
        // in the whole chain.
        let f = p.neighbor_cross_socket_fraction();
        assert!((f - 0.25).abs() < 0.01, "got {f}");
    }

    #[test]
    fn distance_histogram_counts_all_pairs() {
        let t = CpuTopology {
            sockets: 2,
            numa_per_socket: 1,
            cores_per_numa: 2,
            smt_per_core: 1,
        };
        let p = t.place_ranks(PlacementPolicy::OnePerCore);
        let h = p.distance_histogram();
        // 4 ranks → 6 pairs: within each socket 1 pair ×2 sockets = 2
        // same-numa pairs; 4 cross-socket pairs.
        assert_eq!(h.iter().sum::<usize>(), 6);
        assert_eq!(h[1], 2);
        assert_eq!(h[3], 4);
    }
}
