//! Memory system description: cache levels and main memory.
//!
//! The paper's central quantity is the ratio between cache bandwidth and
//! main-memory bandwidth (3.8× on Xeon MAX 9480, ~6.3× on Xeon 8360Y, ~14×
//! on EPYC 7V73X — §2 and Figure 9). We therefore describe the memory system
//! as an ordered list of [`CacheLevel`]s plus one [`MainMemory`], each with a
//! capacity, a sustained streaming bandwidth, and a load-to-use latency.

/// The physical technology backing a platform's main memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryKind {
    /// On-package High Bandwidth Memory (Xeon MAX 9480 in HBM-only mode,
    /// A100's HBM2e).
    Hbm2e,
    /// Conventional DDR4 DIMMs (Xeon 8360Y, EPYC 7V73X).
    Ddr4,
    /// DDR5 (not used by the paper's systems; provided for extensions).
    Ddr5,
}

impl MemoryKind {
    /// Human-readable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            MemoryKind::Hbm2e => "HBM2e",
            MemoryKind::Ddr4 => "DDR4",
            MemoryKind::Ddr5 => "DDR5",
        }
    }

    /// Whether the memory is stacked on-package (true for HBM). On-package
    /// memory has dramatically higher bandwidth but, on Sapphire Rapids HBM,
    /// *not* lower latency — one of the paper's key observations.
    pub fn on_package(self) -> bool {
        matches!(self, MemoryKind::Hbm2e)
    }
}

/// Whether a cache level is private to a core or shared.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheScope {
    /// Private to one physical core (L1/L2 on all three CPUs).
    PerCore,
    /// Shared by all cores of one socket (L3 on Xeon; per-CCX on EPYC is
    /// modelled as socket-shared with the aggregate capacity).
    PerSocket,
    /// Shared by a NUMA domain (SNC4 slices of L3 on Xeon MAX).
    PerNuma,
}

/// One level of the cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheLevel {
    /// 1 for L1d, 2 for L2, 3 for L3.
    pub level: u8,
    /// Capacity in bytes *per scope unit* (per core for `PerCore`, per
    /// socket for `PerSocket`).
    pub capacity_bytes: u64,
    /// Scope of sharing.
    pub scope: CacheScope,
    /// Sustained aggregate streaming bandwidth of this level across the whole
    /// machine, in GB/s (as a STREAM-like kernel would observe when resident).
    pub stream_bw_gbs: f64,
    /// Load-to-use latency in nanoseconds.
    pub latency_ns: f64,
    /// Associativity (ways); informational, used by the cache simulator.
    pub associativity: u32,
    /// Cache line size in bytes (64 on all modelled platforms).
    pub line_bytes: u32,
}

impl CacheLevel {
    /// Total capacity across the machine given the topology counts.
    pub fn total_capacity_bytes(&self, cores: u64, sockets: u64, numa_domains: u64) -> u64 {
        match self.scope {
            CacheScope::PerCore => self.capacity_bytes * cores,
            CacheScope::PerSocket => self.capacity_bytes * sockets,
            CacheScope::PerNuma => self.capacity_bytes * numa_domains,
        }
    }
}

/// Main memory description.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MainMemory {
    pub kind: MemoryKind,
    /// Total capacity in GiB across the machine.
    pub capacity_gib: u64,
    /// Theoretical peak bandwidth, GB/s, whole machine (paper §2: 2×204.8
    /// GB/s for the DDR4 systems, ≈2×1300 GB/s for Xeon MAX).
    pub peak_bw_gbs: f64,
    /// Idle load-to-use latency in nanoseconds.
    pub latency_ns: f64,
}

impl MainMemory {
    /// Bytes of capacity.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_gib * 1024 * 1024 * 1024
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_kind_names() {
        assert_eq!(MemoryKind::Hbm2e.name(), "HBM2e");
        assert_eq!(MemoryKind::Ddr4.name(), "DDR4");
        assert_eq!(MemoryKind::Ddr5.name(), "DDR5");
    }

    #[test]
    fn hbm_is_on_package() {
        assert!(MemoryKind::Hbm2e.on_package());
        assert!(!MemoryKind::Ddr4.on_package());
        assert!(!MemoryKind::Ddr5.on_package());
    }

    #[test]
    fn cache_total_capacity_per_core() {
        let l2 = CacheLevel {
            level: 2,
            capacity_bytes: 2 << 20,
            scope: CacheScope::PerCore,
            stream_bw_gbs: 10_000.0,
            latency_ns: 14.0,
            associativity: 16,
            line_bytes: 64,
        };
        assert_eq!(l2.total_capacity_bytes(112, 2, 8), 112 * (2 << 20));
    }

    #[test]
    fn cache_total_capacity_per_socket() {
        let l3 = CacheLevel {
            level: 3,
            capacity_bytes: 768 << 20,
            scope: CacheScope::PerSocket,
            stream_bw_gbs: 4_000.0,
            latency_ns: 50.0,
            associativity: 16,
            line_bytes: 64,
        };
        assert_eq!(l3.total_capacity_bytes(120, 2, 4), 2 * (768 << 20));
    }

    #[test]
    fn cache_total_capacity_per_numa() {
        let l3 = CacheLevel {
            level: 3,
            capacity_bytes: 14 << 20,
            scope: CacheScope::PerNuma,
            stream_bw_gbs: 5_000.0,
            latency_ns: 33.0,
            associativity: 15,
            line_bytes: 64,
        };
        assert_eq!(l3.total_capacity_bytes(112, 2, 8), 8 * (14 << 20));
    }

    #[test]
    fn main_memory_capacity_bytes() {
        let m = MainMemory {
            kind: MemoryKind::Hbm2e,
            capacity_gib: 128,
            peak_bw_gbs: 2600.0,
            latency_ns: 130.0,
        };
        assert_eq!(m.capacity_bytes(), 128 * 1024 * 1024 * 1024);
    }
}
