//! The mechanistic runtime predictor.
//!
//! For one (application, platform, configuration) triple the model prices a
//! run as
//!
//! ```text
//! T_run = iterations · [ max(T_bw, T_flop) + T_lat + T_mpi + T_launch ]
//! ```
//!
//! * `T_bw` — useful bytes over the machine's *achievable* streaming
//!   bandwidth (measured Triad × an access-pattern factor < 1 for
//!   multi-dimensional stencils), concurrency-limited per Little's law;
//! * `T_flop` — FLOPs over the effective arithmetic rate: vector width
//!   (ZMM setting), AVX-512 clock reduction, per-compiler code quality,
//!   SMT pipeline contention for compute-bound kernels;
//! * `T_lat` — stall time of accesses hardware prefetchers cannot cover
//!   (indirection, deep-stencil cache spill), overlapped only up to the
//!   core's irregular memory-level parallelism;
//! * `T_mpi` — per-rank message latencies (priced by the rank placement's
//!   topological distances) + halo volume + reduction trees;
//! * `T_launch` — per-parallel-loop overheads of the threading/offload
//!   runtime (OpenMP barriers; SYCL's OpenCL-driver launches, which the
//!   paper blames for CloverLeaf's SYCL penalty).
//!
//! All calibration constants are collected in [`tuning`] with the paper
//! quantity each one reproduces.

use crate::config::{Compiler, Parallelization, RunConfig, Zmm};
use bwb_apps::characterize::AppCharacter;
use bwb_apps::AppId;
use bwb_machine::Platform;

/// Calibration constants. Each is a *mechanism strength*, not a figure
/// output; figures emerge from their interaction with the measured app
/// profiles and platform descriptors.
pub mod tuning {
    /// Fraction of STREAM bandwidth reachable by multi-field stencil codes,
    /// per spatial dimension of the access pattern (Figure 8's sub-STREAM
    /// efficiencies; 2-D ≈ 0.93², 3-D ≈ 0.93³ before latency losses).
    pub const PATTERN_EFF_PER_DIM: f64 = 0.93;
    /// GPU pattern efficiency per dimension (massive SMT hides most of it).
    pub const GPU_PATTERN_EFF_PER_DIM: f64 = 0.985;
    /// Irregular (non-prefetchable) outstanding misses per CPU core —
    /// line-fill-buffer limited, well below the streaming MLP.
    pub const IRREGULAR_MLP: f64 = 9.0;
    /// SMT boost to irregular MLP (the +13% HT gain on unstructured apps).
    pub const SMT_IRREGULAR_BOOST: f64 = 1.35;
    /// SMT boost to achieved bandwidth of gather-heavy (indirect) kernels:
    /// the second thread keeps more irregular loads in flight.
    pub const SMT_GATHER_BW_BOOST: f64 = 1.13;
    /// SMT boost to scalar issue throughput of dependency-stalled
    /// (indirect) kernels.
    pub const SMT_SCALAR_BOOST: f64 = 1.15;
    /// Fraction of the irregular-miss stall time that the colored
    /// (OpenMP/SYCL) schedule adds on top of the binding resource — the
    /// "further loss in data locality" of the paper's §5.
    pub const COLOR_EXTRA_LAT: f64 = 0.6;
    /// Fraction of an indirect kernel's operand touches that miss the
    /// prefetchers and pay full memory latency.
    pub const IRREGULAR_MISS_RATE: f64 = 0.04;
    /// Effective bandwidth available to halo-exchange copies: intra-node
    /// copies traverse the mesh/UPI links, whose throughput did *not* scale
    /// with HBM — the mechanism behind Figure 7's bottleneck shift.
    pub const HALO_LINK_BW_GBS: f64 = 400.0;
    /// Achieved fraction of peak FLOPS in dense, FMA-rich compute kernels
    /// (miniBUDE reaches 6 of 18.6 turbo TFLOP/s ≈ 0.32).
    pub const VEC_KERNEL_EFF_DENSE: f64 = 0.33;
    /// Achieved fraction of peak FLOPS in stencil kernels (shuffle/blend
    /// heavy, fewer FMAs per load).
    pub const VEC_KERNEL_EFF_STENCIL: f64 = 0.22;
    /// AVX-512 all-core clock derate on 512-bit capable Intel parts.
    pub const ZMM_HIGH_CLOCK_DERATE: f64 = 0.97;
    /// SMT pipeline contention for compute-bound kernels (miniBUDE −28%).
    pub const SMT_COMPUTE_DERATE: f64 = 0.78;
    /// Bandwidth efficiency of threaded (OpenMP/SYCL) backends vs pure MPI
    /// (sharing overheads; first-touch imperfections inside a NUMA rank).
    pub const THREADED_BW_EFF: f64 = 0.965;
    /// Locality penalty of the colored OpenMP schedule on indirect bytes.
    pub const COLOR_LOCALITY_PENALTY: f64 = 0.85;
    /// Gather/scatter traffic overhead of the vectorized MPI path, per
    /// unit indirection, scaled by vector width / 512 (EPYC's AVX2 pays
    /// half — paper §6).
    pub const VEC_PACK_OVERHEAD: f64 = 0.55;
    /// Speedup of the vectorized unstructured kernels over scalar
    /// execution at 512-bit (fraction of the 8-lane ideal).
    pub const VEC_UNSTRUCTURED_GAIN_512: f64 = 2.6;
    /// OpenMP fork/join + barrier cost per parallel loop, µs, at 64
    /// threads (scales with log₂ threads).
    pub const OMP_BARRIER_US_AT_64T: f64 = 1.4;
    /// Extra SYCL cost multiplier on the per-kernel launch overhead for
    /// *small* (boundary) kernels, which cannot amortize a driver launch.
    pub const SYCL_SMALL_KERNEL_FACTOR: f64 = 2.5;
    /// MPI software envelope per message, ns.
    pub const MPI_SW_OVERHEAD_NS: f64 = 450.0;
    /// Effective copy amplification of a halo exchange (pack + wire +
    /// unpack through shared memory).
    pub const HALO_COPY_AMPLIFICATION: f64 = 3.0;
    /// Unstructured halo surface coefficient: imported elements per
    /// sqrt(per-rank elements) (from RCB halo plans).
    pub const UNSTRUCTURED_SURFACE_COEF: f64 = 2.5;
    /// Load imbalance factor applied to MPI wait time for per-core ranks.
    pub const MPI_IMBALANCE: f64 = 1.15;
}

/// Model input.
#[derive(Debug, Clone)]
pub struct ModelInput<'a> {
    pub platform: &'a Platform,
    pub character: &'a AppCharacter,
    pub config: RunConfig,
    /// Primary-set size (grid points / mesh elements).
    pub points: usize,
    pub iterations: usize,
}

/// Decomposed prediction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    pub seconds: f64,
    pub t_bandwidth: f64,
    pub t_compute: f64,
    pub t_latency: f64,
    pub t_cache: f64,
    pub t_mpi: f64,
    pub t_launch: f64,
    /// Achieved effective bandwidth (useful bytes / kernel time), GB/s —
    /// Figure 8's metric.
    pub effective_gbs: f64,
    /// Fraction of runtime in MPI — Figure 7's metric.
    pub mpi_fraction: f64,
    pub achieved_gflops: f64,
    pub ranks: u32,
}

/// The paper's problem scale per application: (points, iterations).
pub fn paper_scale(app: AppId) -> (usize, usize) {
    match app {
        AppId::CloverLeaf2D => (7680 * 7680, 50),
        AppId::CloverLeaf3D => (408 * 408 * 408, 50),
        AppId::Acoustic => (320 * 320 * 320, 10),
        AppId::OpenSbliSa | AppId::OpenSbliSn => (320 * 320 * 320, 20),
        AppId::MiniWeather => (4000 * 2000, 90), // sim time 1.0 at dt≈11 ms
        AppId::MgCfd => (8_000_000, 25),
        AppId::Volna => (30_000_000, 200),
        AppId::MiniBude => (65_536, 30),
    }
}

/// Per-(app, compiler) code-quality runtime multiplier (≥ 1 is slower).
/// Encodes the paper's §5 compiler observations; `None` = configuration
/// does not run (Classic-compiled miniBUDE "stalls").
pub fn compiler_factor(app: AppId, compiler: Compiler) -> Option<f64> {
    Some(match (app, compiler) {
        (AppId::MiniBude, Compiler::Classic) => return None,
        (AppId::Acoustic, Compiler::Classic) => 1.15,
        (AppId::MiniWeather, Compiler::Classic) => 1.34,
        // Classic wins by a few % on half the structured apps (§5).
        (AppId::CloverLeaf2D, Compiler::Classic) => 0.96,
        (AppId::CloverLeaf3D, Compiler::Classic) => 0.96,
        (AppId::OpenSbliSa, Compiler::Classic) => 0.97,
        (AppId::OpenSbliSn, Compiler::Classic) => 0.99,
        (AppId::MgCfd, Compiler::Classic) => 0.95,
        (AppId::Volna, Compiler::Classic) => 1.08,
        _ => 1.0,
    })
}

fn is_gpu(p: &Platform) -> bool {
    p.is_gpu
}

/// Average one-way small-message latency for neighbour exchanges under a
/// placement, ns.
fn neighbor_latency_ns(p: &Platform, per_numa_ranks: bool) -> f64 {
    let l = &p.latency;
    if per_numa_ranks {
        // NUMA-rank neighbours are other NUMA domains or the other socket.
        0.5 * l.cross_numa_ns + 0.5 * l.cross_socket_ns
    } else {
        // Compact per-core placement: most neighbours are near.
        0.60 * l.same_numa_ns + 0.25 * l.cross_numa_ns + 0.15 * l.cross_socket_ns
    }
}

/// Predict one run.
pub fn predict(input: &ModelInput) -> Option<Prediction> {
    let p = input.platform;
    let ch = input.character;
    let cfg = input.config;
    let app = ch.app;
    let gpu = is_gpu(p);

    // --- configuration feasibility ---
    let cq = if gpu {
        1.0
    } else {
        compiler_factor(app, cfg.compiler)?
    };
    if cfg.par == Parallelization::MpiVec && !ch.mpi_vec_available {
        return None;
    }
    if cfg.hyperthreading && p.topology.smt_per_core < 2 {
        return None; // EPYC 7V73X: SMT off
    }

    let t = &p.topology;
    let cores = t.physical_cores() as f64;
    let (ranks, threads_per_rank) = if gpu {
        (1u32, 1u32)
    } else if cfg.par.one_rank_per_numa() {
        let tpr = t.cores_per_numa as u32 * if cfg.hyperthreading { 2 } else { 1 };
        (t.total_numa(), tpr)
    } else if cfg.hyperthreading {
        (t.hardware_threads(), 1)
    } else {
        (t.physical_cores(), 1)
    };

    let points = input.points as f64;
    let bytes_iter = points * ch.bytes_per_point_iter;
    let flops_iter = points * ch.flops_per_point_iter;
    let compute_bound = ch.intensity() > 5.0;

    // --- bandwidth term ---
    let raw_bw = p.effective_stream_bw_gbs(t.physical_cores(), cfg.hyperthreading && !gpu);
    let mut pattern = if gpu {
        tuning::GPU_PATTERN_EFF_PER_DIM.powi(ch.dims.max(1) as i32)
    } else {
        tuning::PATTERN_EFF_PER_DIM.powi(ch.dims.max(1) as i32)
    };
    if !gpu && cfg.hyperthreading && ch.indirection > 0.3 {
        pattern *= tuning::SMT_GATHER_BW_BOOST;
    }
    let threaded_eff = if cfg.par.one_rank_per_numa() && !gpu {
        tuning::THREADED_BW_EFF
    } else {
        1.0
    };
    // Extra traffic from the execution scheme on indirect data.
    let traffic = if gpu {
        1.0
    } else {
        match cfg.par {
            Parallelization::MpiVec => {
                let width = (p.vector_bits as f64 / 512.0).min(1.0);
                1.0 + tuning::VEC_PACK_OVERHEAD * ch.indirection * width
            }
            Parallelization::MpiOpenMp
            | Parallelization::MpiSyclFlat
            | Parallelization::MpiSyclNdrange => {
                1.0 + (1.0 - tuning::COLOR_LOCALITY_PENALTY) / tuning::COLOR_LOCALITY_PENALTY
                    * ch.indirection
            }
            Parallelization::Mpi => 1.0,
        }
    };
    let t_bw = bytes_iter * traffic / (raw_bw * pattern * threaded_eff * 1e9);

    // --- compute term ---
    let clock = if !gpu && cfg.zmm == Zmm::High && p.vector_bits >= 512 {
        p.turbo_allcore_ghz * tuning::ZMM_HIGH_CLOCK_DERATE
    } else {
        p.turbo_allcore_ghz
    };
    // GPUs always use their full vector width; CPUs only at ZMM high.
    let vec_bits_used = if gpu || cfg.zmm == Zmm::High {
        p.vector_bits
    } else {
        p.vector_bits.min(256)
    };
    let lane_bits = (ch.precision_bytes * 8) as u32;
    let lanes = (vec_bits_used / lane_bits).max(1) as f64;
    // Unstructured kernels only vectorize on the MpiVec path (and on GPU).
    let eff_lanes = if gpu {
        lanes
    } else if ch.indirection > 0.3 {
        match cfg.par {
            Parallelization::MpiVec => {
                (tuning::VEC_UNSTRUCTURED_GAIN_512 * lanes / (512 / lane_bits) as f64).max(1.0)
            }
            _ => 1.0,
        }
    } else {
        lanes
    };
    let smt_compute = if !gpu && cfg.hyperthreading {
        if compute_bound {
            tuning::SMT_COMPUTE_DERATE
        } else if ch.indirection > 0.3 {
            tuning::SMT_SCALAR_BOOST
        } else {
            1.0
        }
    } else {
        1.0
    };
    let vec_eff = if ch.intensity() > 50.0 {
        tuning::VEC_KERNEL_EFF_DENSE
    } else {
        tuning::VEC_KERNEL_EFF_STENCIL
    };
    let flop_rate =
        cores * clock * p.fma_units as f64 * eff_lanes * 2.0 * vec_eff * smt_compute * 1e9;
    let t_flop = flops_iter / flop_rate;

    // --- latency stall term (indirect accesses the prefetchers miss) ---
    let operand_touches = ch.bytes_per_point_iter / ch.precision_bytes as f64;
    let lat_accesses_pp = ch.indirection * operand_touches * tuning::IRREGULAR_MISS_RATE;
    let mlp = if gpu {
        p.mlp_per_core
    } else {
        tuning::IRREGULAR_MLP
            * if cfg.hyperthreading {
                tuning::SMT_IRREGULAR_BOOST
            } else {
                1.0
            }
    };
    let t_lat = points * lat_accesses_pp * p.memory.latency_ns * 1e-9 / (cores * mlp);

    // --- cache-bandwidth term (stencil taps served by the private caches;
    // the paper's §2 cache:memory bandwidth ratio is exactly what makes
    // this term relatively heavier on the Xeon MAX) ---
    let cache_bw_gbs = if gpu {
        p.caches
            .first()
            .map(|c| c.stream_bw_gbs)
            .unwrap_or(f64::INFINITY)
    } else {
        p.caches
            .iter()
            .find(|c| c.level == 2)
            .map(|c| c.stream_bw_gbs)
            .unwrap_or(f64::INFINITY)
    };
    let t_cache = points * ch.cache_bytes_per_point_iter / (cache_bw_gbs * 1e9);

    // --- MPI term ---
    let t_mpi = if gpu || ranks <= 1 {
        0.0
    } else {
        let per_rank = points / ranks as f64;
        let (surface_pts, neighbors) = match ch.dims {
            3 => (per_rank.powf(2.0 / 3.0) * 6.0, 6.0),
            2 => (per_rank.sqrt() * 4.0, 4.0),
            _ => (tuning::UNSTRUCTURED_SURFACE_COEF * per_rank.sqrt(), 6.0),
        };
        let halo_bytes_rank = surface_pts
            * ch.stencil_reach.max(1) as f64
            * ch.precision_bytes as f64
            * ch.fields_exchanged_per_iter.max(1.0);
        let msgs_rank = neighbors * ch.fields_exchanged_per_iter.max(1.0);
        let lat = neighbor_latency_ns(p, cfg.par.one_rank_per_numa());
        let t_lat_msgs = msgs_rank * (2.0 * lat + tuning::MPI_SW_OVERHEAD_NS) * 1e-9;
        // All ranks exchange concurrently; aggregate copy traffic shares
        // the node's *interconnect* bandwidth, which (unlike HBM) did not
        // improve across generations.
        let halo_bw = raw_bw.min(tuning::HALO_LINK_BW_GBS);
        let t_halo_bw =
            ranks as f64 * halo_bytes_rank * tuning::HALO_COPY_AMPLIFICATION / (halo_bw * 1e9);
        let t_reduce = ch.reductions_per_iter
            * 2.0
            * (ranks as f64).log2().max(1.0)
            * (p.latency.cross_socket_ns + tuning::MPI_SW_OVERHEAD_NS)
            * 1e-9;
        let imbalance = if cfg.par.one_rank_per_numa() {
            1.0
        } else {
            tuning::MPI_IMBALANCE
        };
        (t_lat_msgs + t_halo_bw + t_reduce) * imbalance
    };

    // --- runtime launch overheads ---
    let t_launch = if gpu {
        ch.kernels_per_iter * p.kernel_launch_overhead_us * 1e-6
    } else {
        match cfg.par {
            Parallelization::MpiOpenMp => {
                let barrier = tuning::OMP_BARRIER_US_AT_64T
                    * ((threads_per_rank as f64).log2().max(1.0) / 6.0);
                ch.kernels_per_iter * barrier * 1e-6
            }
            Parallelization::MpiSyclFlat | Parallelization::MpiSyclNdrange => {
                let small_penalty =
                    1.0 + ch.small_kernel_fraction * (tuning::SYCL_SMALL_KERNEL_FACTOR - 1.0);
                let ndrange = if cfg.par == Parallelization::MpiSyclNdrange {
                    1.02
                } else {
                    1.0
                };
                ch.kernels_per_iter * p.kernel_launch_overhead_us * small_penalty * ndrange * 1e-6
            }
            _ => 0.0,
        }
    };

    // Colored (threaded) schedules on indirect meshes add un-overlapped
    // locality stalls on top of whichever resource binds.
    let t_color = if !gpu && cfg.par.one_rank_per_numa() && ch.indirection > 0.3 {
        tuning::COLOR_EXTRA_LAT * t_lat
    } else {
        0.0
    };
    let kernel_time = (t_bw.max(t_flop).max(t_lat) + t_cache + t_color) * cq;
    let t_iter = kernel_time + t_mpi + t_launch;
    let seconds = t_iter * input.iterations as f64;

    Some(Prediction {
        seconds,
        t_bandwidth: t_bw * input.iterations as f64,
        t_compute: t_flop * input.iterations as f64,
        t_latency: t_lat * input.iterations as f64,
        t_cache: t_cache * input.iterations as f64,
        t_mpi: t_mpi * input.iterations as f64,
        t_launch: t_launch * input.iterations as f64,
        effective_gbs: bytes_iter / (kernel_time + t_launch) / 1e9,
        mpi_fraction: t_mpi / t_iter,
        achieved_gflops: flops_iter / t_iter / 1e9,
        ranks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_apps::characterize::characterize;
    use bwb_machine::platforms;

    fn best_time(app: AppId, p: &Platform, set: &[RunConfig]) -> f64 {
        let ch = characterize(app);
        let (points, iterations) = paper_scale(app);
        set.iter()
            .filter_map(|&config| {
                predict(&ModelInput {
                    platform: p,
                    character: &ch,
                    config,
                    points,
                    iterations,
                })
            })
            .map(|pr| pr.seconds)
            .fold(f64::INFINITY, f64::min)
    }

    fn config_set(app: AppId) -> Vec<RunConfig> {
        if app.is_unstructured() {
            RunConfig::unstructured_set()
        } else {
            RunConfig::structured_set()
        }
    }

    #[test]
    fn figure6_speedups_vs_8360y_within_paper_bands() {
        let max = platforms::xeon_max_9480();
        let icx = platforms::xeon_8360y();
        // (app, paper speedup, tolerance)
        let bands = [
            (AppId::CloverLeaf2D, 4.2, 1.0),
            (AppId::OpenSbliSa, 3.8, 1.0),
            (AppId::OpenSbliSn, 2.5, 0.9),
            (AppId::Acoustic, 1.98, 0.7),
            (AppId::MgCfd, 2.5, 0.9),
            (AppId::MiniBude, 1.9, 0.7),
        ];
        for (app, expect, tol) in bands {
            let set = config_set(app);
            let s = best_time(app, &icx, &set) / best_time(app, &max, &set);
            assert!(
                (s - expect).abs() < tol,
                "{}: modelled speedup {s:.2}, paper {expect}",
                app.label()
            );
        }
    }

    #[test]
    fn bandwidth_bound_apps_gain_more_than_compute_bound() {
        let max = platforms::xeon_max_9480();
        let icx = platforms::xeon_8360y();
        let s = |app: AppId| {
            let set = config_set(app);
            best_time(app, &icx, &set) / best_time(app, &max, &set)
        };
        assert!(s(AppId::CloverLeaf2D) > s(AppId::OpenSbliSn));
        assert!(s(AppId::OpenSbliSn) > s(AppId::MiniBude) * 0.9);
    }

    #[test]
    fn minibude_classic_does_not_run() {
        let max = platforms::xeon_max_9480();
        let ch = characterize(AppId::MiniBude);
        let (points, iterations) = paper_scale(AppId::MiniBude);
        let cfg = RunConfig {
            compiler: Compiler::Classic,
            zmm: Zmm::High,
            hyperthreading: false,
            par: Parallelization::MpiOpenMp,
        };
        assert!(predict(&ModelInput {
            platform: &max,
            character: &ch,
            config: cfg,
            points,
            iterations
        })
        .is_none());
    }

    #[test]
    fn ht_on_epyc_is_infeasible() {
        let amd = platforms::epyc_7v73x();
        let ch = characterize(AppId::CloverLeaf2D);
        let (points, iterations) = paper_scale(AppId::CloverLeaf2D);
        let cfg = RunConfig {
            compiler: Compiler::OneApi,
            zmm: Zmm::Default,
            hyperthreading: true,
            par: Parallelization::Mpi,
        };
        assert!(predict(&ModelInput {
            platform: &amd,
            character: &ch,
            config: cfg,
            points,
            iterations
        })
        .is_none());
    }

    #[test]
    fn zmm_high_helps_compute_bound_minibude_by_tens_of_percent() {
        let max = platforms::xeon_max_9480();
        let ch = characterize(AppId::MiniBude);
        let (points, iterations) = paper_scale(AppId::MiniBude);
        let t = |zmm: Zmm| {
            predict(&ModelInput {
                platform: &max,
                character: &ch,
                config: RunConfig {
                    compiler: Compiler::OneApi,
                    zmm,
                    hyperthreading: false,
                    par: Parallelization::MpiOpenMp,
                },
                points,
                iterations,
            })
            .unwrap()
            .seconds
        };
        let gain = t(Zmm::Default) / t(Zmm::High);
        assert!(
            gain > 1.2 && gain < 2.1,
            "ZMM-high gain {gain} (paper: 1.45)"
        );
    }

    #[test]
    fn zmm_choice_negligible_for_bandwidth_bound() {
        let max = platforms::xeon_max_9480();
        let ch = characterize(AppId::CloverLeaf2D);
        let (points, iterations) = paper_scale(AppId::CloverLeaf2D);
        let t = |zmm: Zmm| {
            predict(&ModelInput {
                platform: &max,
                character: &ch,
                config: RunConfig {
                    compiler: Compiler::OneApi,
                    zmm,
                    hyperthreading: false,
                    par: Parallelization::MpiOpenMp,
                },
                points,
                iterations,
            })
            .unwrap()
            .seconds
        };
        let ratio = t(Zmm::Default) / t(Zmm::High);
        assert!(
            (ratio - 1.0).abs() < 0.02,
            "ZMM effect on CloverLeaf: {ratio}"
        );
    }

    #[test]
    fn ht_hurts_minibude_by_about_28_percent() {
        let max = platforms::xeon_max_9480();
        let ch = characterize(AppId::MiniBude);
        let (points, iterations) = paper_scale(AppId::MiniBude);
        let t = |ht: bool| {
            predict(&ModelInput {
                platform: &max,
                character: &ch,
                config: RunConfig {
                    compiler: Compiler::OneApi,
                    zmm: Zmm::High,
                    hyperthreading: ht,
                    par: Parallelization::MpiOpenMp,
                },
                points,
                iterations,
            })
            .unwrap()
            .seconds
        };
        let slowdown = t(true) / t(false);
        assert!((slowdown - 1.28).abs() < 0.12, "HT slowdown {slowdown}");
    }

    #[test]
    fn ht_helps_unstructured_apps() {
        let max = platforms::xeon_max_9480();
        for app in AppId::UNSTRUCTURED {
            let ch = characterize(app);
            let (points, iterations) = paper_scale(app);
            let t = |ht: bool| {
                predict(&ModelInput {
                    platform: &max,
                    character: &ch,
                    config: RunConfig {
                        compiler: Compiler::OneApi,
                        zmm: Zmm::High,
                        hyperthreading: ht,
                        par: Parallelization::MpiVec,
                    },
                    points,
                    iterations,
                })
                .unwrap()
                .seconds
            };
            assert!(t(true) < t(false), "{}: HT should help", app.label());
        }
    }

    #[test]
    fn mpi_vec_beats_other_parallelizations_on_unstructured() {
        let max = platforms::xeon_max_9480();
        for app in AppId::UNSTRUCTURED {
            let ch = characterize(app);
            let (points, iterations) = paper_scale(app);
            let t = |par: Parallelization| {
                predict(&ModelInput {
                    platform: &max,
                    character: &ch,
                    config: RunConfig {
                        compiler: Compiler::OneApi,
                        zmm: Zmm::High,
                        hyperthreading: true,
                        par,
                    },
                    points,
                    iterations,
                })
                .unwrap()
                .seconds
            };
            let vec = t(Parallelization::MpiVec);
            let mpi = t(Parallelization::Mpi);
            let omp = t(Parallelization::MpiOpenMp);
            assert!(vec < mpi, "{}: vec {vec} vs mpi {mpi}", app.label());
            assert!(
                mpi < omp,
                "{}: mpi {mpi} vs omp {omp} (colored locality loss)",
                app.label()
            );
            let gain = omp / vec;
            assert!(
                gain > 1.3 && gain < 3.0,
                "{}: vec vs omp gain {gain} (paper 1.6-1.8)",
                app.label()
            );
        }
    }

    #[test]
    fn sycl_slower_than_openmp_especially_on_cloverleaf() {
        let max = platforms::xeon_max_9480();
        let rel = |app: AppId| {
            let ch = characterize(app);
            let (points, iterations) = paper_scale(app);
            let t = |par: Parallelization| {
                predict(&ModelInput {
                    platform: &max,
                    character: &ch,
                    config: RunConfig {
                        compiler: Compiler::OneApi,
                        zmm: Zmm::Default,
                        hyperthreading: false,
                        par,
                    },
                    points,
                    iterations,
                })
                .unwrap()
                .seconds
            };
            t(Parallelization::MpiSyclFlat) / t(Parallelization::MpiOpenMp)
        };
        let clover = rel(AppId::CloverLeaf2D);
        let sbli = rel(AppId::OpenSbliSn);
        assert!(clover > 1.0, "SYCL must lose on CloverLeaf 2D: {clover}");
        assert!(
            clover > sbli,
            "many small boundary kernels hurt more: clover {clover} vs sbli {sbli}"
        );
    }

    #[test]
    fn figure8_effective_bandwidth_fractions_on_max() {
        let max = platforms::xeon_max_9480();
        let stream = max.measured_triad_gbs;
        // Paper Figure 8: CloverLeaf2D 75%, CloverLeaf3D/SA >65%,
        // SN 53%, Acoustic 41%.
        let bands = [
            (AppId::CloverLeaf2D, 0.75, 0.12),
            (AppId::CloverLeaf3D, 0.67, 0.12),
            (AppId::OpenSbliSa, 0.67, 0.12),
            (AppId::OpenSbliSn, 0.53, 0.14),
            (AppId::Acoustic, 0.41, 0.14),
        ];
        for (app, expect, tol) in bands {
            let ch = characterize(app);
            let (points, iterations) = paper_scale(app);
            let pr = predict(&ModelInput {
                platform: &max,
                character: &ch,
                config: RunConfig::recommended(),
                points,
                iterations,
            })
            .unwrap();
            let frac = pr.effective_gbs / stream;
            assert!(
                (frac - expect).abs() < tol,
                "{}: modelled eff-BW fraction {frac:.2}, paper {expect}",
                app.label()
            );
        }
    }

    #[test]
    fn figure8_ddr_platforms_reach_higher_fractions() {
        // Paper: 8360Y achieves 75-85%, EPYC 79-96% on the same apps —
        // the bandwidth bottleneck is *less* reduced there.
        let max = platforms::xeon_max_9480();
        let icx = platforms::xeon_8360y();
        for app in [AppId::CloverLeaf2D, AppId::OpenSbliSn, AppId::Acoustic] {
            let ch = characterize(app);
            let (points, iterations) = paper_scale(app);
            let frac = |p: &Platform| {
                let pr = predict(&ModelInput {
                    platform: p,
                    character: &ch,
                    config: RunConfig::recommended(),
                    points,
                    iterations,
                })
                .unwrap();
                pr.effective_gbs / p.measured_triad_gbs
            };
            assert!(
                frac(&icx) > frac(&max),
                "{}: ICX fraction should exceed MAX",
                app.label()
            );
        }
    }

    #[test]
    fn figure7_openmp_reduces_mpi_fraction() {
        let max = platforms::xeon_max_9480();
        for app in [AppId::CloverLeaf2D, AppId::Acoustic, AppId::OpenSbliSa] {
            let ch = characterize(app);
            let (points, iterations) = paper_scale(app);
            let f = |par: Parallelization| {
                predict(&ModelInput {
                    platform: &max,
                    character: &ch,
                    config: RunConfig {
                        compiler: Compiler::OneApi,
                        zmm: Zmm::High,
                        hyperthreading: false,
                        par,
                    },
                    points,
                    iterations,
                })
                .unwrap()
                .mpi_fraction
            };
            assert!(
                f(Parallelization::MpiOpenMp) < f(Parallelization::Mpi),
                "{}: MPI+OpenMP must spend less time in MPI",
                app.label()
            );
        }
    }

    #[test]
    fn figure7_max_has_higher_mpi_fraction_than_icelake() {
        // The shift from bandwidth to latency bottleneck: same app, pure
        // MPI, fraction of time in MPI is higher on the Xeon MAX.
        let max = platforms::xeon_max_9480();
        let icx = platforms::xeon_8360y();
        for app in [AppId::CloverLeaf3D, AppId::OpenSbliSa, AppId::Acoustic] {
            let ch = characterize(app);
            let (points, iterations) = paper_scale(app);
            let f = |p: &Platform| {
                predict(&ModelInput {
                    platform: p,
                    character: &ch,
                    config: RunConfig {
                        compiler: Compiler::OneApi,
                        zmm: Zmm::High,
                        hyperthreading: false,
                        par: Parallelization::Mpi,
                    },
                    points,
                    iterations,
                })
                .unwrap()
                .mpi_fraction
            };
            let ratio = f(&max) / f(&icx);
            assert!(
                ratio > 1.1 && ratio < 6.0,
                "{}: MAX/ICX MPI-fraction ratio {ratio} (paper: 1.2-5.3×)",
                app.label()
            );
        }
    }

    #[test]
    fn a100_faster_than_max_on_untiled_apps() {
        let max = platforms::xeon_max_9480();
        let a100 = platforms::a100_pcie_40gb();
        for app in [AppId::CloverLeaf2D, AppId::OpenSbliSn, AppId::Acoustic] {
            let set = config_set(app);
            let r = best_time(app, &max, &set) / best_time(app, &a100, &set);
            assert!(
                r > 1.0 && r < 2.5,
                "{}: A100 speedup over MAX {r:.2} (paper: 1.1-2.1×)",
                app.label()
            );
        }
    }

    #[test]
    fn minibude_achieves_about_6_tflops_on_max() {
        let max = platforms::xeon_max_9480();
        let ch = characterize(AppId::MiniBude);
        let (points, iterations) = paper_scale(AppId::MiniBude);
        let pr = predict(&ModelInput {
            platform: &max,
            character: &ch,
            config: RunConfig {
                compiler: Compiler::OneApi,
                zmm: Zmm::High,
                hyperthreading: false,
                par: Parallelization::MpiOpenMp,
            },
            points,
            iterations,
        })
        .unwrap();
        let tflops = pr.achieved_gflops / 1000.0;
        assert!(
            tflops > 4.0 && tflops < 8.5,
            "miniBUDE {tflops:.1} TFLOP/s (paper: 6)"
        );
    }
}
