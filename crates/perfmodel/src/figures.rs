//! Data generators for the paper's evaluation figures (3–9).
//!
//! Each function returns plain data structures; `bwb-report` renders them
//! and the `bwb-bench` `figN` binaries print them next to the paper's
//! reported values. Figures 1–2 live in `bwb-stream` / `bwb-machine`.

use crate::config::{Compiler, Parallelization, RunConfig, Zmm};
use crate::model::{paper_scale, predict, ModelInput};
use bwb_apps::characterize::{characterize, AppCharacter};
use bwb_apps::AppId;
use bwb_machine::{platforms, Platform, PlatformKind};

/// A normalized-slowdown matrix (Figures 3 & 4): configurations × apps,
/// each column normalized to its best configuration, rows sorted by mean.
#[derive(Debug, Clone)]
pub struct SlowdownMatrix {
    pub platform: String,
    pub apps: Vec<AppId>,
    pub rows: Vec<SlowdownRow>,
}

#[derive(Debug, Clone)]
pub struct SlowdownRow {
    pub label: String,
    /// Slowdown vs the per-app best; `None` = configuration infeasible.
    pub slowdowns: Vec<Option<f64>>,
    pub mean: f64,
}

impl SlowdownMatrix {
    /// Mean slowdown over all feasible entries (the §5 "mean slowdown vs
    /// the best configuration" statistic).
    pub fn mean_slowdown(&self) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .flat_map(|r| r.slowdowns.iter().flatten().copied())
            .collect();
        vals.iter().sum::<f64>() / vals.len().max(1) as f64
    }

    /// Median slowdown over all feasible entries.
    pub fn median_slowdown(&self) -> f64 {
        let mut vals: Vec<f64> = self
            .rows
            .iter()
            .flat_map(|r| r.slowdowns.iter().flatten().copied())
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if vals.is_empty() {
            return 1.0;
        }
        vals[vals.len() / 2]
    }
}

fn predict_seconds(p: &Platform, ch: &AppCharacter, config: RunConfig) -> Option<f64> {
    let (points, iterations) = paper_scale(ch.app);
    predict(&ModelInput {
        platform: p,
        character: ch,
        config,
        points,
        iterations,
    })
    .map(|pr| pr.seconds)
}

fn build_matrix(p: &Platform, apps: &[AppId], configs: &[RunConfig]) -> SlowdownMatrix {
    let chars: Vec<AppCharacter> = apps.iter().map(|&a| characterize(a)).collect();
    // Per-app best time over the feasible configurations.
    let best: Vec<f64> = chars
        .iter()
        .map(|ch| {
            configs
                .iter()
                .filter_map(|&c| predict_seconds(p, ch, c))
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mut rows: Vec<SlowdownRow> = configs
        .iter()
        .map(|&config| {
            let slowdowns: Vec<Option<f64>> = chars
                .iter()
                .zip(&best)
                .map(|(ch, &b)| predict_seconds(p, ch, config).map(|t| t / b))
                .collect();
            let feasible: Vec<f64> = slowdowns.iter().flatten().copied().collect();
            let mean = if feasible.is_empty() {
                f64::INFINITY
            } else {
                feasible.iter().sum::<f64>() / feasible.len() as f64
            };
            SlowdownRow {
                label: config.label(),
                slowdowns,
                mean,
            }
        })
        .collect();
    rows.sort_by(|a, b| a.mean.partial_cmp(&b.mean).unwrap());
    SlowdownMatrix {
        platform: p.name.clone(),
        apps: apps.to_vec(),
        rows,
    }
}

/// Figure 3: structured-mesh configuration matrix.
pub fn figure3_structured_matrix(p: &Platform) -> SlowdownMatrix {
    build_matrix(p, &AppId::STRUCTURED, &RunConfig::structured_set())
}

/// Figure 4: unstructured-mesh configuration matrix (MG-CFD, Volna).
pub fn figure4_unstructured_matrix(p: &Platform) -> SlowdownMatrix {
    build_matrix(p, &AppId::UNSTRUCTURED, &RunConfig::unstructured_set())
}

/// Figure 5: speedup of each parallelization over pure MPI on the Xeon MAX
/// (best over the remaining knobs for each parallelization).
#[derive(Debug, Clone)]
pub struct ParSpeedup {
    pub app: AppId,
    /// (parallelization label, speedup vs pure MPI).
    pub speedups: Vec<(String, f64)>,
}

pub fn figure5_parallelization_speedups() -> Vec<ParSpeedup> {
    let max = platforms::xeon_max_9480();
    let apps = [
        AppId::CloverLeaf2D,
        AppId::CloverLeaf3D,
        AppId::Acoustic,
        AppId::OpenSbliSa,
        AppId::OpenSbliSn,
        AppId::MiniWeather,
        AppId::MgCfd,
        AppId::Volna,
    ];
    let pars = [
        Parallelization::Mpi,
        Parallelization::MpiVec,
        Parallelization::MpiOpenMp,
        Parallelization::MpiSyclFlat,
        Parallelization::MpiSyclNdrange,
    ];
    apps.iter()
        .map(|&app| {
            let ch = characterize(app);
            let best_for = |par: Parallelization| -> Option<f64> {
                let mut best = f64::INFINITY;
                for compiler in Compiler::ALL {
                    for zmm in Zmm::ALL {
                        for ht in [false, true] {
                            if par.is_sycl() && compiler == Compiler::Classic {
                                continue;
                            }
                            if let Some(t) = predict_seconds(
                                &max,
                                &ch,
                                RunConfig {
                                    compiler,
                                    zmm,
                                    hyperthreading: ht,
                                    par,
                                },
                            ) {
                                best = best.min(t);
                            }
                        }
                    }
                }
                best.is_finite().then_some(best)
            };
            let mpi = best_for(Parallelization::Mpi).expect("pure MPI always feasible");
            let speedups = pars
                .iter()
                .filter_map(|&par| best_for(par).map(|t| (par.label().to_owned(), mpi / t)))
                .collect();
            ParSpeedup { app, speedups }
        })
        .collect()
}

/// Figure 6: best performance per app per platform + speedups of the MAX.
#[derive(Debug, Clone)]
pub struct PlatformComparison {
    pub app: AppId,
    /// (platform, best seconds, best-config label).
    pub best: Vec<(PlatformKind, f64, String)>,
    pub speedup_vs_8360y: f64,
    pub speedup_vs_epyc: f64,
    pub a100_vs_max: f64,
}

pub fn figure6_platform_comparison() -> Vec<PlatformComparison> {
    let plats = platforms::all_platforms();
    AppId::ALL
        .iter()
        .map(|&app| {
            let ch = characterize(app);
            let configs = if app.is_unstructured() {
                RunConfig::unstructured_set()
            } else {
                RunConfig::structured_set()
            };
            let best: Vec<(PlatformKind, f64, String)> = plats
                .iter()
                .map(|p| {
                    let (t, label) = configs
                        .iter()
                        .filter_map(|&c| predict_seconds(p, &ch, c).map(|t| (t, c.label())))
                        .min_by(|a, b| a.0.partial_cmp(&b.0).unwrap())
                        .expect("at least one feasible configuration");
                    (p.kind, t, label)
                })
                .collect();
            let get = |k: PlatformKind| best.iter().find(|(p, _, _)| *p == k).unwrap().1;
            PlatformComparison {
                app,
                speedup_vs_8360y: get(PlatformKind::Xeon8360Y) / get(PlatformKind::XeonMax9480),
                speedup_vs_epyc: get(PlatformKind::Epyc7V73X) / get(PlatformKind::XeonMax9480),
                a100_vs_max: get(PlatformKind::XeonMax9480) / get(PlatformKind::A100Pcie40GB),
                best,
            }
        })
        .collect()
}

/// Figure 7: fraction of runtime in MPI, per app × platform × {MPI,
/// MPI+OpenMP}.
#[derive(Debug, Clone)]
pub struct MpiFractionEntry {
    pub app: AppId,
    pub platform: PlatformKind,
    pub mpi_fraction_pure: f64,
    pub mpi_fraction_openmp: f64,
}

pub fn figure7_mpi_fractions() -> Vec<MpiFractionEntry> {
    let plats = platforms::all_cpus();
    let apps = [
        AppId::CloverLeaf2D,
        AppId::CloverLeaf3D,
        AppId::Acoustic,
        AppId::OpenSbliSa,
        AppId::OpenSbliSn,
        AppId::MiniWeather,
        AppId::MgCfd,
        AppId::Volna,
    ];
    let mut out = Vec::new();
    for &app in &apps {
        let ch = characterize(app);
        let (points, iterations) = paper_scale(app);
        for p in &plats {
            let frac = |par: Parallelization| {
                predict(&ModelInput {
                    platform: p,
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
                .map(|pr| pr.mpi_fraction)
                .unwrap_or(f64::NAN)
            };
            out.push(MpiFractionEntry {
                app,
                platform: p.kind,
                mpi_fraction_pure: frac(Parallelization::Mpi),
                mpi_fraction_openmp: frac(Parallelization::MpiOpenMp),
            });
        }
    }
    out
}

/// Figure 8: achieved effective bandwidth on the Xeon MAX (and the other
/// platforms, for the §6 comparison).
#[derive(Debug, Clone)]
pub struct EffectiveBandwidthEntry {
    pub app: AppId,
    pub platform: PlatformKind,
    pub effective_gbs: f64,
    /// Fraction of the platform's measured STREAM Triad.
    pub fraction_of_stream: f64,
}

pub fn figure8_effective_bandwidth() -> Vec<EffectiveBandwidthEntry> {
    let plats = platforms::all_cpus();
    let apps = [
        AppId::CloverLeaf2D,
        AppId::CloverLeaf3D,
        AppId::OpenSbliSa,
        AppId::OpenSbliSn,
        AppId::Acoustic,
        AppId::MiniWeather,
    ];
    let mut out = Vec::new();
    for &app in &apps {
        let ch = characterize(app);
        let (points, iterations) = paper_scale(app);
        for p in &plats {
            if let Some(pr) = predict(&ModelInput {
                platform: p,
                character: &ch,
                config: RunConfig::recommended(),
                points,
                iterations,
            }) {
                out.push(EffectiveBandwidthEntry {
                    app,
                    platform: p.kind,
                    effective_gbs: pr.effective_gbs,
                    fraction_of_stream: pr.effective_gbs / p.measured_triad_gbs,
                });
            }
        }
    }
    out
}

/// Figure 9: CloverLeaf 2D with cache-blocking tiling on each platform
/// (plus the A100 untiled reference).
#[derive(Debug, Clone)]
pub struct TilingEntry {
    pub platform: PlatformKind,
    pub untiled_seconds: f64,
    pub tiled_seconds: f64,
    pub gain: f64,
}

/// Tiling model parameters for the CloverLeaf-2D loop chain.
pub mod tiling_params {
    /// How many chained loop passes re-consume a produced tile before it
    /// leaves cache (the reuse factor dividing DRAM traffic).
    pub const CHAIN_REUSE: f64 = 4.0;
    /// Fraction of original DRAM bytes re-served from the last-level cache
    /// when tiled.
    pub const LLC_SERVED_FRACTION: f64 = 0.75;
    /// Redundant recomputation + skew overhead of the tiled schedule.
    pub const REDUNDANT_COMPUTE: f64 = 0.15;
}

pub fn figure9_tiling() -> Vec<TilingEntry> {
    let ch = characterize(AppId::CloverLeaf2D);
    let (points, iterations) = paper_scale(AppId::CloverLeaf2D);
    // Paper setup: OneAPI, ZMM high, pure MPI with HT (AOCC on the EPYC —
    // compiler factors fold into the same quality term).
    let cfg_for = |p: &Platform| RunConfig {
        compiler: Compiler::OneApi,
        zmm: Zmm::High,
        hyperthreading: p.topology.smt_per_core > 1,
        par: Parallelization::Mpi,
    };
    platforms::all_platforms()
        .iter()
        .map(|p| {
            let cfg = cfg_for(p);
            let pr = predict(&ModelInput {
                platform: p,
                character: &ch,
                config: cfg,
                points,
                iterations,
            })
            .expect("CloverLeaf runs everywhere");
            let untiled = pr.seconds;
            let tiled = if p.is_gpu {
                // The paper's A100 bar is the untiled CUDA version.
                untiled
            } else {
                // Tiled: DRAM traffic divided by the chain reuse, the
                // re-served fraction moving at LLC bandwidth, redundant
                // recomputation inflating the compute term, and the same
                // latency/MPI/overhead terms.
                let t_dram = pr.t_bandwidth / tiling_params::CHAIN_REUSE;
                let bytes = points as f64 * ch.bytes_per_point_iter * iterations as f64;
                let t_llc =
                    bytes * tiling_params::LLC_SERVED_FRACTION / (p.llc_stream_bw_gbs() * 1e9);
                let t_comp = pr.t_compute * (1.0 + tiling_params::REDUNDANT_COMPUTE);
                t_dram.max(t_comp) + t_llc + pr.t_cache + pr.t_latency + pr.t_mpi + pr.t_launch
            };
            TilingEntry {
                platform: p.kind,
                untiled_seconds: untiled,
                tiled_seconds: tiled,
                gain: untiled / tiled,
            }
        })
        .collect()
}

/// §5 summary statistics for a matrix: (mean, median) slowdown vs best.
pub fn summary_stats(m: &SlowdownMatrix) -> (f64, f64) {
    (m.mean_slowdown(), m.median_slowdown())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure3_matrix_shape_and_normalization() {
        let m = figure3_structured_matrix(&platforms::xeon_max_9480());
        assert_eq!(m.apps.len(), 6);
        assert_eq!(m.rows.len(), 20);
        // Every column has at least one 1.0 (the best config).
        for (i, _app) in m.apps.iter().enumerate() {
            let best = m
                .rows
                .iter()
                .filter_map(|r| r.slowdowns[i])
                .fold(f64::INFINITY, f64::min);
            assert!((best - 1.0).abs() < 1e-9);
        }
        // Rows sorted by ascending mean.
        for w in m.rows.windows(2) {
            assert!(w[0].mean <= w[1].mean);
        }
    }

    #[test]
    fn figure3_variation_higher_on_max_than_icelake() {
        // §5: "mean slowdown vs best on MAX is 1.25 (median 1.12); on the
        // Xeon 8360Y only 1.11 (median 1.05)" — the MAX is more
        // configuration-sensitive.
        let max = figure3_structured_matrix(&platforms::xeon_max_9480());
        let icx = figure3_structured_matrix(&platforms::xeon_8360y());
        let (mean_max, med_max) = summary_stats(&max);
        let (mean_icx, med_icx) = summary_stats(&icx);
        assert!(
            mean_max > mean_icx,
            "MAX mean slowdown {mean_max:.3} must exceed ICX {mean_icx:.3}"
        );
        assert!(
            med_max >= med_icx * 0.99,
            "medians {med_max:.3} vs {med_icx:.3}"
        );
        assert!(
            mean_max > 1.05 && mean_max < 1.8,
            "MAX mean {mean_max:.3} (paper 1.25)"
        );
    }

    #[test]
    fn figure4_mpi_vec_rows_dominate() {
        let m = figure4_unstructured_matrix(&platforms::xeon_max_9480());
        assert_eq!(m.rows.len(), 25);
        // The top rows (lowest mean slowdown) are MPI vec configurations.
        for r in &m.rows[..4] {
            assert!(
                r.label.contains("MPI vec"),
                "top row should be MPI vec: {}",
                r.label
            );
        }
    }

    #[test]
    fn figure5_openmp_wins_on_comm_limited_acoustic() {
        let f5 = figure5_parallelization_speedups();
        let acoustic = f5.iter().find(|e| e.app == AppId::Acoustic).unwrap();
        let omp = acoustic
            .speedups
            .iter()
            .find(|(l, _)| l == "MPI+OpenMP")
            .unwrap()
            .1;
        assert!(omp > 1.0, "MPI+OpenMP speedup on Acoustic {omp}");
    }

    #[test]
    fn figure5_sycl_below_openmp_on_cloverleaf() {
        let f5 = figure5_parallelization_speedups();
        for app in [AppId::CloverLeaf2D, AppId::CloverLeaf3D] {
            let e = f5.iter().find(|e| e.app == app).unwrap();
            let get = |l: &str| e.speedups.iter().find(|(x, _)| x == l).map(|(_, s)| *s);
            let omp = get("MPI+OpenMP").unwrap();
            let sycl = get("MPI+SYCL (flat)").unwrap();
            assert!(sycl < omp, "{}: SYCL {sycl} vs OpenMP {omp}", app.label());
        }
    }

    #[test]
    fn figure6_all_speedups_in_paper_band() {
        let f6 = figure6_platform_comparison();
        for e in &f6 {
            assert!(
                e.speedup_vs_8360y > 1.0,
                "{}: {}",
                e.app.label(),
                e.speedup_vs_8360y
            );
            if e.app.is_structured() {
                assert!(
                    e.speedup_vs_8360y < 5.5,
                    "{}: {} exceeds the bandwidth ratio",
                    e.app.label(),
                    e.speedup_vs_8360y
                );
            }
        }
        // Headline: 2.0x–4.3x overall band (paper abstract), with model
        // slack on both sides.
        let max_s = f6.iter().map(|e| e.speedup_vs_8360y).fold(0.0, f64::max);
        let min_s = f6
            .iter()
            .map(|e| e.speedup_vs_8360y)
            .fold(f64::INFINITY, f64::min);
        assert!(
            max_s < 5.5 && min_s > 1.2,
            "speedup band [{min_s:.2},{max_s:.2}]"
        );
    }

    #[test]
    fn figure7_fractions_sane_and_openmp_lower() {
        for e in figure7_mpi_fractions() {
            assert!((0.0..1.0).contains(&e.mpi_fraction_pure), "{:?}", e);
            if e.app != AppId::Volna {
                assert!(
                    e.mpi_fraction_openmp <= e.mpi_fraction_pure + 0.02,
                    "{:?}",
                    e
                );
            }
        }
    }

    #[test]
    fn figure8_max_fractions_lower_than_ddr_platforms() {
        let f8 = figure8_effective_bandwidth();
        for app in [AppId::CloverLeaf2D, AppId::OpenSbliSn, AppId::Acoustic] {
            let get = |k: PlatformKind| {
                f8.iter()
                    .find(|e| e.app == app && e.platform == k)
                    .unwrap()
                    .fraction_of_stream
            };
            assert!(get(PlatformKind::XeonMax9480) < get(PlatformKind::Xeon8360Y));
        }
    }

    #[test]
    fn figure9_tiling_gains_ordered_by_cache_ratio() {
        let f9 = figure9_tiling();
        let get = |k: PlatformKind| f9.iter().find(|e| e.platform == k).unwrap().clone();
        let max = get(PlatformKind::XeonMax9480);
        let icx = get(PlatformKind::Xeon8360Y);
        let amd = get(PlatformKind::Epyc7V73X);
        // Paper: 1.84× (MAX), 2.7× (8360Y), 4.0× (EPYC) — ordered by the
        // cache:memory bandwidth ratio (3.8 / 6.3 / 14).
        assert!(max.gain < icx.gain && icx.gain < amd.gain, "{:?}", f9);
        assert!(
            (max.gain - 1.84).abs() < 0.6,
            "MAX tiling gain {:.2}",
            max.gain
        );
        assert!(
            (icx.gain - 2.7).abs() < 0.9,
            "ICX tiling gain {:.2}",
            icx.gain
        );
        assert!(
            (amd.gain - 4.0).abs() < 1.4,
            "EPYC tiling gain {:.2}",
            amd.gain
        );
    }

    #[test]
    fn figure9_tiled_max_beats_a100() {
        let f9 = figure9_tiling();
        let get = |k: PlatformKind| f9.iter().find(|e| e.platform == k).unwrap().clone();
        let max_tiled = get(PlatformKind::XeonMax9480).tiled_seconds;
        let a100 = get(PlatformKind::A100Pcie40GB).untiled_seconds;
        let r = a100 / max_tiled;
        assert!(
            r > 1.05 && r < 2.4,
            "tiled MAX vs A100: {r:.2} (paper 1.5×)"
        );
    }
}
