//! Modelled Figure-1 curves: BabelStream Triad bandwidth vs array size on
//! the paper's platforms, per machine subset, with the streaming-store flag
//! variant on the Xeon MAX.

use bwb_machine::{Platform, PlatformKind};
use bwb_memsim::{MachineSubset, MemoryHierarchyModel, StoreMode, TrafficModel};

/// One point of a modelled Figure-1 series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure1Point {
    /// Per-array length in f64 elements.
    pub elements: u64,
    /// Total working set (3 arrays), bytes.
    pub working_set_bytes: u64,
    /// Reported Triad bandwidth, GB/s (useful-bytes convention).
    pub bandwidth_gbs: f64,
}

/// One platform/subset/flag-variant series.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure1Series {
    pub platform: String,
    pub platform_kind: PlatformKind,
    pub subset: MachineSubset,
    /// True for the streaming-store ("SS") tuned flag variant.
    pub streaming_stores: bool,
    pub points: Vec<Figure1Point>,
}

impl Figure1Series {
    /// Large-array plateau: the mean of the last three points.
    pub fn large_size_plateau_gbs(&self) -> f64 {
        let n = self.points.len();
        assert!(n >= 3);
        self.points[n - 3..]
            .iter()
            .map(|p| p.bandwidth_gbs)
            .sum::<f64>()
            / 3.0
    }

    /// Small-array (cache) plateau: max bandwidth over the sweep.
    pub fn cache_plateau_gbs(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.bandwidth_gbs)
            .fold(0.0, f64::max)
    }
}

/// Model a Triad sweep for one platform/subset/flag combination, using the
/// canonical hand-declared [`TrafficModel::stream_triad`] accounting.
pub fn triad_sweep(
    platform: &Platform,
    subset: MachineSubset,
    streaming_stores: bool,
    min_elements: u64,
    max_elements: u64,
    points: usize,
) -> Figure1Series {
    triad_sweep_with(
        platform,
        subset,
        streaming_stores,
        TrafficModel::stream_triad(),
        min_elements,
        max_elements,
        points,
    )
}

/// Model a Triad sweep with an explicit per-element traffic model.
///
/// The figures pipeline passes the model *derived* by `bwb-dslcheck`'s
/// whole-chain dataflow analysis from a recorded Triad kernel (which is
/// cross-checked to equal the hand-declared constant) — so the published
/// curves consume derived rather than declared traffic.
#[allow(clippy::too_many_arguments)]
pub fn triad_sweep_with(
    platform: &Platform,
    subset: MachineSubset,
    streaming_stores: bool,
    traffic: TrafficModel,
    min_elements: u64,
    max_elements: u64,
    points: usize,
) -> Figure1Series {
    let model = MemoryHierarchyModel::new(platform.clone());
    let mode = if streaming_stores {
        StoreMode::Streaming
    } else {
        StoreMode::WriteAllocate
    };

    // Measured Triad figures already include write-allocate losses under the
    // default flags; calibrate the raw memory bandwidth so the reported
    // default-flag figure matches the measurement, then derive the SS gain
    // from the traffic model (bounded by the hardware's measured SS value
    // when the paper provides one).
    let raw_bw =
        platform.measured_triad_gbs / traffic.reported_bandwidth_gbs(1.0, StoreMode::WriteAllocate);

    let mut out = Vec::with_capacity(points);
    let lf = (min_elements as f64).ln();
    let lt = (max_elements as f64).ln();
    for s in 0..points {
        let elements = (lf + (lt - lf) * s as f64 / (points - 1) as f64).exp() as u64;
        let ws = 3 * elements * 8;
        let curve = model.bandwidth(ws, subset);
        let bw = if curve.dominant_level == 0 {
            // Memory-resident: apply store-mode traffic accounting against
            // the calibrated raw bandwidth, scaled to the subset.
            let frac = model.core_fraction(subset);
            let reported = traffic.reported_bandwidth_gbs(raw_bw * frac, mode);
            match (streaming_stores, platform.measured_triad_ss_gbs) {
                (true, Some(ss)) => reported.min(ss * frac),
                _ => reported,
            }
        } else {
            // Cache-resident: streaming stores are counterproductive in
            // cache; BabelStream reports the cache bandwidth either way.
            curve.bandwidth_gbs
        };
        out.push(Figure1Point {
            elements,
            working_set_bytes: ws,
            bandwidth_gbs: bw,
        });
    }
    Figure1Series {
        platform: platform.name.clone(),
        platform_kind: platform.kind,
        subset,
        streaming_stores,
        points: out,
    }
}

/// All Figure-1 series: three CPUs × three subsets, plus the SS variant on
/// the Xeon MAX (whole machine), matching the paper's figure contents.
pub fn figure1_curves(min_elements: u64, max_elements: u64, points: usize) -> Vec<Figure1Series> {
    figure1_curves_with(
        TrafficModel::stream_triad(),
        min_elements,
        max_elements,
        points,
    )
}

/// [`figure1_curves`] with an explicit Triad traffic model (see
/// [`triad_sweep_with`]).
pub fn figure1_curves_with(
    traffic: TrafficModel,
    min_elements: u64,
    max_elements: u64,
    points: usize,
) -> Vec<Figure1Series> {
    let mut series = Vec::new();
    for p in bwb_machine::platforms::all_cpus() {
        for subset in MachineSubset::ALL {
            series.push(triad_sweep_with(
                &p,
                subset,
                false,
                traffic,
                min_elements,
                max_elements,
                points,
            ));
        }
        if p.measured_triad_ss_gbs.is_some() {
            series.push(triad_sweep_with(
                &p,
                MachineSubset::WholeMachine,
                true,
                traffic,
                min_elements,
                max_elements,
                points,
            ));
        }
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_machine::platforms;

    const MIN_E: u64 = 1 << 12;
    const MAX_E: u64 = 1 << 28; // 3 arrays × 2 GiB

    #[test]
    fn max_default_flags_plateau_matches_measurement() {
        let s = triad_sweep(
            &platforms::xeon_max_9480(),
            MachineSubset::WholeMachine,
            false,
            MIN_E,
            MAX_E,
            40,
        );
        let plateau = s.large_size_plateau_gbs();
        assert!((plateau - 1446.0).abs() / 1446.0 < 0.1, "plateau {plateau}");
    }

    #[test]
    fn streaming_stores_raise_max_plateau_toward_1643() {
        let base = triad_sweep(
            &platforms::xeon_max_9480(),
            MachineSubset::WholeMachine,
            false,
            MIN_E,
            MAX_E,
            40,
        );
        let ss = triad_sweep(
            &platforms::xeon_max_9480(),
            MachineSubset::WholeMachine,
            true,
            MIN_E,
            MAX_E,
            40,
        );
        let gain = ss.large_size_plateau_gbs() / base.large_size_plateau_gbs();
        assert!(gain > 1.05 && gain <= 4.0 / 3.0 + 1e-9, "SS gain {gain}");
        assert!(ss.large_size_plateau_gbs() <= 1643.0 * 1.01);
    }

    #[test]
    fn ddr_systems_plateau_near_300() {
        for (p, expect) in [
            (platforms::xeon_8360y(), 296.0),
            (platforms::epyc_7v73x(), 310.0),
        ] {
            let s = triad_sweep(&p, MachineSubset::WholeMachine, false, MIN_E, MAX_E, 40);
            let plateau = s.large_size_plateau_gbs();
            assert!(
                (plateau - expect).abs() / expect < 0.12,
                "{}: {plateau}",
                p.name
            );
        }
    }

    #[test]
    fn figure1_headline_ratio_4_8x() {
        let max = triad_sweep(
            &platforms::xeon_max_9480(),
            MachineSubset::WholeMachine,
            false,
            MIN_E,
            MAX_E,
            40,
        );
        let icx = triad_sweep(
            &platforms::xeon_8360y(),
            MachineSubset::WholeMachine,
            false,
            MIN_E,
            MAX_E,
            40,
        );
        let r = max.large_size_plateau_gbs() / icx.large_size_plateau_gbs();
        assert!(r > 4.2 && r < 5.4, "MAX/ICX ratio {r}");
    }

    #[test]
    fn cache_plateau_exceeds_memory_plateau() {
        for p in platforms::all_cpus() {
            let s = triad_sweep(&p, MachineSubset::WholeMachine, false, MIN_E, MAX_E, 60);
            let ratio = s.cache_plateau_gbs() / s.large_size_plateau_gbs();
            assert!(ratio > 2.0, "{}: cache/mem {ratio}", p.name);
        }
    }

    #[test]
    fn single_numa_scales_down() {
        let p = platforms::xeon_max_9480();
        let whole = triad_sweep(&p, MachineSubset::WholeMachine, false, MIN_E, MAX_E, 30);
        let numa = triad_sweep(&p, MachineSubset::OneNuma, false, MIN_E, MAX_E, 30);
        let r = whole.large_size_plateau_gbs() / numa.large_size_plateau_gbs();
        assert!((r - 8.0).abs() < 0.5, "whole/NUMA ratio {r}");
    }

    #[test]
    fn full_figure1_has_ten_series() {
        let all = figure1_curves(MIN_E, MAX_E, 12);
        // 3 CPUs × 3 subsets + 1 SS variant on MAX.
        assert_eq!(all.len(), 10);
        assert_eq!(all.iter().filter(|s| s.streaming_stores).count(), 1);
    }

    #[test]
    fn epyc_vcache_plateau_extends_beyond_xeons() {
        // The distinguishing Figure-1 feature of Milan-X: high bandwidth
        // out to ~GB working sets.
        let amd = triad_sweep(
            &platforms::epyc_7v73x(),
            MachineSubset::WholeMachine,
            false,
            MIN_E,
            MAX_E,
            60,
        );
        let icx = triad_sweep(
            &platforms::xeon_8360y(),
            MachineSubset::WholeMachine,
            false,
            MIN_E,
            MAX_E,
            60,
        );
        // At ~1 GiB working set (arrays of 2^25 elements → 768 MiB):
        let pick = |s: &Figure1Series| {
            s.points
                .iter()
                .find(|p| p.working_set_bytes > 700 << 20)
                .map(|p| p.bandwidth_gbs)
                .unwrap()
        };
        assert!(pick(&amd) > 3.0 * pick(&icx));
    }
}
