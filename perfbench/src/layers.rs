//! Per-layer loop metrics from the loop profiles (`bwb_ops::Profile`) the
//! apps return: per-step loop time, share of the host roof, and the
//! computed bytes and FLOPs per step.

use crate::stats::{ms, Report, Samples};
use bwb_ops::Profile;
use std::collections::BTreeMap;

/// `ops` loops reported by name. The 2-D CloverLeaf per-point loops, the
/// 3-D per-point and halo loops, and the Acoustic stencil update.
pub const OPS_LOOPS: [&str; 17] = [
    "advec_cell_x",
    "advec_cell_y",
    "advec_mom",
    "calc_dt",
    "field_summary_ke",
    "accelerate",
    "pdv",
    "ideal_gas",
    "viscosity",
    "advec_mom3",
    "advec_cell3_x",
    "advec_cell3_y",
    "advec_cell3_z",
    "viscosity3",
    "update_halo3",
    "calc_dt3",
    "acoustic_update",
];

/// `op2` loops reported by time; `compute_flux` also by share of roof.
pub const OP2_LOOPS: [&str; 4] = ["compute_flux", "time_step", "mg_restrict", "mg_prolong"];

/// Loop statistics gathered over the steps of a run. A step here is one
/// call of the app's step function; on several ranks, one step's loop
/// time is the slowest rank's and its bytes and FLOPs are the ranks' sum.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Per loop: milliseconds per step.
    times: BTreeMap<String, Samples>,
    /// Per loop: computed bytes per step (must repeat every step).
    bytes: BTreeMap<String, usize>,
    /// Per loop: times from passes outside the steps (validation
    /// summaries), used for loops the step never runs.
    side_times: BTreeMap<String, Samples>,
    side_bytes: BTreeMap<String, usize>,
    /// Whole-step loop seconds ÷ step wall seconds.
    share: Samples,
    step_bytes: Samples,
    step_flops: Samples,
}

impl LoopStats {
    pub fn new() -> LoopStats {
        LoopStats::default()
    }

    /// Add one step: the profile of every rank and the step's wall time
    /// (the slowest rank's).
    pub fn add_step(&mut self, ranks: &[&Profile], wall_s: f64) {
        let mut loop_s = 0.0f64;
        let mut bytes = 0usize;
        let mut flops = 0.0f64;
        let mut per: BTreeMap<&str, (f64, usize)> = BTreeMap::new();
        for p in ranks {
            loop_s = loop_s.max(p.total_seconds());
            bytes += p.total_bytes();
            flops += p.total_flops();
            for r in p.records() {
                let e = per.entry(r.name.as_str()).or_default();
                e.0 = e.0.max(r.seconds);
                e.1 += r.bytes;
            }
        }
        for (name, (s, b)) in per {
            self.times.entry(name.into()).or_default().push(ms(s));
            self.bytes.insert(name.into(), b);
        }
        if wall_s > 0.0 {
            self.share.push(loop_s / wall_s);
        }
        self.step_bytes.push(bytes as f64);
        self.step_flops.push(flops);
    }

    /// Add a pass outside the steps (for loops the step never calls).
    pub fn add_side(&mut self, p: &Profile) {
        for r in p.records() {
            self.side_times
                .entry(r.name.clone())
                .or_default()
                .push(ms(r.seconds));
            self.side_bytes.insert(r.name.clone(), r.bytes);
        }
    }

    pub fn steps(&self) -> usize {
        self.share.len()
    }

    /// Median ms and bytes of `name` per step, else per side pass.
    fn loop_ms_bytes(&self, name: &str) -> Option<(f64, usize, usize)> {
        if let Some(t) = self.times.get(name) {
            return Some((t.median(), self.bytes[name], t.len()));
        }
        self.side_times
            .get(name)
            .map(|t| (t.median(), self.side_bytes[name], t.len()))
    }

    /// Report `<layer>.<loop>.ms` for `loops`, `<layer>.<loop>.roof_pct`
    /// for `roofed` (bytes over median time, as a share of `roof_gbs`),
    /// and the whole-step `<layer>.loop_share`, `bytes_per_step` and
    /// (for `ops`) `flops_per_step`.
    pub fn report(
        &self,
        r: &mut Report,
        layer: &str,
        loops: &[&str],
        roofed: &[&str],
        roof_gbs: f64,
    ) {
        for name in loops {
            let (t, n) = match self.loop_ms_bytes(name) {
                Some((t, _, n)) => (t, n),
                None => (0.0, 0),
            };
            r.metric(format!("{layer}.{name}.ms"), t, "ms", n);
        }
        for name in roofed {
            let (pct, n) = match self.loop_ms_bytes(name) {
                Some((t, b, n)) if t > 0.0 && roof_gbs > 0.0 => {
                    (100.0 * b as f64 / (t * 1e-3) / 1e9 / roof_gbs, n)
                }
                _ => (0.0, 0),
            };
            r.metric(format!("{layer}.{name}.roof_pct"), pct, "%", n);
        }
        let n = self.steps();
        r.metric(
            format!("{layer}.loop_share"),
            self.share.median(),
            "ratio",
            n,
        );
        r.metric(
            format!("{layer}.bytes_per_step"),
            self.step_bytes.median(),
            "B",
            n,
        );
        if layer == "ops" {
            r.metric(
                format!("{layer}.flops_per_step"),
                self.step_flops.median(),
                "flop",
                n,
            );
        }
    }

    /// Whether every step computed the same bytes and FLOPs (they are
    /// functions of the loop ranges alone).
    pub fn counters_repeat(&self) -> Result<(), String> {
        let same = |s: &Samples| s.values().windows(2).all(|w| w[0] == w[1]);
        if same(&self.step_bytes) && same(&self.step_flops) {
            Ok(())
        } else {
            Err("computed bytes/FLOPs per step differ between steps".into())
        }
    }
}
