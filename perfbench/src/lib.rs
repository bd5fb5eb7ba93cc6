//! # bwb-perfbench — the repository benchmark
//!
//! Six workloads, each run in its own process by `run.py`:
//!
//! * `clover2d-dram`, `clover3d-dram`, `mgcfd` — single-threaded apps
//!   larger than the last-level cache ([`apps`]);
//! * `clover2d-halo`, `acoustic-halo` — two-rank `shmpi` universes whose
//!   per-rank working sets fit in cache ([`halo`]);
//! * `serve-zipf` — an in-process `bwb-serve` under a closed loop of two
//!   clients ([`serve`]).
//!
//! Every workload reports the same end-to-end metrics about its own unit
//! of work (an app step or a request), and in traced runs the per-layer
//! metrics of the layers it exercises. README.md lists them all.

pub mod apps;
pub mod halo;
pub mod layers;
pub mod roof;
pub mod serve;
pub mod stats;

use stats::{Report, Samples};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Clover2dDram,
    Clover3dDram,
    Mgcfd,
    Clover2dHalo,
    AcousticHalo,
    ServeZipf,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Clover2dDram,
        Workload::Clover3dDram,
        Workload::Mgcfd,
        Workload::Clover2dHalo,
        Workload::AcousticHalo,
        Workload::ServeZipf,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Clover2dDram => "clover2d-dram",
            Workload::Clover3dDram => "clover3d-dram",
            Workload::Mgcfd => "mgcfd",
            Workload::Clover2dHalo => "clover2d-halo",
            Workload::AcousticHalo => "acoustic-halo",
            Workload::ServeZipf => "serve-zipf",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Run `w` for about `seconds` of measurement. `roof` prices loops.
pub fn run(w: Workload, seed: u64, seconds: f64, traced: bool, roof: &roof::Roof) -> Report {
    match w {
        Workload::Clover2dDram | Workload::Clover3dDram | Workload::Mgcfd => {
            apps::run(w, seconds, traced, roof)
        }
        Workload::Clover2dHalo | Workload::AcousticHalo => halo::run(w, seconds, traced, roof),
        Workload::ServeZipf => serve::run(seed, seconds, traced),
    }
}

/// Op (or set-up) times of one run: as measured, and for the app
/// workloads also divided by the host slowdown the calibration measured
/// right before each one ([`roof::Calibrator`]).
#[derive(Debug, Default)]
pub struct OpTimes {
    pub raw: Samples,
    pub scaled: Samples,
    pub slowdown: Samples,
}

impl OpTimes {
    /// One op of `wall_ms`, preceded by a calibration reading `slowdown`.
    pub fn push(&mut self, wall_ms: f64, slowdown: f64) {
        self.raw.push(wall_ms);
        self.scaled.push(wall_ms / slowdown);
        self.slowdown.push(slowdown);
    }
}

/// The metrics every workload reports about its unit of work, its op.
///
/// App steps repeat identical work, so their `op_ms` and `setup_s` are
/// medians divided by the host slowdown ([`roof::Calibrator`]):
/// `scaled`. The calibration tracked neither MG-CFD's V-cycle nor
/// serve's latency, so theirs are medians as measured. The unscaled median and
/// 90th percentile of every workload go to traced runs.
pub fn op_metrics(r: &mut Report, ops: &OpTimes, setup: &OpTimes, scaled: bool) {
    let n = ops.raw.len();
    let (op, setup_s) = if scaled {
        (ops.scaled.median(), setup.scaled.median())
    } else {
        (ops.raw.median(), setup.raw.median())
    };
    r.metric("op_ms", op, "ms", n);
    r.metric("op_ms_p50", ops.raw.median(), "ms", n);
    r.metric("op_ms_p90", ops.raw.percentile(90.0), "ms", n);
    r.metric(
        "host.slowdown",
        ops.slowdown.median(),
        "ratio",
        ops.slowdown.len(),
    );
    r.metric("setup_s", setup_s, "s", setup.raw.len());
}

/// `trace.overhead_pct`: how much slower the operations that collected
/// per-layer data ran than the ones that did not, in the same run. Each
/// sample spans an op and the benchmark's bookkeeping after it, so the
/// collected ones include the cost of collection.
pub fn overhead(r: &mut Report, plain: &Samples, collected: &Samples) {
    let (p, c) = (plain.median(), collected.median());
    let pct = if p > 0.0 { 100.0 * (c / p - 1.0) } else { 0.0 };
    r.metric(
        "trace.overhead_pct",
        pct,
        "%",
        plain.len().min(collected.len()),
    );
}
