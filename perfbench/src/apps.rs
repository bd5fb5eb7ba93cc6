//! Single-threaded apps whose working sets exceed the last-level cache:
//! CloverLeaf 2-D and 3-D (`ops` engine) and MG-CFD (`op2` indirect
//! loops). No communication.
//!
//! A run is a sequence of rounds. Each round builds the app and runs its
//! first step — one set-up sample, since the first step pays the lazy
//! first touch of the app's arrays — then times a fixed number of further
//! steps (one step sample each), then computes the app's validation
//! quantities outside the timed region. Every round computes the same
//! thing, so those quantities must be bit-identical across rounds — and
//! across runs, which the tests check.

use crate::layers::{LoopStats, OP2_LOOPS, OPS_LOOPS};
use crate::roof::{Calibrator, Roof};
use crate::stats::{Report, Samples};
use crate::{OpTimes, Workload};
use bwb_apps::{cloverleaf2d, cloverleaf3d, mgcfd};
use bwb_ops::{ExecMode, Profile};
use std::time::Instant;

/// One app under the serial round driver.
trait SerialApp {
    /// The app's constructor call.
    fn build() -> Self;
    /// Record the initial state the validation compares against.
    fn baseline(&mut self) {}
    fn step(&mut self, p: &mut Profile);
    /// Validation quantities at the end of a round, computed with `p`.
    fn validate(&mut self, p: &mut Profile) -> Vec<f64>;
}

/// Problem sizes. The working sets are listed in README.md next to the
/// last-level cache; all three exceed it. An MG-CFD grid that just fits
/// (513²) timed 20% apart between runs, as neighbours on the shared
/// cache came and went.
pub const CLOVER2D_N: usize = 1024;
pub const CLOVER3D_N: usize = 96;
pub const MGCFD_N: usize = 641;

/// Timed steps per round (after the set-up step).
fn steps_per_round(w: Workload) -> usize {
    match w {
        Workload::Clover2dDram => 6,
        _ => 5,
    }
}

struct Clover2(cloverleaf2d::Clover2, f64);
struct Clover3(cloverleaf3d::Clover3, f64);
struct MgCfd(mgcfd::MgCfd);

impl SerialApp for Clover2 {
    fn build() -> Self {
        let sim = cloverleaf2d::Clover2::new(cloverleaf2d::Config {
            nx: CLOVER2D_N,
            ny: CLOVER2D_N,
            mode: ExecMode::Serial,
            ..cloverleaf2d::Config::default()
        });
        Clover2(sim, 0.0)
    }
    fn baseline(&mut self) {
        self.1 = self.0.field_summary(&mut Profile::new()).0;
    }
    fn step(&mut self, p: &mut Profile) {
        self.0.cycle(p, None);
    }
    fn validate(&mut self, p: &mut Profile) -> Vec<f64> {
        let (m, e) = self.0.field_summary(p);
        vec![m, e, ((m - self.1) / self.1).abs()]
    }
}

impl SerialApp for Clover3 {
    fn build() -> Self {
        let sim = cloverleaf3d::Clover3::new(cloverleaf3d::Config {
            n: CLOVER3D_N,
            mode: ExecMode::Serial,
            ..cloverleaf3d::Config::default()
        });
        Clover3(sim, 0.0)
    }
    fn baseline(&mut self) {
        self.1 = self.0.field_summary(&mut Profile::new()).0;
    }
    fn step(&mut self, p: &mut Profile) {
        self.0.cycle(p);
    }
    fn validate(&mut self, p: &mut Profile) -> Vec<f64> {
        let (m, e) = self.0.field_summary(p);
        vec![m, e, ((m - self.1) / self.1).abs()]
    }
}

impl SerialApp for MgCfd {
    fn build() -> Self {
        let mut sim = mgcfd::MgCfd::new(mgcfd::Config {
            n: MGCFD_N,
            ..mgcfd::Config::default()
        });
        sim.perturb(0.05);
        MgCfd(sim)
    }
    fn step(&mut self, p: &mut Profile) {
        self.0.v_cycle(p);
    }
    fn validate(&mut self, p: &mut Profile) -> Vec<f64> {
        self.0.compute_flux(p, 0);
        vec![self.0.residual_norm(0)]
    }
}

/// Physical sanity of a round's validation quantities: finite, and for
/// CloverLeaf exact mass conservation (the apps' own test bound).
fn physical(w: Workload, v: &[f64]) -> Result<(), String> {
    if v.iter().any(|x| !x.is_finite()) {
        return Err(format!("{}: non-finite validation {v:?}", w.name()));
    }
    match w {
        Workload::Clover2dDram | Workload::Clover3dDram if v[2] >= 1e-12 => Err(format!(
            "{}: relative mass drift {} exceeds 1e-12",
            w.name(),
            v[2]
        )),
        _ => Ok(()),
    }
}

pub fn run(w: Workload, seconds: f64, traced: bool, roof: &Roof) -> Report {
    match w {
        Workload::Clover2dDram => rounds::<Clover2>(w, seconds, traced, roof),
        Workload::Clover3dDram => rounds::<Clover3>(w, seconds, traced, roof),
        Workload::Mgcfd => rounds::<MgCfd>(w, seconds, traced, roof),
        _ => unreachable!("not a serial app workload"),
    }
}

fn rounds<A: SerialApp>(w: Workload, seconds: f64, traced: bool, roof: &Roof) -> Report {
    let k = steps_per_round(w);
    let mut r = Report::new();
    let mut build = Samples::new();
    let (mut setup, mut steps) = (OpTimes::default(), OpTimes::default());
    let mut cal = Calibrator::new();
    // Traced runs alternate steps with and without per-layer collection,
    // so the overhead of collection is measured in the same run: each
    // sample spans the step and the bookkeeping that follows it.
    let (mut plain, mut collected) = (Samples::new(), Samples::new());
    let mut loops = LoopStats::new();
    let mut first: Option<Vec<u64>> = None;
    let t0 = Instant::now();
    let mut round = 0usize;
    while round < 2 || t0.elapsed().as_secs_f64() < seconds {
        let setup_slowdown = cal.slowdown();
        let t = Instant::now();
        let mut app = A::build();
        let built = t.elapsed().as_secs_f64();
        build.push(built);
        app.baseline();
        let t = Instant::now();
        app.step(&mut Profile::new());
        setup.push(built + t.elapsed().as_secs_f64(), setup_slowdown);
        for i in 0..k {
            let collect = traced && (i + round) % 2 == 1;
            let mut p = Profile::new();
            let slowdown = cal.slowdown();
            let t = Instant::now();
            app.step(&mut p);
            let wall = t.elapsed().as_secs_f64();
            steps.push(wall * 1e3, slowdown);
            if collect {
                loops.add_step(&[&p], wall);
                collected.push(t.elapsed().as_secs_f64() * 1e3);
            } else if traced {
                plain.push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        let mut side = Profile::new();
        let v = app.validate(&mut side);
        loops.add_side(&side);
        drop(app);
        r.check(physical(w, &v));
        let bits: Vec<u64> = v.iter().map(|x| x.to_bits()).collect();
        match &first {
            None => first = Some(bits),
            Some(b) => r.check(if *b == bits {
                Ok(())
            } else {
                Err(format!(
                    "{}: round {round} validation {v:?} differs",
                    w.name()
                ))
            }),
        }
        round += 1;
    }
    r.info("rounds", round);
    r.info("steps_per_round", k);
    if let Some(b) = &first {
        let v: Vec<String> = b
            .iter()
            .map(|x| format!("{:e}", f64::from_bits(*x)))
            .collect();
        r.info("validation", v.join(" "));
    }
    // MG-CFD's V-cycle does not follow the calibration stencil, so
    // scaling would only add the stencil's swings to it.
    crate::op_metrics(&mut r, &steps, &setup, w != Workload::Mgcfd);
    r.metric("apps.build_ms", build.median() * 1e3, "ms", build.len());
    if traced {
        if w == Workload::Mgcfd {
            loops.report(
                &mut r,
                "op2",
                &OP2_LOOPS,
                &["compute_flux"],
                roof.triad_gbs_1t,
            );
        } else {
            loops.report(&mut r, "ops", &OPS_LOOPS, &OPS_LOOPS, roof.triad_gbs_1t);
        }
        r.check(loops.counters_repeat());
        crate::overhead(&mut r, &plain, &collected);
    }
    r
}
