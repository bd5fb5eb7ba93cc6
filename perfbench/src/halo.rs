//! Two-rank `shmpi` universes whose per-rank working sets fit in cache:
//! CloverLeaf 2-D (many small halo messages per cycle) and Acoustic (few
//! large ones per step).
//!
//! A run is a sequence of batches; each batch is one `Universe::run` that
//! builds the app on both ranks and steps it a fixed number of times. A
//! step's time is the slowest rank's. Set-up is the time to the first
//! finished step: universe spawn, construction and the first step, which
//! pays the first touch of the arrays.

use crate::layers::{LoopStats, OPS_LOOPS};
use crate::roof::{Calibrator, Roof};
use crate::stats::{ms, Report, Samples};
use crate::{OpTimes, Workload};
use bwb_apps::{acoustic, cloverleaf2d};
use bwb_ops::{DistBlock2, ExecMode, Profile};
use bwb_shmpi::{RankStats, Universe};
use std::time::Instant;

pub const RANKS: usize = 2;
pub const CLOVER2D_N: usize = 512;
pub const ACOUSTIC_N: usize = 128;
/// CloverLeaf cycles per batch, the set-up cycle included.
pub const CLOVER2D_CYCLES: usize = 21;
/// Acoustic steps per `run_distributed` call.
pub const ACOUSTIC_STEPS: usize = 20;
/// One-step runs timed per run for Acoustic's set-up; with three the
/// median set-up spread 30% between runs.
const ACOUSTIC_SETUPS: usize = 11;
/// Gathered density vs. the serial run of the same grid: the bound the
/// distributed-execution integration tests assert.
pub const DENSITY_TOL: f64 = 1e-11;

fn clover_cfg(iterations: usize) -> cloverleaf2d::Config {
    cloverleaf2d::Config {
        nx: CLOVER2D_N,
        ny: CLOVER2D_N,
        iterations,
        mode: ExecMode::Serial,
        ..cloverleaf2d::Config::default()
    }
}

fn acoustic_cfg(iterations: usize) -> acoustic::Config {
    acoustic::Config {
        n: ACOUSTIC_N,
        iterations,
        mode: ExecMode::Serial,
        ..acoustic::Config::default()
    }
}

/// Communication counted between two snapshots of one rank's stats.
#[derive(Debug, Clone, Copy, Default)]
struct CommDelta {
    wait_s: f64,
    msgs: u64,
    bytes: u64,
}

impl CommDelta {
    fn between(a: &RankStats, b: &RankStats) -> CommDelta {
        CommDelta {
            wait_s: b.wait_seconds - a.wait_seconds,
            msgs: b.sends - a.sends,
            bytes: b.bytes_sent - a.bytes_sent,
        }
    }
}

/// One rank's record of one step.
struct RankStep {
    /// The host slowdown the calibration read on this rank before the step.
    slowdown: f64,
    wall_s: f64,
    comm: CommDelta,
    profile: Profile,
}

/// Per-step communication metrics, accumulated over the run.
#[derive(Default)]
struct CommStats {
    wait_ms: Samples,
    comm_ms: Samples,
    msgs: Samples,
    bytes: Samples,
}

impl CommStats {
    /// Add one step from every rank's record of it.
    fn add(&mut self, ranks: &[&RankStep], steps: usize) {
        let wall = ranks.iter().map(|s| s.wall_s).fold(0.0, f64::max);
        let loops = ranks
            .iter()
            .map(|s| s.profile.total_seconds())
            .fold(0.0, f64::max);
        let wait = ranks.iter().map(|s| s.comm.wait_s).fold(0.0, f64::max);
        self.wait_ms.push(ms(wait) / steps as f64);
        self.comm_ms.push(ms(wall - loops) / steps as f64);
        let msgs: u64 = ranks.iter().map(|s| s.comm.msgs).sum();
        let bytes: u64 = ranks.iter().map(|s| s.comm.bytes).sum();
        self.msgs.push(msgs as f64 / steps as f64);
        self.bytes.push(bytes as f64 / steps as f64);
    }

    fn report(&self, r: &mut Report) {
        let n = self.wait_ms.len();
        r.metric("shmpi.wait_ms", self.wait_ms.median(), "ms", n);
        r.metric("shmpi.comm_ms", self.comm_ms.median(), "ms", n);
        r.metric("shmpi.msgs_per_step", self.msgs.median(), "count", n);
        r.metric("shmpi.bytes_per_step", self.bytes.median(), "B", n);
        let same = |s: &Samples| s.values().windows(2).all(|w| w[0] == w[1]);
        r.check(if same(&self.msgs) && same(&self.bytes) {
            Ok(())
        } else {
            Err("messages/bytes per step differ between steps".into())
        });
    }
}

/// Median wall time of an empty two-rank universe: thread spawn + join.
fn spawn_ms(reps: usize) -> Samples {
    let mut s = Samples::new();
    for _ in 0..reps {
        let t = Instant::now();
        Universe::run(RANKS, |_| ());
        s.push(ms(t.elapsed().as_secs_f64()));
    }
    s
}

/// The serial density field after `cycles` cycles, row-major over the
/// global grid (the layout `gather_global` returns).
fn serial_density(cycles: usize) -> Vec<f64> {
    let mut sim = cloverleaf2d::Clover2::new(clover_cfg(cycles));
    let mut p = Profile::new();
    for _ in 0..cycles {
        sim.cycle(&mut p, None);
    }
    let n = CLOVER2D_N as isize;
    let mut v = Vec::with_capacity(CLOVER2D_N * CLOVER2D_N);
    for j in 0..n {
        for i in 0..n {
            v.push(sim.density().get(i, j));
        }
    }
    v
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

pub fn run(w: Workload, seconds: f64, traced: bool, roof: &Roof) -> Report {
    let mut r = match w {
        Workload::Clover2dHalo => clover2d(seconds, traced, roof),
        Workload::AcousticHalo => acoustic(seconds, traced, roof),
        _ => unreachable!("not a halo workload"),
    };
    if traced {
        let s = spawn_ms(20);
        r.metric("shmpi.spawn_ms", s.median(), "ms", s.len());
    }
    r
}

fn clover2d(seconds: f64, traced: bool, roof: &Roof) -> Report {
    let mut r = Report::new();
    // Reference for the gathered-density check, outside the timed region.
    let reference = serial_density(CLOVER2D_CYCLES);
    let cfg = clover_cfg(CLOVER2D_CYCLES);
    let mut build = Samples::new();
    let (mut setup, mut steps) = (OpTimes::default(), OpTimes::default());
    let mut setup_cal = Calibrator::new();
    let (mut plain, mut collected) = (Samples::new(), Samples::new());
    let mut loops = LoopStats::new();
    let mut comm = CommStats::default();
    let t0 = Instant::now();
    let mut batch = 0usize;
    while batch < 2 || t0.elapsed().as_secs_f64() < seconds {
        let slowdown = setup_cal.slowdown();
        let start = Instant::now();
        let out = Universe::run(RANKS, |c| {
            let b = Instant::now();
            let mut sim = cloverleaf2d::Clover2::new_distributed(c, cfg.clone());
            let built = b.elapsed().as_secs_f64();
            sim.cycle(&mut Profile::new(), Some(c));
            c.barrier();
            let ready = start.elapsed().as_secs_f64();
            let mut recs = Vec::with_capacity(CLOVER2D_CYCLES - 1);
            let mut cal = Calibrator::new();
            for _ in 1..CLOVER2D_CYCLES {
                let mut p = Profile::new();
                let slowdown = cal.slowdown();
                let s0 = c.stats();
                let t = Instant::now();
                sim.cycle(&mut p, Some(c));
                let wall_s = t.elapsed().as_secs_f64();
                recs.push(RankStep {
                    slowdown,
                    wall_s,
                    comm: CommDelta::between(&s0, &c.stats()),
                    profile: p,
                });
            }
            let block = DistBlock2::new(c, CLOVER2D_N, CLOVER2D_N);
            let gathered = block.gather_global(c, sim.density());
            (built, ready, recs, gathered)
        });
        build.push(out.results.iter().map(|x| x.0).fold(0.0, f64::max));
        setup.push(
            out.results.iter().map(|x| x.1).fold(0.0, f64::max),
            slowdown,
        );
        for i in 0..CLOVER2D_CYCLES - 1 {
            let ranks: Vec<&RankStep> = out.results.iter().map(|x| &x.2[i]).collect();
            let wall = ranks.iter().map(|s| s.wall_s).fold(0.0, f64::max);
            let slowdown = ranks.iter().map(|s| s.slowdown).sum::<f64>() / ranks.len() as f64;
            steps.push(ms(wall), slowdown);
            // An overhead sample is the step plus its bookkeeping.
            let collect = traced && (i + batch) % 2 == 1;
            let b = Instant::now();
            if collect {
                let profiles: Vec<&Profile> = ranks.iter().map(|s| &s.profile).collect();
                loops.add_step(&profiles, wall);
                comm.add(&ranks, 1);
                collected.push(ms(wall + b.elapsed().as_secs_f64()));
            } else if traced {
                plain.push(ms(wall + b.elapsed().as_secs_f64()));
            }
        }
        r.check(match &out.results[0].3 {
            Some(g) => {
                let d = max_abs_diff(g, &reference);
                if g.len() == reference.len() && d < DENSITY_TOL {
                    Ok(())
                } else {
                    Err(format!(
                        "clover2d-halo: gathered density differs from serial by {d}"
                    ))
                }
            }
            None => Err("clover2d-halo: rank 0 gathered nothing".into()),
        });
        batch += 1;
    }
    r.info("batches", batch);
    r.info("cycles_per_batch", CLOVER2D_CYCLES);
    crate::op_metrics(&mut r, &steps, &setup, true);
    r.metric("apps.build_ms", build.median() * 1e3, "ms", build.len());
    if traced {
        loops.report(&mut r, "ops", &OPS_LOOPS, &OPS_LOOPS, roof.triad_gbs_2t);
        r.check(loops.counters_repeat());
        comm.report(&mut r);
        crate::overhead(&mut r, &plain, &collected);
    }
    r
}

/// Divide a whole-run profile into one step's share.
fn per_step(p: &Profile, steps: usize) -> Profile {
    let mut out = Profile::new();
    for rec in p.records() {
        out.record(
            &rec.name,
            rec.points / steps,
            rec.bytes / steps,
            rec.flops / steps as f64,
            rec.seconds / steps as f64,
        );
    }
    out
}

fn acoustic(seconds: f64, traced: bool, roof: &Roof) -> Report {
    let mut r = Report::new();
    let cfg = acoustic_cfg(ACOUSTIC_STEPS);
    // Set-up: a one-step run spawns, builds, initializes, steps once and
    // gathers (`run_distributed` has no separate constructor).
    let (mut setup, mut steps) = (OpTimes::default(), OpTimes::default());
    let mut cal = Calibrator::new();
    let one = acoustic_cfg(1);
    for _ in 0..ACOUSTIC_SETUPS {
        let slowdown = cal.slowdown();
        let start = Instant::now();
        Universe::run(RANKS, |c| {
            acoustic::Acoustic::run_distributed(c, one.clone())
        });
        setup.push(start.elapsed().as_secs_f64(), slowdown);
    }
    let (mut plain, mut collected) = (Samples::new(), Samples::new());
    let mut loops = LoopStats::new();
    let mut comm = CommStats::default();
    let mut first: Option<Vec<u64>> = None;
    let t0 = Instant::now();
    let mut batch = 0usize;
    while batch < 2 || t0.elapsed().as_secs_f64() < seconds {
        let slowdown = cal.slowdown();
        let out = Universe::run(RANKS, |c| {
            c.barrier();
            let s0 = c.stats();
            let t = Instant::now();
            let (profile, gathered) = acoustic::Acoustic::run_distributed(c, cfg.clone());
            let wall_s = t.elapsed().as_secs_f64();
            let step = RankStep {
                slowdown,
                wall_s,
                comm: CommDelta::between(&s0, &c.stats()),
                profile,
            };
            (step, gathered)
        });
        let ranks: Vec<&RankStep> = out.results.iter().map(|x| &x.0).collect();
        let wall = ranks.iter().map(|s| s.wall_s).fold(0.0, f64::max);
        let step_ms = ms(wall) / ACOUSTIC_STEPS as f64;
        steps.push(step_ms, slowdown);
        // An overhead sample is the batch plus its bookkeeping, per step.
        let collect = traced && batch % 2 == 1;
        let b = Instant::now();
        if collect {
            let split: Vec<Profile> = ranks
                .iter()
                .map(|s| per_step(&s.profile, ACOUSTIC_STEPS))
                .collect();
            let profiles: Vec<&Profile> = split.iter().collect();
            loops.add_step(&profiles, wall / ACOUSTIC_STEPS as f64);
            comm.add(&ranks, ACOUSTIC_STEPS);
            collected.push(ms(wall + b.elapsed().as_secs_f64()) / ACOUSTIC_STEPS as f64);
        } else if traced {
            plain.push(ms(wall + b.elapsed().as_secs_f64()) / ACOUSTIC_STEPS as f64);
        }
        r.check(match &out.results[0].1 {
            Some(g) if g.iter().all(|x| x.is_finite()) => {
                let bits: Vec<u64> = g.iter().map(|x| x.to_bits()).collect();
                match &first {
                    None => {
                        first = Some(bits);
                        Ok(())
                    }
                    Some(b) if *b == bits => Ok(()),
                    Some(_) => Err(format!("acoustic-halo: batch {batch} field differs")),
                }
            }
            _ => Err("acoustic-halo: gathered field missing or non-finite".into()),
        });
        batch += 1;
    }
    r.info("batches", batch);
    r.info("steps_per_batch", ACOUSTIC_STEPS);
    crate::op_metrics(&mut r, &steps, &setup, true);
    if traced {
        loops.report(&mut r, "ops", &OPS_LOOPS, &OPS_LOOPS, roof.triad_gbs_2t);
        comm.report(&mut r);
        crate::overhead(&mut r, &plain, &collected);
    }
    r
}
