//! Golden bit-identity pins for the structured apps' loops and reductions.
//!
//! Each pin is either a 64-bit FNV-1a hash (`bwb_ops::hash`) of every
//! dataset's storage bits, halos included, and of the `dt` sequence, or the
//! exact bits of a summary reduction. The values were recorded while the
//! CloverLeaf advection loops and every app reduction still ran on the
//! per-point drivers; the row/plane drivers that replaced them promise the
//! same arithmetic in the same order and the same reduce association, so
//! any drift in either moves a pin. `VanLeer` runs in no benchmark
//! workload, so its pin here is the only guard of that code path.

use crate::{acoustic, cloverleaf2d, cloverleaf3d, miniweather};
use bwb_ops::hash::{step_u64, FNV_OFFSET};
use bwb_ops::{ExecMode, Profile};

fn fold_bits(h: u64, values: impl IntoIterator<Item = f64>) -> u64 {
    values.into_iter().fold(h, |h, v| step_u64(h, v.to_bits()))
}

fn bits2((a, b): (f64, f64)) -> [u64; 2] {
    [a.to_bits(), b.to_bits()]
}

fn check(what: &str, got: &[u64], want: &[u64]) {
    let hex = |v: &[u64]| {
        v.iter()
            .map(|x| format!("{x:#018x}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    assert_eq!(got, want, "{what} moved: got [{}]", hex(got));
}

/// `[fields, dts, mass0, energy0, mass1, energy1]` after `iterations`
/// serial cycles of a `n × n` CloverLeaf2D.
fn clover2d_pin(n: usize, iterations: usize, advection: cloverleaf2d::Advection) -> [u64; 6] {
    let mut profile = Profile::new();
    let mut sim = cloverleaf2d::Clover2::new(cloverleaf2d::Config {
        nx: n,
        ny: n,
        iterations,
        mode: ExecMode::Serial,
        advection,
        ..cloverleaf2d::Config::default()
    });
    let s0 = bits2(sim.field_summary(&mut profile));
    let dts: Vec<f64> = (0..iterations)
        .map(|_| sim.cycle(&mut profile, None))
        .collect();
    let s1 = bits2(sim.field_summary(&mut profile));
    let fields = sim
        .dats()
        .iter()
        .fold(FNV_OFFSET, |h, d| fold_bits(h, d.raw().iter().copied()));
    [
        fields,
        fold_bits(FNV_OFFSET, dts),
        s0[0],
        s0[1],
        s1[0],
        s1[1],
    ]
}

#[test]
fn clover2d_donor_cell_bits_are_pinned() {
    check(
        "cloverleaf2d 64² donor-cell",
        &clover2d_pin(64, 20, cloverleaf2d::Advection::DonorCell),
        &[
            0x7257e64cb896ac52,
            0x0147b75fee86905f,
            0x4044000000000000,
            0x4053600000000000,
            0x4044000000000000,
            0x40531d63ff9c4f4c,
        ],
    );
}

#[test]
fn clover2d_van_leer_bits_are_pinned() {
    check(
        "cloverleaf2d 64² van Leer",
        &clover2d_pin(64, 20, cloverleaf2d::Advection::VanLeer),
        &[
            0xe2ea60a49ae11a0a,
            0x371996f23dd0f5d7,
            0x4044000000000000,
            0x4053600000000000,
            0x4044000000000001,
            0x405319b3b3658bde,
        ],
    );
}

#[test]
fn clover3d_bits_are_pinned() {
    let iterations = 6;
    let mut profile = Profile::new();
    let mut sim = cloverleaf3d::Clover3::new(cloverleaf3d::Config {
        n: 24,
        iterations,
        ..cloverleaf3d::Config::default()
    });
    let s0 = bits2(sim.field_summary(&mut profile));
    let dts: Vec<f64> = (0..iterations).map(|_| sim.cycle(&mut profile)).collect();
    let s1 = bits2(sim.field_summary(&mut profile));
    let fields = sim
        .dats()
        .iter()
        .fold(FNV_OFFSET, |h, d| fold_bits(h, d.raw().iter().copied()));
    check(
        "cloverleaf3d 24³",
        &[
            fields,
            fold_bits(FNV_OFFSET, dts),
            s0[0],
            s0[1],
            s1[0],
            s1[1],
        ],
        &[
            0xe279e79e19972d20,
            0x0b6e0fa25e946f3f,
            0x4072c00000000033,
            0x407e77ffffffffdd,
            0x4072c0000000001d,
            0x407d158fc6e37fc1,
        ],
    );
}

#[test]
fn acoustic_energy_bits_are_pinned() {
    let mut profile = Profile::new();
    let mut sim = acoustic::Acoustic::new(acoustic::Config {
        n: 24,
        ..acoustic::Config::default()
    });
    let mut energies = vec![sim.energy(&mut profile)];
    for _ in 0..4 {
        sim.step_once(&mut profile);
        energies.push(sim.energy(&mut profile));
    }
    let got: Vec<u64> = energies.iter().map(|e| e.to_bits()).collect();
    check(
        "acoustic 24³ energy",
        &got,
        &[
            0x409e847ffa8a6bc4,
            0x409e61fd6b290815,
            0x409dfc613303683c,
            0x409d5580c0336ff0,
            0x409c704425f31e0b,
        ],
    );
}

#[test]
fn miniweather_totals_bits_are_pinned() {
    let mut profile = Profile::new();
    let mut sim = miniweather::MiniWeather::new(miniweather::Config::default());
    let t0 = bits2(sim.totals(&mut profile));
    for _ in 0..5 {
        sim.step(&mut profile);
    }
    let t1 = bits2(sim.totals(&mut profile));
    check(
        "miniweather 64×32 totals",
        &[t0[0], t0[1], t1[0], t1[1]],
        &[
            0x0000000000000000,
            0x405c34268a9b915f,
            0xbc8cc45fc3d30800,
            0x405c34268a9b9162,
        ],
    );
}
