//! CloverLeaf 3D — the three-dimensional variant of the CloverLeaf
//! hydrodynamics proxy (paper §3, app 2; 408³ problem, 50 iterations).
//!
//! Same algorithm as [`crate::cloverleaf2d`] extended to 3-D: staggered
//! grid (cell-centred thermodynamics, node-centred velocities), explicit
//! Lagrangian step + directional-split donor-cell remap. The 3-D access
//! patterns are what matter to the paper ("given they are in 3D, their
//! access patterns are more complicated" — §6): nodal kernels gather 8
//! cells, the remap runs three sweeps.

use crate::{AppId, AppRun};
use bwb_ops::{par_loop3_planes, par_loop3_planes_reduce, Dat3, ExecMode, Profile, Range3};
use std::time::Instant;

pub const GAMMA: f64 = 1.4;
pub const HALO: usize = 2;

#[derive(Debug, Clone)]
pub struct Config {
    pub n: usize,
    pub iterations: usize,
    pub cfl: f64,
    pub mode: ExecMode,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            n: 16,
            iterations: 10,
            cfl: 0.45,
            mode: ExecMode::Serial,
        }
    }
}

impl Config {
    /// Paper testcase: 408³, 50 iterations.
    pub fn paper() -> Self {
        Config {
            n: 408,
            iterations: 50,
            cfl: 0.45,
            mode: ExecMode::Rayon,
        }
    }
}

/// Upwind advection term `u·∂g/∂x + v·∂g/∂y + w·∂g/∂z` of node `i` for
/// the velocity component whose plus3(1) rows are `g` (centre, then -x,
/// +x, -y, +y, -z, +z), with `uvw` the node's velocity. A plain
/// `#[inline(always)]` function rather than a closure: it runs once per
/// point and component, where an out-of-line call costs more than the
/// arithmetic.
#[inline(always)]
fn upwind3(g: &[&[f64]; 7], i: usize, [u, v, w]: [f64; 3], dx: f64) -> f64 {
    let c = g[0][i];
    let ddx = if u > 0.0 { c - g[1][i] } else { g[2][i] - c } / dx;
    let ddy = if v > 0.0 { c - g[3][i] } else { g[4][i] - c } / dx;
    let ddz = if w > 0.0 { c - g[5][i] } else { g[6][i] - c } / dx;
    u * ddx + v * ddy + w * ddz
}

pub struct Clover3 {
    cfg: Config,
    n: usize,
    dx: f64,
    density0: Dat3<f64>,
    density1: Dat3<f64>,
    energy0: Dat3<f64>,
    energy1: Dat3<f64>,
    pressure: Dat3<f64>,
    viscosity: Dat3<f64>,
    soundspeed: Dat3<f64>,
    work_d: Dat3<f64>,
    work_e: Dat3<f64>,
    xvel: Dat3<f64>,
    yvel: Dat3<f64>,
    zvel: Dat3<f64>,
    xvel1: Dat3<f64>,
    yvel1: Dat3<f64>,
    zvel1: Dat3<f64>,
    vol_flux_x: Dat3<f64>,
    vol_flux_y: Dat3<f64>,
    vol_flux_z: Dat3<f64>,
}

impl Clover3 {
    pub fn new(cfg: Config) -> Self {
        let n = cfg.n;
        let dx = 10.0 / n as f64;
        let cell = |nm: &str| Dat3::<f64>::new(nm, n, n, n, HALO);
        let node = |nm: &str| Dat3::<f64>::new(nm, n + 1, n + 1, n + 1, HALO);
        let mut density0 = cell("density0");
        let mut energy0 = cell("energy0");
        let half = n as isize / 2;
        density0.init_with(|i, j, k| {
            if i < half && j < half && k < half {
                1.0
            } else {
                0.2
            }
        });
        energy0.init_with(|i, j, k| {
            if i < half && j < half && k < half {
                2.5
            } else {
                1.0
            }
        });
        Clover3 {
            n,
            dx,
            density1: cell("density1"),
            energy1: cell("energy1"),
            pressure: cell("pressure"),
            viscosity: cell("viscosity"),
            soundspeed: cell("soundspeed"),
            work_d: cell("work_d"),
            work_e: cell("work_e"),
            xvel: node("xvel"),
            yvel: node("yvel"),
            zvel: node("zvel"),
            xvel1: node("xvel1"),
            yvel1: node("yvel1"),
            zvel1: node("zvel1"),
            vol_flux_x: Dat3::new("vol_flux_x", n + 1, n, n, HALO),
            vol_flux_y: Dat3::new("vol_flux_y", n, n + 1, n, HALO),
            vol_flux_z: Dat3::new("vol_flux_z", n, n, n + 1, HALO),
            density0,
            energy0,
            cfg,
        }
    }

    fn cells(&self) -> Range3 {
        Range3::interior(self.n, self.n, self.n)
    }

    fn nodes(&self) -> Range3 {
        Range3::interior(self.n + 1, self.n + 1, self.n + 1)
    }

    /// Reflective boundary mirrors for the cell fields (the boundary
    /// kernels of the 3-D code: 6 faces × fields).
    fn update_halo(&mut self, profile: &mut Profile) {
        let t0 = Instant::now();
        let n = self.n as isize;
        let h = HALO as isize;
        let mut points = 0usize;
        for f in [
            &mut self.density0,
            &mut self.energy0,
            &mut self.pressure,
            &mut self.viscosity,
            &mut self.density1,
            &mut self.energy1,
        ] {
            // Storage index of (i, j, k). The x mirrors are single points
            // at both ends of every interior row; the y mirrors are whole
            // padded i-rows and the z mirrors whole padded (i, j)-planes,
            // so those copy contiguous slices. Every column still sees its
            // copies in the per-point order (layer 1 before layer 2), which
            // matters when n < HALO.
            let (pitch, slab) = (f.pitch(), f.slab());
            let at = |i: isize, j: isize, k: isize| {
                (k + h) as usize * slab + (j + h) as usize * pitch + (i + h) as usize
            };
            let data = f.raw_mut();
            for k in 0..n {
                for j in 0..n {
                    for hh in 1..=h {
                        data[at(-hh, j, k)] = data[at(hh - 1, j, k)];
                        data[at(n - 1 + hh, j, k)] = data[at(n - hh, j, k)];
                        points += 2;
                    }
                }
            }
            for k in 0..n {
                for hh in 1..=h {
                    let src = at(-h, hh - 1, k);
                    data.copy_within(src..src + pitch, at(-h, -hh, k));
                    let src = at(-h, n - hh, k);
                    data.copy_within(src..src + pitch, at(-h, n - 1 + hh, k));
                    points += 2 * pitch;
                }
            }
            for hh in 1..=h {
                let src = at(-h, -h, hh - 1);
                data.copy_within(src..src + slab, at(-h, -h, -hh));
                let src = at(-h, -h, n - hh);
                data.copy_within(src..src + slab, at(-h, -h, n - 1 + hh));
                points += 2 * slab;
            }
        }
        profile.record(
            "update_halo3",
            points,
            points * 16,
            0.0,
            t0.elapsed().as_secs_f64(),
        );
    }

    /// Zero normal velocities on the box walls.
    fn velocity_bcs(&mut self, profile: &mut Profile) {
        let t0 = Instant::now();
        let n = self.n as isize;
        let mut points = 0usize;
        for v in [&mut self.xvel, &mut self.xvel1] {
            for k in 0..=n {
                for j in 0..=n {
                    v.set(0, j, k, 0.0);
                    v.set(n, j, k, 0.0);
                    points += 2;
                }
            }
        }
        for v in [&mut self.yvel, &mut self.yvel1] {
            for k in 0..=n {
                for i in 0..=n {
                    v.set(i, 0, k, 0.0);
                    v.set(i, n, k, 0.0);
                    points += 2;
                }
            }
        }
        for v in [&mut self.zvel, &mut self.zvel1] {
            for j in 0..=n {
                for i in 0..=n {
                    v.set(i, j, 0, 0.0);
                    v.set(i, j, n, 0.0);
                    points += 2;
                }
            }
        }
        profile.record(
            "update_halo3_vel",
            points,
            points * 8,
            0.0,
            t0.elapsed().as_secs_f64(),
        );
    }

    fn ideal_gas(&mut self, profile: &mut Profile) {
        par_loop3_planes(
            profile,
            "ideal_gas3",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.pressure, &mut self.soundspeed],
            &[&self.density0, &self.energy0],
            5.0,
            |_j, _k, out, ins| {
                let rho = ins.row(0);
                let e = ins.row(1);
                let (p, ss) = out.rows2(0, 1);
                for i in 0..p.len() {
                    let pv = (GAMMA - 1.0) * rho[i] * e[i];
                    p[i] = pv;
                    ss[i] = (GAMMA * pv / rho[i]).sqrt();
                }
            },
        );
    }

    fn viscosity_kernel(&mut self, profile: &mut Profile) {
        let dx = self.dx;
        par_loop3_planes(
            profile,
            "viscosity3",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.viscosity],
            &[&self.density0, &self.xvel, &self.yvel, &self.zvel],
            25.0,
            move |_j, _k, out, ins| {
                // Face-node rows: x faces at i offsets {0,1} over the 4
                // (j,k) face nodes, likewise y and z faces.
                let face = [(0isize, 0isize), (1, 0), (0, 1), (1, 1)];
                let u = |hi: isize| face.map(|(a, b)| ins.row_off(1, hi, a, b));
                let v = |hi: isize| face.map(|(a, b)| ins.row_off(2, a, hi, b));
                let w = |hi: isize| face.map(|(a, b)| ins.row_off(3, a, b, hi));
                let (u0, u1) = (u(0), u(1));
                let (v0, v1) = (v(0), v(1));
                let (w0, w1) = (w(0), w(1));
                let rho = ins.row(0);
                let q = out.row(0);
                let favg =
                    |r: &[&[f64]; 4], i: usize| 0.25 * (r[0][i] + r[1][i] + r[2][i] + r[3][i]);
                for i in 0..q.len() {
                    let div = (favg(&u1, i) - favg(&u0, i) + favg(&v1, i) - favg(&v0, i)
                        + favg(&w1, i)
                        - favg(&w0, i))
                        / dx;
                    q[i] = if div < 0.0 {
                        2.0 * rho[i] * (div * dx) * (div * dx)
                    } else {
                        0.0
                    };
                }
            },
        );
    }

    fn calc_dt(&mut self, profile: &mut Profile) -> f64 {
        let (dx, cfl) = (self.dx, self.cfg.cfl);
        par_loop3_planes_reduce(
            profile,
            "calc_dt3",
            self.cfg.mode,
            self.cells(),
            &[&self.soundspeed, &self.xvel, &self.yvel, &self.zvel],
            f64::INFINITY,
            10.0,
            move |_j, _k, ins, mut acc| {
                let (ss, u, v, w) = (ins.row(0), ins.row(1), ins.row(2), ins.row(3));
                for i in 0..ss.len() {
                    let vmax = u[i].abs().max(v[i].abs()).max(w[i].abs());
                    acc = f64::min(acc, cfl * dx / (ss[i] + vmax + 1e-12));
                }
                acc
            },
            f64::min,
        )
    }

    fn accelerate(&mut self, profile: &mut Profile, dt: f64) {
        let dx = self.dx;
        let vol = dx * dx * dx;
        par_loop3_planes(
            profile,
            "accelerate3",
            self.cfg.mode,
            self.nodes(),
            &mut [&mut self.xvel1, &mut self.yvel1, &mut self.zvel1],
            &[
                &self.density0,
                &self.pressure,
                &self.viscosity,
                &self.xvel,
                &self.yvel,
                &self.zvel,
            ],
            60.0,
            move |_j, _k, out, ins| {
                // Node (i,j,k) neighbours the 8 cells (i-1..i)×(j-1..j)×(k-1..k).
                // Offsets indexed so bit 0 = di==-1, bit 1 = dj==-1,
                // bit 2 = dk==-1.
                let offs = [
                    (0isize, 0isize, 0isize),
                    (-1, 0, 0),
                    (0, -1, 0),
                    (-1, -1, 0),
                    (0, 0, -1),
                    (-1, 0, -1),
                    (0, -1, -1),
                    (-1, -1, -1),
                ];
                let den = offs.map(|(a, b, c)| ins.row_off(0, a, b, c));
                let prs = offs.map(|(a, b, c)| ins.row_off(1, a, b, c));
                let vis = offs.map(|(a, b, c)| ins.row_off(2, a, b, c));
                let u0 = ins.row(3);
                let v0 = ins.row(4);
                let w0 = ins.row(5);
                let area = dx * dx;
                let (u1, v1, w1) = out.rows3(0, 1, 2);
                for i in 0..u1.len() {
                    // Same accumulation order as the scalar kernel: dk, dj,
                    // di each from -1 to 0.
                    let mut mass = 0.0;
                    for o in [7, 6, 5, 4, 3, 2, 1, 0] {
                        mass += den[o][i];
                    }
                    mass *= 0.125 * vol;
                    let sbm = 0.25 * dt / mass;
                    let pq = |o: usize| prs[o][i] + vis[o][i];
                    let dpx = (pq(0) + pq(2) + pq(4) + pq(6)) - (pq(1) + pq(3) + pq(5) + pq(7));
                    let dpy = (pq(0) + pq(1) + pq(4) + pq(5)) - (pq(2) + pq(3) + pq(6) + pq(7));
                    let dpz = (pq(0) + pq(1) + pq(2) + pq(3)) - (pq(4) + pq(5) + pq(6) + pq(7));
                    u1[i] = u0[i] - sbm * dpx * area;
                    v1[i] = v0[i] - sbm * dpy * area;
                    w1[i] = w0[i] - sbm * dpz * area;
                }
            },
        );
    }

    fn pdv(&mut self, profile: &mut Profile, dt: f64) {
        let dx = self.dx;
        par_loop3_planes(
            profile,
            "pdv3",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.energy1, &mut self.density1],
            &[
                &self.density0,
                &self.energy0,
                &self.pressure,
                &self.viscosity,
                &self.xvel1,
                &self.yvel1,
                &self.zvel1,
            ],
            45.0,
            move |_j, _k, out, ins| {
                let face = [(0isize, 0isize), (1, 0), (0, 1), (1, 1)];
                let u = |hi: isize| face.map(|(a, b)| ins.row_off(4, hi, a, b));
                let v = |hi: isize| face.map(|(a, b)| ins.row_off(5, a, hi, b));
                let w = |hi: isize| face.map(|(a, b)| ins.row_off(6, a, b, hi));
                let (u0, u1) = (u(0), u(1));
                let (v0, v1) = (v(0), v(1));
                let (w0, w1) = (w(0), w(1));
                let rho = ins.row(0);
                let e = ins.row(1);
                let p = ins.row(2);
                let q = ins.row(3);
                let (e1, d1) = out.rows2(0, 1);
                let favg =
                    |r: &[&[f64]; 4], i: usize| 0.25 * (r[0][i] + r[1][i] + r[2][i] + r[3][i]);
                for i in 0..e1.len() {
                    let div = (favg(&u1, i) - favg(&u0, i) + favg(&v1, i) - favg(&v0, i)
                        + favg(&w1, i)
                        - favg(&w0, i))
                        / dx;
                    let pq = p[i] + q[i];
                    e1[i] = (e[i] - dt * pq * div / rho[i]).max(1e-10);
                    d1[i] = rho[i];
                }
            },
        );
    }

    fn flux_calc(&mut self, profile: &mut Profile, dt: f64) {
        let dx = self.dx;
        let n = self.n as isize;
        let mode = self.cfg.mode;
        let area = dx * dx;
        par_loop3_planes(
            profile,
            "flux_calc3_x",
            mode,
            Range3::new(0, n + 1, 0, n, 0, n),
            &mut [&mut self.vol_flux_x],
            &[&self.xvel, &self.xvel1],
            9.0,
            move |_j, _k, out, ins| {
                let offs = [(0isize, 0isize), (1, 0), (0, 1), (1, 1)];
                let a = offs.map(|(p, q)| ins.row_off(0, 0, p, q));
                let b = offs.map(|(p, q)| ins.row_off(1, 0, p, q));
                let fx = out.row(0);
                for i in 0..fx.len() {
                    let u = 0.125
                        * (a[0][i]
                            + a[1][i]
                            + a[2][i]
                            + a[3][i]
                            + b[0][i]
                            + b[1][i]
                            + b[2][i]
                            + b[3][i]);
                    fx[i] = u * dt * area;
                }
            },
        );
        par_loop3_planes(
            profile,
            "flux_calc3_y",
            mode,
            Range3::new(0, n, 0, n + 1, 0, n),
            &mut [&mut self.vol_flux_y],
            &[&self.yvel, &self.yvel1],
            9.0,
            move |_j, _k, out, ins| {
                let offs = [(0isize, 0isize), (1, 0), (0, 1), (1, 1)];
                let a = offs.map(|(p, q)| ins.row_off(0, p, 0, q));
                let b = offs.map(|(p, q)| ins.row_off(1, p, 0, q));
                let fy = out.row(0);
                for i in 0..fy.len() {
                    let v = 0.125
                        * (a[0][i]
                            + a[1][i]
                            + a[2][i]
                            + a[3][i]
                            + b[0][i]
                            + b[1][i]
                            + b[2][i]
                            + b[3][i]);
                    fy[i] = v * dt * area;
                }
            },
        );
        par_loop3_planes(
            profile,
            "flux_calc3_z",
            mode,
            Range3::new(0, n, 0, n, 0, n + 1),
            &mut [&mut self.vol_flux_z],
            &[&self.zvel, &self.zvel1],
            9.0,
            move |_j, _k, out, ins| {
                let offs = [(0isize, 0isize), (1, 0), (0, 1), (1, 1)];
                let a = offs.map(|(p, q)| ins.row_off(0, p, q, 0));
                let b = offs.map(|(p, q)| ins.row_off(1, p, q, 0));
                let fz = out.row(0);
                for i in 0..fz.len() {
                    let w = 0.125
                        * (a[0][i]
                            + a[1][i]
                            + a[2][i]
                            + a[3][i]
                            + b[0][i]
                            + b[1][i]
                            + b[2][i]
                            + b[3][i]);
                    fz[i] = w * dt * area;
                }
            },
        );
    }

    /// Donor-cell conservative remap along direction `dir` (0/1/2).
    fn advec_cell(&mut self, profile: &mut Profile, dir: usize) {
        let vol = self.dx * self.dx * self.dx;
        let name = match dir {
            0 => "advec_cell3_x",
            1 => "advec_cell3_y",
            _ => "advec_cell3_z",
        };
        let flux_field = match dir {
            0 => &self.vol_flux_x,
            1 => &self.vol_flux_y,
            _ => &self.vol_flux_z,
        };
        par_loop3_planes(
            profile,
            name,
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.work_d, &mut self.work_e],
            &[&self.density1, &self.energy1, flux_field],
            22.0,
            move |_j, _k, out, ins| {
                // Row of input `f` at offset `o` along `dir`.
                let along = |f: usize, o: isize| {
                    let mut off = [0isize; 3];
                    off[dir] = o;
                    ins.row_off(f, off[0], off[1], off[2])
                };
                // The upwind3 rows: index `o + 1` holds offset `o`.
                let d = [-1, 0, 1].map(|o| along(0, o));
                let e = [-1, 0, 1].map(|o| along(1, o));
                let faces = [along(2, 0), along(2, 1)];
                let (wd, we) = out.rows2(0, 1);
                for i in 0..wd.len() {
                    // Face 0 is the cell's low face: its donor is the low
                    // neighbour (offset -1) when the flux is positive.
                    let fv = faces[0][i];
                    let donor = if fv > 0.0 { 0 } else { 1 };
                    let m_in = fv * d[donor][i];
                    let e_in = m_in * e[donor][i];
                    let fv = faces[1][i];
                    let donor = if fv > 0.0 { 1 } else { 2 };
                    let m_out = fv * d[donor][i];
                    let e_out = m_out * e[donor][i];
                    let rho = d[1][i];
                    let en = e[1][i];
                    let mass = rho * vol + m_in - m_out;
                    let energy_mass = rho * en * vol + e_in - e_out;
                    wd[i] = mass / vol;
                    we[i] = energy_mass / mass.max(1e-300);
                }
            },
        );
        std::mem::swap(&mut self.density1, &mut self.work_d);
        std::mem::swap(&mut self.energy1, &mut self.work_e);
    }

    /// Upwind momentum advection for all three velocity components.
    fn advec_mom(&mut self, profile: &mut Profile, dt: f64) {
        let dx = self.dx;
        par_loop3_planes(
            profile,
            "advec_mom3",
            self.cfg.mode,
            self.nodes(),
            &mut [&mut self.xvel, &mut self.yvel, &mut self.zvel],
            &[&self.xvel1, &self.yvel1, &self.zvel1],
            45.0,
            move |_j, _k, out, ins| {
                // The plus3(1) rows: centre, then -x, +x, -y, +y, -z, +z.
                let plus = [
                    (0, 0, 0),
                    (-1, 0, 0),
                    (1, 0, 0),
                    (0, -1, 0),
                    (0, 1, 0),
                    (0, 0, -1),
                    (0, 0, 1),
                ];
                let g = [0, 1, 2].map(|f| plus.map(|(di, dj, dk)| ins.row_off(f, di, dj, dk)));
                let (xo, yo, zo) = out.rows3(0, 1, 2);
                for i in 0..xo.len() {
                    let uvw = [g[0][0][i], g[1][0][i], g[2][0][i]];
                    xo[i] = uvw[0] - dt * upwind3(&g[0], i, uvw, dx);
                    yo[i] = uvw[1] - dt * upwind3(&g[1], i, uvw, dx);
                    zo[i] = uvw[2] - dt * upwind3(&g[2], i, uvw, dx);
                }
            },
        );
    }

    fn reset_field(&mut self, profile: &mut Profile) {
        par_loop3_planes(
            profile,
            "reset_field3",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.density0, &mut self.energy0],
            &[&self.density1, &self.energy1],
            0.0,
            |_j, _k, out, ins| {
                let (d, e) = out.rows2(0, 1);
                d.copy_from_slice(ins.row(0));
                e.copy_from_slice(ins.row(1));
            },
        );
    }

    pub fn cycle(&mut self, profile: &mut Profile) -> f64 {
        self.ideal_gas(profile);
        self.viscosity_kernel(profile);
        self.update_halo(profile);
        let dt = self.calc_dt(profile);
        self.accelerate(profile, dt);
        self.velocity_bcs(profile);
        self.pdv(profile, dt);
        self.flux_calc(profile, dt);
        self.update_halo(profile);
        self.advec_cell(profile, 0);
        self.update_halo(profile);
        self.advec_cell(profile, 1);
        self.update_halo(profile);
        self.advec_cell(profile, 2);
        self.advec_mom(profile, dt);
        self.velocity_bcs(profile);
        self.reset_field(profile);
        dt
    }

    /// (total mass, total internal energy).
    pub fn field_summary(&self, profile: &mut Profile) -> (f64, f64) {
        let vol = self.dx * self.dx * self.dx;
        par_loop3_planes_reduce(
            profile,
            "field_summary3",
            ExecMode::Serial,
            self.cells(),
            &[&self.density0, &self.energy0],
            (0.0f64, 0.0f64),
            4.0,
            move |_j, _k, ins, (mut m, mut ie)| {
                let (rho, e) = (ins.row(0), ins.row(1));
                for i in 0..rho.len() {
                    m += rho[i] * vol;
                    ie += rho[i] * e[i] * vol;
                }
                (m, ie)
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        )
    }

    /// Every dataset of the solver state, in declaration order (for the
    /// golden bit-identity pins).
    #[cfg(test)]
    pub(crate) fn dats(&self) -> [&Dat3<f64>; 18] {
        [
            &self.density0,
            &self.density1,
            &self.energy0,
            &self.energy1,
            &self.pressure,
            &self.viscosity,
            &self.soundspeed,
            &self.work_d,
            &self.work_e,
            &self.xvel,
            &self.yvel,
            &self.zvel,
            &self.xvel1,
            &self.yvel1,
            &self.zvel1,
            &self.vol_flux_x,
            &self.vol_flux_y,
            &self.vol_flux_z,
        ]
    }

    pub fn run(cfg: Config) -> AppRun {
        let mut profile = Profile::new();
        let points = cfg.n.pow(3);
        let iterations = cfg.iterations;
        let mut sim = Clover3::new(cfg);
        let (m0, _) = sim.field_summary(&mut profile);
        for it in 0..iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "hydro_cycle");
            aspan.set_args(it as f64, 0.0, 0.0);
            sim.cycle(&mut profile);
        }
        let (m1, _) = sim.field_summary(&mut profile);
        let validation = ((m1 - m0) / m0).abs();
        AppRun {
            app: AppId::CloverLeaf3D,
            profile,
            validation,
            iterations,
            points,
        }
    }
}

/// Declared access contracts of every DSL loop in this app, for
/// `bwb-dslcheck`. (`update_halo`/`velocity_bcs` are hand-rolled fills, not
/// `par_loop`s, so they carry no contract.) Data-dependent upwind windows
/// are declared at their full width; checked execution only flags reads
/// *outside* a declaration.
/// Declared loop chain for `dslcheck::speccheck`: the ordered loop/swap
/// stream of one [`Clover3::cycle`] plus the single `field_summary3`
/// reduction the registry run appends, symbolic over the cube edge `n`.
/// There are no recorded exchanges (the 3-D app is single-rank; its
/// `update_halo` mirrors are hand loops). Each `advec_cell` direction ends
/// with the density1/energy1 ↔ work double-buffer swap, so three swap
/// pairs per cycle give the chain a period-2 name rotation — exactly the
/// runtime behaviour under `mem::swap`.
pub fn chain_spec() -> bwb_ops::ChainSpec {
    use bwb_ops::{ChainSpec, DatDecl, Expr, Step};
    let c = Expr::c;
    let p = Expr::p;
    let pp = Expr::p_plus;
    let h = HALO as isize;
    let cell = |name: &'static str| DatDecl {
        name,
        halo: h,
        extent: [p("n"), p("n"), p("n")],
        elem_bytes: 8,
    };
    let node = |name: &'static str| DatDecl {
        name,
        halo: h,
        extent: [pp("n", 1), pp("n", 1), pp("n", 1)],
        elem_bytes: 8,
    };
    const D0: usize = 0;
    const D1: usize = 1;
    const E0: usize = 2;
    const E1: usize = 3;
    const PR: usize = 4;
    const VS: usize = 5;
    const SS: usize = 6;
    const WD: usize = 7;
    const WE: usize = 8;
    const XV: usize = 9;
    const YV: usize = 10;
    const ZV: usize = 11;
    const XV1: usize = 12;
    const YV1: usize = 13;
    const ZV1: usize = 14;
    const FX: usize = 15;
    const FY: usize = 16;
    const FZ: usize = 17;
    let dats = vec![
        cell("density0"),
        cell("density1"),
        cell("energy0"),
        cell("energy1"),
        cell("pressure"),
        cell("viscosity"),
        cell("soundspeed"),
        cell("work_d"),
        cell("work_e"),
        node("xvel"),
        node("yvel"),
        node("zvel"),
        node("xvel1"),
        node("yvel1"),
        node("zvel1"),
        DatDecl {
            name: "vol_flux_x",
            halo: h,
            extent: [pp("n", 1), p("n"), p("n")],
            elem_bytes: 8,
        },
        DatDecl {
            name: "vol_flux_y",
            halo: h,
            extent: [p("n"), pp("n", 1), p("n")],
            elem_bytes: 8,
        },
        DatDecl {
            name: "vol_flux_z",
            halo: h,
            extent: [p("n"), p("n"), pp("n", 1)],
            elem_bytes: 8,
        },
    ];
    let cells = || [c(0), p("n"), c(0), p("n"), c(0), p("n")];
    let nodes = || [c(0), pp("n", 1), c(0), pp("n", 1), c(0), pp("n", 1)];
    let lp = |spec: &'static str, range: [Expr; 6], outs: Vec<usize>, ins: Vec<usize>| Step::Loop {
        spec,
        dims: 3,
        range,
        outs,
        ins,
    };
    let mut body = vec![
        lp("ideal_gas3", cells(), vec![PR, SS], vec![D0, E0]),
        lp("viscosity3", cells(), vec![VS], vec![D0, XV, YV, ZV]),
        lp("calc_dt3", cells(), vec![], vec![SS, XV, YV, ZV]),
        lp(
            "accelerate3",
            nodes(),
            vec![XV1, YV1, ZV1],
            vec![D0, PR, VS, XV, YV, ZV],
        ),
        lp(
            "pdv3",
            cells(),
            vec![E1, D1],
            vec![D0, E0, PR, VS, XV1, YV1, ZV1],
        ),
        lp(
            "flux_calc3_x",
            [c(0), pp("n", 1), c(0), p("n"), c(0), p("n")],
            vec![FX],
            vec![XV, XV1],
        ),
        lp(
            "flux_calc3_y",
            [c(0), p("n"), c(0), pp("n", 1), c(0), p("n")],
            vec![FY],
            vec![YV, YV1],
        ),
        lp(
            "flux_calc3_z",
            [c(0), p("n"), c(0), p("n"), c(0), pp("n", 1)],
            vec![FZ],
            vec![ZV, ZV1],
        ),
    ];
    for (spec, flux) in [
        ("advec_cell3_x", FX),
        ("advec_cell3_y", FY),
        ("advec_cell3_z", FZ),
    ] {
        body.push(lp(spec, cells(), vec![WD, WE], vec![D1, E1, flux]));
        body.push(Step::Swap { a: D1, b: WD });
        body.push(Step::Swap { a: E1, b: WE });
    }
    body.push(lp(
        "advec_mom3",
        nodes(),
        vec![XV, YV, ZV],
        vec![XV1, YV1, ZV1],
    ));
    body.push(lp("reset_field3", cells(), vec![D0, E0], vec![D1, E1]));
    ChainSpec {
        app: "cloverleaf3d",
        params: vec!["n"],
        dats,
        prologue: Vec::new(),
        body,
        epilogue: vec![lp("field_summary3", cells(), vec![], vec![D0, E0])],
    }
}

pub fn loop_specs() -> Vec<bwb_ops::LoopSpec> {
    use bwb_ops::{ArgSpec as A, LoopSpec as L, Stencil as S};
    // Node quantity sampled at the 8 corners of a cell: {0,1}³.
    let corners = || {
        let mut v = Vec::new();
        for dk in 0..=1isize {
            for dj in 0..=1isize {
                for di in 0..=1isize {
                    v.push((di, dj, dk));
                }
            }
        }
        S::of3(&v)
    };
    // Cell quantity sampled at the 8 cells around a node: {-1,0}³.
    let nodal = || {
        let mut v = Vec::new();
        for dk in -1..=0isize {
            for dj in -1..=0isize {
                for di in -1..=0isize {
                    v.push((di, dj, dk));
                }
            }
        }
        S::of3(&v)
    };
    // 4 face nodes of the face normal to `dir` at layer 0: offsets with the
    // `dir` component fixed to 0 and the other two in {0,1}.
    let face4 = |dir: usize| {
        let mut v = Vec::new();
        for b in 0..=1isize {
            for a in 0..=1isize {
                let mut o = [0isize; 3];
                let others: [usize; 2] = match dir {
                    0 => [1, 2],
                    1 => [0, 2],
                    _ => [0, 1],
                };
                o[others[0]] = a;
                o[others[1]] = b;
                v.push((o[0], o[1], o[2]));
            }
        }
        S::of3(&v)
    };
    // Donor-cell window along `dir`: {-1, 0, 1}.
    let upwind3 = |dir: usize| {
        let mut v = Vec::new();
        for d in -1..=1isize {
            let mut o = [0isize; 3];
            o[dir] = d;
            v.push((o[0], o[1], o[2]));
        }
        S::of3(&v)
    };
    // Flux faces along `dir`: {0, 1}.
    let faces2 = |dir: usize| {
        let mut v = Vec::new();
        for d in 0..=1isize {
            let mut o = [0isize; 3];
            o[dir] = d;
            v.push((o[0], o[1], o[2]));
        }
        S::of3(&v)
    };
    let advec_cell = |dir: usize| {
        let name = match dir {
            0 => "advec_cell3_x",
            1 => "advec_cell3_y",
            _ => "advec_cell3_z",
        };
        let flux = match dir {
            0 => "vol_flux_x",
            1 => "vol_flux_y",
            _ => "vol_flux_z",
        };
        L::new(
            name,
            vec![A::write("work_d"), A::write("work_e")],
            vec![
                A::read("density1", upwind3(dir)),
                A::read("energy1", upwind3(dir)),
                A::read(flux, faces2(dir)),
            ],
        )
    };
    let flux_calc = |dir: usize| {
        let (name, flux, vel0, vel1) = match dir {
            0 => ("flux_calc3_x", "vol_flux_x", "xvel", "xvel1"),
            1 => ("flux_calc3_y", "vol_flux_y", "yvel", "yvel1"),
            _ => ("flux_calc3_z", "vol_flux_z", "zvel", "zvel1"),
        };
        L::new(
            name,
            vec![A::write(flux)],
            vec![A::read(vel0, face4(dir)), A::read(vel1, face4(dir))],
        )
    };
    vec![
        L::new(
            "ideal_gas3",
            vec![A::write("pressure"), A::write("soundspeed")],
            vec![
                A::read("density0", S::point()),
                A::read("energy0", S::point()),
            ],
        ),
        L::new(
            "viscosity3",
            vec![A::write("viscosity")],
            vec![
                A::read("density0", S::point()),
                A::read("xvel", corners()),
                A::read("yvel", corners()),
                A::read("zvel", corners()),
            ],
        ),
        L::new(
            "calc_dt3",
            vec![],
            vec![
                A::read("soundspeed", S::point()),
                A::read("xvel", S::point()),
                A::read("yvel", S::point()),
                A::read("zvel", S::point()),
            ],
        ),
        L::new(
            "accelerate3",
            vec![A::write("xvel1"), A::write("yvel1"), A::write("zvel1")],
            vec![
                A::read("density0", nodal()),
                A::read("pressure", nodal()),
                A::read("viscosity", nodal()),
                A::read("xvel", S::point()),
                A::read("yvel", S::point()),
                A::read("zvel", S::point()),
            ],
        ),
        L::new(
            "pdv3",
            vec![A::write("energy1"), A::write("density1")],
            vec![
                A::read("density0", S::point()),
                A::read("energy0", S::point()),
                A::read("pressure", S::point()),
                A::read("viscosity", S::point()),
                A::read("xvel1", corners()),
                A::read("yvel1", corners()),
                A::read("zvel1", corners()),
            ],
        ),
        flux_calc(0),
        flux_calc(1),
        flux_calc(2),
        advec_cell(0),
        advec_cell(1),
        advec_cell(2),
        L::new(
            "advec_mom3",
            vec![A::write("xvel"), A::write("yvel"), A::write("zvel")],
            vec![
                A::read("xvel1", S::plus3(1)),
                A::read("yvel1", S::plus3(1)),
                A::read("zvel1", S::plus3(1)),
            ],
        ),
        L::new(
            "reset_field3",
            vec![A::write("density0"), A::write("energy0")],
            vec![
                A::read("density1", S::point()),
                A::read("energy1", S::point()),
            ],
        ),
        L::new(
            "field_summary3",
            vec![],
            vec![
                A::read("density0", S::point()),
                A::read("energy0", S::point()),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mirrors `update_halo` applies, one point at a time in the
    /// original x → y → z, layer-1-before-layer-2 order.
    fn mirror_per_point(f: &mut Dat3<f64>, n: isize) {
        let h = HALO as isize;
        for k in 0..n {
            for j in 0..n {
                for hh in 1..=h {
                    f.set(-hh, j, k, f.get(hh - 1, j, k));
                    f.set(n - 1 + hh, j, k, f.get(n - hh, j, k));
                }
            }
        }
        for k in 0..n {
            for i in -h..n + h {
                for hh in 1..=h {
                    f.set(i, -hh, k, f.get(i, hh - 1, k));
                    f.set(i, n - 1 + hh, k, f.get(i, n - hh, k));
                }
            }
        }
        for j in -h..n + h {
            for i in -h..n + h {
                for hh in 1..=h {
                    f.set(i, j, -hh, f.get(i, j, hh - 1));
                    f.set(i, j, n - 1 + hh, f.get(i, j, n - hh));
                }
            }
        }
    }

    #[test]
    fn update_halo_matches_per_point_mirrors() {
        // n = 1 < HALO makes the second mirror layer read the first.
        for n in [1usize, 2, 5] {
            let mut sim = Clover3::new(Config {
                n,
                ..Config::default()
            });
            let len = sim.density0.raw().len();
            let fields = [
                &mut sim.density0,
                &mut sim.energy0,
                &mut sim.pressure,
                &mut sim.viscosity,
                &mut sim.density1,
                &mut sim.energy1,
            ];
            let mut want = Vec::new();
            for (f, d) in fields.into_iter().enumerate() {
                for (x, v) in d.raw_mut().iter_mut().enumerate() {
                    *v = (f * len + x) as f64;
                }
                let mut r = d.clone();
                mirror_per_point(&mut r, n as isize);
                want.push(r.raw().to_vec());
            }
            let mut profile = Profile::new();
            sim.update_halo(&mut profile);
            let got = [
                &sim.density0,
                &sim.energy0,
                &sim.pressure,
                &sim.viscosity,
                &sim.density1,
                &sim.energy1,
            ];
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.raw(), &w[..], "n={n} field {}", g.name());
            }
        }
    }

    #[test]
    fn mass_exactly_conserved() {
        let run = Clover3::run(Config {
            n: 12,
            iterations: 15,
            ..Config::default()
        });
        assert!(run.validation < 1e-12, "mass drift {}", run.validation);
    }

    #[test]
    fn fields_stay_positive_and_finite() {
        let cfg = Config {
            n: 10,
            iterations: 12,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover3::new(cfg);
        for _ in 0..12 {
            sim.cycle(&mut profile);
        }
        for k in 0..10 {
            for j in 0..10 {
                for i in 0..10 {
                    let rho = sim.density0.get(i, j, k);
                    assert!(rho > 0.0 && rho.is_finite(), "({i},{j},{k}) ρ={rho}");
                }
            }
        }
    }

    #[test]
    fn permutation_symmetry_preserved() {
        // The initial state is invariant under any permutation of the axes;
        // the dynamics must keep it so.
        let cfg = Config {
            n: 10,
            iterations: 6,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover3::new(cfg);
        for _ in 0..6 {
            sim.cycle(&mut profile);
        }
        for k in 0..10isize {
            for j in 0..10isize {
                for i in 0..10isize {
                    let a = sim.density0.get(i, j, k);
                    let b = sim.density0.get(j, k, i);
                    // Directional splitting (x→y→z sweeps) breaks exact
                    // permutation symmetry at O(dt²); the asymmetry must
                    // stay small relative to the O(1) density field.
                    assert!((a - b).abs() < 5e-2, "asymmetry ({i},{j},{k}): {a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn serial_equals_rayon() {
        let base = Config {
            n: 8,
            iterations: 4,
            ..Config::default()
        };
        let a = Clover3::run(Config {
            mode: ExecMode::Serial,
            ..base.clone()
        });
        let b = Clover3::run(Config {
            mode: ExecMode::Rayon,
            ..base
        });
        assert_eq!(a.validation, b.validation);
    }

    #[test]
    fn three_sweeps_in_profile() {
        let run = Clover3::run(Config {
            n: 8,
            iterations: 2,
            ..Config::default()
        });
        for k in [
            "advec_cell3_x",
            "advec_cell3_y",
            "advec_cell3_z",
            "accelerate3",
            "pdv3",
        ] {
            assert!(run.profile.get(k).is_some(), "missing {k}");
        }
    }

    #[test]
    fn energy_bounded() {
        let cfg = Config {
            n: 10,
            iterations: 20,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover3::new(cfg);
        let (_, e0) = sim.field_summary(&mut profile);
        for _ in 0..20 {
            sim.cycle(&mut profile);
        }
        let (_, e1) = sim.field_summary(&mut profile);
        // Internal energy may convert to kinetic; it must stay positive and
        // not blow up.
        assert!(e1 > 0.0 && e1 < 2.0 * e0, "internal energy {e0} -> {e1}");
    }
}
