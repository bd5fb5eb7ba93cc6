//! CloverLeaf 2D — structured-mesh Eulerian hydrodynamics (paper §3, app 2).
//!
//! A compact re-implementation of the CloverLeaf algorithm: compressible
//! Euler equations on a staggered Cartesian grid (cell-centred density,
//! energy, pressure; node-centred velocities), solved with an explicit
//! Lagrangian step (ideal-gas EOS, artificial viscosity, PdV work, nodal
//! acceleration) followed by directional-split first-order donor-cell
//! advective remap — the same kernel structure (ideal_gas, viscosity,
//! calc_dt, accelerate, pdv, flux_calc, advec_cell x/y, advec_mom x/y,
//! update_halo, reset) and data-access patterns as the original, with
//! van-Leer limiting simplified to donor-cell (documented substitution:
//! first-order advection preserves the bandwidth-bound character — the
//! paper's concern — while keeping the remap exactly conservative).
//!
//! Closed reflective box; validation: exact mass conservation, bounded
//! total energy, preserved mirror symmetry.
//!
//! Double precision; paper size 7680², 50 iterations (here scaled down by
//! default, `Config::paper()` gives the full size).

use crate::{AppId, AppRun};
use bwb_ops::{
    fused2_rows, par_loop2_rows, par_loop2_rows_reduce, recording_active, Dat2, DistBlock2,
    ExecMode, FusedLoop2, OptPlan, Profile, Range2, RowIn2, RowOut2,
};
use bwb_shmpi::{Comm, ReduceOp};
use std::time::Instant;

pub const GAMMA: f64 = 1.4;
/// Halo depth (CloverLeaf uses 2).
pub const HALO: usize = 2;

/// Advective remap scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Advection {
    /// First-order upwind (exactly conservative, diffusive).
    DonorCell,
    /// Second-order van Leer-limited reconstruction — CloverLeaf's actual
    /// scheme: still exactly conservative, much sharper fronts.
    VanLeer,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub nx: usize,
    pub ny: usize,
    pub iterations: usize,
    /// CFL safety factor.
    pub cfl: f64,
    pub mode: ExecMode,
    pub advection: Advection,
    /// Optimization plan from `dslcheck` certificates. `None` (or an empty
    /// plan) runs the baseline schedule; a plan enables exactly the
    /// transforms it certifies — fused `ideal_gas`+`viscosity` traversal
    /// and elision of always-redundant halo-exchange sites — all of which
    /// are bit-identical to the baseline by construction.
    pub plan: Option<OptPlan>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            nx: 48,
            ny: 48,
            iterations: 20,
            cfl: 0.5,
            mode: ExecMode::Serial,
            advection: Advection::DonorCell,
            plan: None,
        }
    }
}

impl Config {
    /// Paper testcase: 7680², 50 iterations, van Leer advection.
    pub fn paper() -> Self {
        Config {
            nx: 7680,
            ny: 7680,
            iterations: 50,
            cfl: 0.5,
            mode: ExecMode::Rayon,
            advection: Advection::VanLeer,
            plan: None,
        }
    }
}

/// Van Leer flux limiter φ(r) = (r + |r|) / (1 + |r|).
#[inline]
fn van_leer(r: f64) -> f64 {
    if r.is_finite() {
        (r + r.abs()) / (1.0 + r.abs())
    } else {
        2.0 // monotone upstream: Δ downstream is 0 ⇒ limited slope is 0 anyway
    }
}

/// Offsets of the advective remap's upwind window along the sweep axis:
/// row `o + 2` of a window is the field at offset `o`.
const WINDOW5: [isize; 5] = [-2, -1, 0, 1, 2];

/// FLOPs per point of one `advec_cell` sweep.
fn advec_cell_flops(scheme: Advection) -> f64 {
    if scheme == Advection::VanLeer {
        38.0
    } else {
        18.0
    }
}

// The per-point helpers below are `#[inline(always)]` plain functions,
// not closures: they run once per point inside the row loops, where an
// out-of-line call costs more than the arithmetic.

/// The conservative remap of one row along the sweep axis, shared by the
/// X and Y sweeps: `d`/`e` are the density1/energy1 [`WINDOW5`] rows,
/// `flux` the volume-flux rows of the cells' low and high faces, `wd`/`we`
/// the new density and energy rows. The scheme is matched once per row so
/// each loop compiles for a constant scheme.
fn advec_cell_row(
    d: &[&[f64]; 5],
    e: &[&[f64]; 5],
    flux: &[&[f64]; 2],
    wd: &mut [f64],
    we: &mut [f64],
    vol: f64,
    scheme: Advection,
) {
    match scheme {
        Advection::DonorCell => {
            for i in 0..wd.len() {
                (wd[i], we[i]) = advec_cell_point(d, e, flux, i, vol, Advection::DonorCell);
            }
        }
        Advection::VanLeer => {
            for i in 0..wd.len() {
                (wd[i], we[i]) = advec_cell_point(d, e, flux, i, vol, Advection::VanLeer);
            }
        }
    }
}

/// Cell `i` of [`advec_cell_row`]: returns its new (density, energy).
#[inline(always)]
fn advec_cell_point(
    d: &[&[f64]; 5],
    e: &[&[f64]; 5],
    flux: &[&[f64]; 2],
    i: usize,
    vol: f64,
    scheme: Advection,
) -> (f64, f64) {
    // Face 0 (low side of the cell): flux from the low neighbour in when > 0.
    let fv = flux[0][i];
    let m_in = fv * face_val(d, i, 0, fv, vol, scheme);
    let e_in = m_in * face_val(e, i, 0, fv, vol, scheme);
    let fv = flux[1][i];
    let m_out = fv * face_val(d, i, 1, fv, vol, scheme);
    let e_out = m_out * face_val(e, i, 1, fv, vol, scheme);
    let rho = d[2][i];
    let en = e[2][i];
    let mass = rho * vol + m_in - m_out;
    let energy_mass = rho * en * vol + e_in - e_out;
    (mass / vol, energy_mass / mass.max(1e-300))
}

/// Value at `face` (0 = low, 1 = high) of cell `i` of the [`WINDOW5`]
/// rows `w` for face volume flux `fv`: the donor cell's value, van
/// Leer-limited toward the face when the scheme asks for it.
#[inline(always)]
fn face_val(w: &[&[f64]; 5], i: usize, face: isize, fv: f64, vol: f64, scheme: Advection) -> f64 {
    let (donor, toward) = if fv > 0.0 { (face - 1, 1) } else { (face, -1) };
    let at = |o: isize| w[(o + 2) as usize][i];
    let dv = at(donor);
    if scheme == Advection::DonorCell {
        return dv;
    }
    let down = at(donor + toward);
    let up = at(donor - toward);
    let dd = down - dv;
    if dd == 0.0 {
        return dv;
    }
    let r = (dv - up) / dd;
    let sigma = (fv / vol).abs().min(1.0);
    dv + 0.5 * van_leer(r) * (1.0 - sigma) * dd
}

/// Upwind advection term `u·∂g/∂x + v·∂g/∂y` of node `i` for the
/// velocity component whose plus2(1) rows are `g` (centre, west, east,
/// south, north).
#[inline(always)]
fn upwind2(g: &[&[f64]; 5], i: usize, u: f64, v: f64, dx: f64, dy: f64) -> f64 {
    let ddx = if u > 0.0 {
        g[0][i] - g[1][i]
    } else {
        g[2][i] - g[0][i]
    } / dx;
    let ddy = if v > 0.0 {
        g[0][i] - g[3][i]
    } else {
        g[4][i] - g[0][i]
    } / dy;
    u * ddx + v * ddy
}

/// The solver state (one rank's sub-block when distributed).
pub struct Clover2 {
    cfg: Config,
    /// Local cell counts.
    nx: usize,
    ny: usize,
    dx: f64,
    dy: f64,
    dist: Option<DistBlock2>,
    // Cell-centred:
    density0: Dat2<f64>,
    density1: Dat2<f64>,
    energy0: Dat2<f64>,
    energy1: Dat2<f64>,
    pressure: Dat2<f64>,
    viscosity: Dat2<f64>,
    soundspeed: Dat2<f64>,
    work_d: Dat2<f64>,
    work_e: Dat2<f64>,
    // Node-centred ((nx+1)×(ny+1)):
    xvel0: Dat2<f64>,
    xvel1: Dat2<f64>,
    yvel0: Dat2<f64>,
    yvel1: Dat2<f64>,
    work_u: Dat2<f64>,
    work_v: Dat2<f64>,
    // Face-centred volume fluxes:
    vol_flux_x: Dat2<f64>,
    vol_flux_y: Dat2<f64>,
}

impl Clover2 {
    /// Single-rank setup of the standard CloverLeaf-like test state:
    /// ambient (ρ=0.2, e=1.0) with an energetic dense square in the lower
    /// left quadrant (ρ=1.0, e=2.5).
    pub fn new(cfg: Config) -> Self {
        Self::build(cfg, None, [0, 0], None)
    }

    /// Distributed setup: each rank owns a sub-block of the global grid.
    pub fn new_distributed(comm: &Comm, cfg: Config) -> Self {
        let block = DistBlock2::new(comm, cfg.nx, cfg.ny);
        let start = block.start();
        Self::build(cfg, Some((block.nx(), block.ny())), start, Some(block))
    }

    fn build(
        cfg: Config,
        local: Option<(usize, usize)>,
        start: [usize; 2],
        dist: Option<DistBlock2>,
    ) -> Self {
        let (nx, ny) = local.unwrap_or((cfg.nx, cfg.ny));
        let dx = 10.0 / cfg.nx as f64;
        let dy = 10.0 / cfg.ny as f64;
        let cell = |n: &str| Dat2::<f64>::new(n, nx, ny, HALO);
        let node = |n: &str| Dat2::<f64>::new(n, nx + 1, ny + 1, HALO);
        let mut density0 = cell("density0");
        let mut energy0 = cell("energy0");

        // Global-coordinate initial state.
        let gnx = cfg.nx;
        let gny = cfg.ny;
        density0.init_with(|i, j| {
            let gi = start[0] as isize + i;
            let gj = start[1] as isize + j;
            if gi < gnx as isize / 2 && gj < gny as isize / 2 {
                1.0
            } else {
                0.2
            }
        });
        energy0.init_with(|i, j| {
            let gi = start[0] as isize + i;
            let gj = start[1] as isize + j;
            if gi < gnx as isize / 2 && gj < gny as isize / 2 {
                2.5
            } else {
                1.0
            }
        });

        Clover2 {
            nx,
            ny,
            dx,
            dy,
            dist,
            density1: cell("density1"),
            energy1: cell("energy1"),
            pressure: cell("pressure"),
            viscosity: cell("viscosity"),
            soundspeed: cell("soundspeed"),
            work_d: cell("work_d"),
            work_e: cell("work_e"),
            xvel0: node("xvel0"),
            xvel1: node("xvel1"),
            yvel0: node("yvel0"),
            yvel1: node("yvel1"),
            work_u: node("work_u"),
            work_v: node("work_v"),
            vol_flux_x: Dat2::new("vol_flux_x", nx + 1, ny, HALO),
            vol_flux_y: Dat2::new("vol_flux_y", nx, ny + 1, HALO),
            density0,
            energy0,
            cfg,
        }
    }

    fn cells(&self) -> Range2 {
        Range2::interior(self.nx, self.ny)
    }

    fn nodes(&self) -> Range2 {
        Range2::interior(self.nx + 1, self.ny + 1)
    }

    /// Reflective physical boundaries + inter-rank halo exchange for the
    /// cell fields needed by the stencil kernels. The small per-face mirror
    /// loops are CloverLeaf's "update_halo" boundary kernels — the many
    /// small kernels the paper blames for SYCL's launch-overhead penalty.
    ///
    /// Structured per field — mirror-x, exchange-x, mirror-y, exchange-y —
    /// so the two exchange dimensions of one field form a single recorded
    /// exchange at the labelled `site`. Fields are independent, so this
    /// ordering is bit-identical to the phase-x-then-phase-y sweep it
    /// replaces. When `cfg.plan` carries an [`bwb_ops::ElisionCert`] for
    /// `(site, field)`, both exchange passes are skipped (mirrors are
    /// recomputation of unchanged values and still run); a debug build
    /// asserts the elided field's interior boundary strips are unchanged
    /// since its last real exchange.
    fn update_halo_cells(
        &mut self,
        profile: &mut Profile,
        mut comm: Option<&mut Comm>,
        site: &str,
    ) {
        let nx = self.nx as isize;
        let ny = self.ny as isize;
        let h = HALO as isize;
        let (low_x, high_x, low_y, high_y) = match &self.dist {
            None => (true, true, true, true),
            Some(b) => (
                b.at_low_boundary(0),
                b.at_high_boundary(0),
                b.at_low_boundary(1),
                b.at_high_boundary(1),
            ),
        };
        let block = self.dist.clone();
        let plan = if recording_active() {
            None
        } else {
            self.cfg.plan.as_ref()
        };
        let mut points = 0usize;
        let t0 = Instant::now();
        let mut comm_seconds = 0.0;

        for f in [
            &mut self.density0,
            &mut self.energy0,
            &mut self.pressure,
            &mut self.viscosity,
            &mut self.density1,
            &mut self.energy1,
        ] {
            // Mirror X: physical-boundary ghosts over interior rows.
            if low_x {
                for j in 0..ny {
                    for hh in 1..=h {
                        f.set(-hh, j, f.get(hh - 1, j));
                        points += 1;
                    }
                }
            }
            if high_x {
                for j in 0..ny {
                    for hh in 1..=h {
                        f.set(nx - 1 + hh, j, f.get(nx - hh, j));
                        points += 1;
                    }
                }
            }
            let elide = plan.is_some_and(|p| p.elides(site, f.name()));
            if let (Some(b), Some(c)) = (&block, comm.as_deref_mut()) {
                if !elide {
                    let tc = Instant::now();
                    b.exchange_halo_dim_site(c, f, HALO, 0, site);
                    comm_seconds += tc.elapsed().as_secs_f64();
                }
            }
            // Mirror Y: over x-extended rows (reads the x ghosts above).
            if low_y {
                for i in -h..nx + h {
                    for hh in 1..=h {
                        f.set(i, -hh, f.get(i, hh - 1));
                        points += 1;
                    }
                }
            }
            if high_y {
                for i in -h..nx + h {
                    for hh in 1..=h {
                        f.set(i, ny - 1 + hh, f.get(i, ny - hh));
                        points += 1;
                    }
                }
            }
            if let (Some(b), Some(c)) = (&block, comm.as_deref_mut()) {
                if elide {
                    b.elide_halo(f, HALO, site);
                    let _ = c;
                } else {
                    let tc = Instant::now();
                    b.exchange_halo_dim_site(c, f, HALO, 1, site);
                    comm_seconds += tc.elapsed().as_secs_f64();
                }
            }
        }
        let total = t0.elapsed().as_secs_f64();
        // Record per field (6 boundary-kernel launches), mirroring how OPS
        // launches one small update_halo kernel per field — the granularity
        // the SYCL launch-overhead analysis (paper §5.1) depends on.
        let per = (points / 6).max(1);
        for _ in 0..6 {
            profile.record(
                "update_halo",
                per,
                per * 16,
                0.0,
                (total - comm_seconds) / 6.0,
            );
        }
    }

    /// Reflective node-velocity boundary: zero normal velocity on walls.
    fn apply_velocity_bcs(&mut self, profile: &mut Profile) {
        let t0 = Instant::now();
        let nnx = self.nx as isize; // last node index
        let nny = self.ny as isize;
        let (low_x, high_x, low_y, high_y) = match &self.dist {
            None => (true, true, true, true),
            Some(b) => (
                b.at_low_boundary(0),
                b.at_high_boundary(0),
                b.at_low_boundary(1),
                b.at_high_boundary(1),
            ),
        };
        let mut points = 0usize;
        for v in [&mut self.xvel0, &mut self.xvel1] {
            if low_x {
                for j in 0..=nny {
                    v.set(0, j, 0.0);
                    points += 1;
                }
            }
            if high_x {
                for j in 0..=nny {
                    v.set(nnx, j, 0.0);
                    points += 1;
                }
            }
        }
        for v in [&mut self.yvel0, &mut self.yvel1] {
            if low_y {
                for i in 0..=nnx {
                    v.set(i, 0, 0.0);
                    points += 1;
                }
            }
            if high_y {
                for i in 0..=nnx {
                    v.set(i, nny, 0.0);
                    points += 1;
                }
            }
        }
        profile.record(
            "update_halo_vel",
            points,
            points * 8,
            0.0,
            t0.elapsed().as_secs_f64(),
        );
    }

    /// Exchange node-velocity halos between ranks. Exchanges the plan
    /// certifies redundant at this `site` are elided (buffer names travel
    /// with the velocity double-buffer swap, so the certificate's dat name
    /// matches whatever buffer currently sits in each slot).
    fn exchange_velocities(&mut self, comm: Option<&mut Comm>, site: &str) {
        if let (Some(block), Some(comm)) = (self.dist.clone(), comm) {
            let plan = if recording_active() {
                None
            } else {
                self.cfg.plan.as_ref()
            };
            // Node fields are (nx+1)×(ny+1); the shared interface column is
            // duplicated on both ranks, so a depth-1 exchange keeps ghosts
            // consistent; interface nodes are computed identically on both
            // sides from the same (exchanged) cell data.
            for f in [
                &mut self.xvel0,
                &mut self.yvel0,
                &mut self.xvel1,
                &mut self.yvel1,
            ] {
                if plan.is_some_and(|p| p.elides(site, f.name())) {
                    block.elide_node_halo(f, 1, site);
                } else {
                    block.exchange_node_halo_site(comm, f, 1, site);
                }
            }
        }
    }

    /// EOS: p = (γ−1)ρe, ss = √(γp/ρ). Slice fast path: pointwise over
    /// contiguous rows, so the compiler autovectorizes the EOS arithmetic.
    fn ideal_gas(&mut self, profile: &mut Profile) {
        par_loop2_rows(
            profile,
            "ideal_gas",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.pressure, &mut self.soundspeed],
            &[&self.density0, &self.energy0],
            5.0,
            |_j, out, ins| ideal_gas_body(out, ins),
        );
    }

    /// Artificial (quadratic) viscosity on compressing cells.
    fn viscosity_kernel(&mut self, profile: &mut Profile) {
        let (dx, dy) = (self.dx, self.dy);
        par_loop2_rows(
            profile,
            "viscosity",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.viscosity],
            &[&self.density0, &self.xvel0, &self.yvel0],
            12.0,
            move |_j, out, ins| viscosity_body(dx, dy, out, ins),
        );
    }

    /// Plan-guided fused `ideal_gas`+`viscosity`: both kernel bodies over
    /// one pass of each row. Legal because nothing `viscosity` reads is
    /// written by `ideal_gas` (the certificate's radius-0 all-pairs check);
    /// bit-identical because the bodies are the very same functions the
    /// sequential path runs.
    fn ideal_gas_viscosity_fused(&mut self, profile: &mut Profile, plan: &OptPlan) {
        let (dx, dy) = (self.dx, self.dy);
        // Store: mut [pressure, soundspeed, viscosity], ro [density0,
        // energy0, xvel0, yvel0] → global field indices 3..=6.
        let loops = [
            FusedLoop2::new("ideal_gas", &[0, 1], &[3, 4], 5.0, |_j, out, ins| {
                ideal_gas_body(out, ins)
            }),
            FusedLoop2::new("viscosity", &[2], &[3, 5, 6], 12.0, move |_j, out, ins| {
                viscosity_body(dx, dy, out, ins)
            }),
        ];
        fused2_rows(
            profile,
            self.cfg.mode,
            self.cells(),
            &mut [
                &mut self.pressure,
                &mut self.soundspeed,
                &mut self.viscosity,
            ],
            &[&self.density0, &self.energy0, &self.xvel0, &self.yvel0],
            &loops,
            plan,
        )
        .expect("certified fusion rejected at runtime");
    }

    /// CFL time step (local min; allreduced when distributed).
    fn calc_dt(&mut self, profile: &mut Profile, comm: Option<&mut Comm>) -> f64 {
        let (dx, dy, cfl) = (self.dx, self.dy, self.cfg.cfl);
        let local = par_loop2_rows_reduce(
            profile,
            "calc_dt",
            self.cfg.mode,
            self.cells(),
            &[&self.soundspeed, &self.xvel0, &self.yvel0],
            f64::INFINITY,
            8.0,
            move |_j, ins, mut acc| {
                let ss = ins.row(0);
                let (u00, u11) = (ins.row(1), ins.row_off(1, 1, 1));
                let (v00, v11) = (ins.row(2), ins.row_off(2, 1, 1));
                for i in 0..ss.len() {
                    let u = u00[i].abs().max(u11[i].abs());
                    let v = v00[i].abs().max(v11[i].abs());
                    let dt = cfl * (dx / (ss[i] + u + 1e-12)).min(dy / (ss[i] + v + 1e-12));
                    acc = f64::min(acc, dt);
                }
                acc
            },
            f64::min,
        );
        match comm {
            Some(c) => c.allreduce_scalar(local, ReduceOp::Min),
            None => local,
        }
    }

    /// Nodal acceleration from pressure + viscosity gradients.
    fn accelerate(&mut self, profile: &mut Profile, dt: f64) {
        let (dx, dy) = (self.dx, self.dy);
        let vol = dx * dy;
        par_loop2_rows(
            profile,
            "accelerate",
            self.cfg.mode,
            self.nodes(),
            &mut [&mut self.xvel1, &mut self.yvel1],
            &[
                &self.density0,
                &self.pressure,
                &self.viscosity,
                &self.xvel0,
                &self.yvel0,
            ],
            25.0,
            move |_j, out, ins| {
                // Node (i,j) neighbours cells (i-1..i)×(j-1..j).
                let d_mm = ins.row_off(0, -1, -1);
                let d_0m = ins.row_off(0, 0, -1);
                let d_00 = ins.row_off(0, 0, 0);
                let d_m0 = ins.row_off(0, -1, 0);
                let p_mm = ins.row_off(1, -1, -1);
                let p_0m = ins.row_off(1, 0, -1);
                let p_00 = ins.row_off(1, 0, 0);
                let p_m0 = ins.row_off(1, -1, 0);
                let q_mm = ins.row_off(2, -1, -1);
                let q_0m = ins.row_off(2, 0, -1);
                let q_00 = ins.row_off(2, 0, 0);
                let q_m0 = ins.row_off(2, -1, 0);
                let u0 = ins.row(3);
                let v0 = ins.row(4);
                let (u1, v1) = out.rows2(0, 1);
                for i in 0..u1.len() {
                    let nodal_mass = 0.25 * vol * (d_mm[i] + d_0m[i] + d_00[i] + d_m0[i]);
                    let stepbymass = 0.5 * dt / nodal_mass;
                    let pq_00 = p_00[i] + q_00[i];
                    let pq_0m = p_0m[i] + q_0m[i];
                    let pq_m0 = p_m0[i] + q_m0[i];
                    let pq_mm = p_mm[i] + q_mm[i];
                    let dpx = (pq_00 + pq_0m) - (pq_m0 + pq_mm);
                    let dpy = (pq_00 + pq_m0) - (pq_0m + pq_mm);
                    u1[i] = u0[i] - stepbymass * dpx * dy;
                    v1[i] = v0[i] - stepbymass * dpy * dx;
                }
            },
        );
    }

    /// PdV work: internal-energy update from the velocity divergence.
    /// (Density is updated exclusively by the conservative remap.)
    fn pdv(&mut self, profile: &mut Profile, dt: f64) {
        let (dx, dy) = (self.dx, self.dy);
        par_loop2_rows(
            profile,
            "pdv",
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
            ],
            20.0,
            move |_j, out, ins| {
                let rho = ins.row(0);
                let e = ins.row(1);
                let p = ins.row(2);
                let q = ins.row(3);
                let u00 = ins.row_off(4, 0, 0);
                let u10 = ins.row_off(4, 1, 0);
                let u01 = ins.row_off(4, 0, 1);
                let u11 = ins.row_off(4, 1, 1);
                let v00 = ins.row_off(5, 0, 0);
                let v10 = ins.row_off(5, 1, 0);
                let v01 = ins.row_off(5, 0, 1);
                let v11 = ins.row_off(5, 1, 1);
                let (e1, d1) = out.rows2(0, 1);
                for i in 0..e1.len() {
                    let ugrad = 0.5 * ((u10[i] + u11[i]) - (u00[i] + u01[i]));
                    let vgrad = 0.5 * ((v01[i] + v11[i]) - (v00[i] + v10[i]));
                    let div = ugrad / dx + vgrad / dy;
                    let pq = p[i] + q[i];
                    e1[i] = (e[i] - dt * pq * div / rho[i]).max(1e-10);
                    d1[i] = rho[i];
                }
            },
        );
    }

    /// Face volume fluxes from the time-centred node velocities.
    fn flux_calc(&mut self, profile: &mut Profile, dt: f64) {
        let (dx, dy, nx, ny) = (self.dx, self.dy, self.nx, self.ny);
        let mode = self.cfg.mode;
        par_loop2_rows(
            profile,
            "flux_calc_x",
            mode,
            Range2::new(0, nx as isize + 1, 0, ny as isize),
            &mut [&mut self.vol_flux_x],
            &[&self.xvel0, &self.xvel1],
            5.0,
            move |_j, out, ins| {
                let u0 = ins.row_off(0, 0, 0);
                let u0j = ins.row_off(0, 0, 1);
                let u1 = ins.row_off(1, 0, 0);
                let u1j = ins.row_off(1, 0, 1);
                let fx = out.row(0);
                for i in 0..fx.len() {
                    let u = 0.25 * (u0[i] + u0j[i] + u1[i] + u1j[i]);
                    fx[i] = u * dt * dy;
                }
            },
        );
        par_loop2_rows(
            profile,
            "flux_calc_y",
            mode,
            Range2::new(0, nx as isize, 0, ny as isize + 1),
            &mut [&mut self.vol_flux_y],
            &[&self.yvel0, &self.yvel1],
            5.0,
            move |_j, out, ins| {
                let v0 = ins.row_off(0, 0, 0);
                let v0i = ins.row_off(0, 1, 0);
                let v1 = ins.row_off(1, 0, 0);
                let v1i = ins.row_off(1, 1, 0);
                let fy = out.row(0);
                for i in 0..fy.len() {
                    let v = 0.25 * (v0[i] + v0i[i] + v1[i] + v1i[i]);
                    fy[i] = v * dt * dx;
                }
            },
        );
    }

    /// Conservative remap, X sweep (donor-cell or van Leer per the
    /// config). Reads density1/energy1 + vol_flux_x, writes work arrays
    /// (swapped back by the caller).
    fn advec_cell_x(&mut self, profile: &mut Profile) {
        let vol = self.dx * self.dy;
        let scheme = self.cfg.advection;
        par_loop2_rows(
            profile,
            "advec_cell_x",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.work_d, &mut self.work_e],
            &[&self.density1, &self.energy1, &self.vol_flux_x],
            advec_cell_flops(scheme),
            move |_j, out, ins| {
                let d = WINDOW5.map(|o| ins.row_off(0, o, 0));
                let e = WINDOW5.map(|o| ins.row_off(1, o, 0));
                let flux = [ins.row_off(2, 0, 0), ins.row_off(2, 1, 0)];
                let (wd, we) = out.rows2(0, 1);
                advec_cell_row(&d, &e, &flux, wd, we, vol, scheme);
            },
        );
        std::mem::swap(&mut self.density1, &mut self.work_d);
        std::mem::swap(&mut self.energy1, &mut self.work_e);
    }

    /// Conservative remap, Y sweep.
    fn advec_cell_y(&mut self, profile: &mut Profile) {
        let vol = self.dx * self.dy;
        let scheme = self.cfg.advection;
        par_loop2_rows(
            profile,
            "advec_cell_y",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.work_d, &mut self.work_e],
            &[&self.density1, &self.energy1, &self.vol_flux_y],
            advec_cell_flops(scheme),
            move |_j, out, ins| {
                let d = WINDOW5.map(|o| ins.row_off(0, 0, o));
                let e = WINDOW5.map(|o| ins.row_off(1, 0, o));
                let flux = [ins.row_off(2, 0, 0), ins.row_off(2, 0, 1)];
                let (wd, we) = out.rows2(0, 1);
                advec_cell_row(&d, &e, &flux, wd, we, vol, scheme);
            },
        );
        std::mem::swap(&mut self.density1, &mut self.work_d);
        std::mem::swap(&mut self.energy1, &mut self.work_e);
    }

    /// Upwind momentum advection (both sweeps fused per direction).
    fn advec_mom(&mut self, profile: &mut Profile, dt: f64) {
        let (dx, dy) = (self.dx, self.dy);
        par_loop2_rows(
            profile,
            "advec_mom",
            self.cfg.mode,
            self.nodes(),
            &mut [&mut self.work_u, &mut self.work_v],
            &[&self.xvel1, &self.yvel1],
            20.0,
            move |_j, out, ins| {
                // The plus2(1) rows: centre, west, east, south, north.
                let plus = [(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)];
                let u = plus.map(|(di, dj)| ins.row_off(0, di, dj));
                let v = plus.map(|(di, dj)| ins.row_off(1, di, dj));
                let (wu, wv) = out.rows2(0, 1);
                for i in 0..wu.len() {
                    let (uc, vc) = (u[0][i], v[0][i]);
                    wu[i] = uc - dt * upwind2(&u, i, uc, vc, dx, dy);
                    wv[i] = vc - dt * upwind2(&v, i, uc, vc, dx, dy);
                }
            },
        );
    }

    /// Reset: advected quantities become the next step's initial state.
    /// Slice path: each row is a straight memcpy.
    fn reset_field(&mut self, profile: &mut Profile) {
        par_loop2_rows(
            profile,
            "reset_field",
            self.cfg.mode,
            self.cells(),
            &mut [&mut self.density0, &mut self.energy0],
            &[&self.density1, &self.energy1],
            0.0,
            |_j, out, ins| {
                let (d, e) = out.rows2(0, 1);
                d.copy_from_slice(ins.row(0));
                e.copy_from_slice(ins.row(1));
            },
        );
        std::mem::swap(&mut self.xvel0, &mut self.work_u);
        std::mem::swap(&mut self.yvel0, &mut self.work_v);
    }

    /// One full hydro cycle; returns the dt used.
    pub fn cycle(&mut self, profile: &mut Profile, mut comm: Option<&mut Comm>) -> f64 {
        // Plan-guided fused traversal when the plan certifies the group
        // (never while a recording is active: the analyzer must observe the
        // unoptimized loop stream its certificates describe).
        let fuse = !recording_active()
            && self
                .cfg
                .plan
                .as_ref()
                .is_some_and(|p| p.certifies_fusion(&["ideal_gas", "viscosity"]));
        if fuse {
            let plan = self.cfg.plan.clone().expect("fusion implies a plan");
            self.ideal_gas_viscosity_fused(profile, &plan);
        } else {
            self.ideal_gas(profile);
            self.viscosity_kernel(profile);
        }
        self.update_halo_cells(profile, comm.as_deref_mut(), "cells0");
        let dt = self.calc_dt(profile, comm.as_deref_mut());
        self.accelerate(profile, dt);
        self.apply_velocity_bcs(profile);
        self.exchange_velocities(comm.as_deref_mut(), "vel0");
        self.pdv(profile, dt);
        self.flux_calc(profile, dt);
        self.update_halo_cells(profile, comm.as_deref_mut(), "cells1");
        self.advec_cell_x(profile);
        self.update_halo_cells(profile, comm.as_deref_mut(), "cells2");
        self.advec_cell_y(profile);
        self.advec_mom(profile, dt);
        self.reset_field(profile);
        self.apply_velocity_bcs(profile);
        self.exchange_velocities(comm, "vel1");
        dt
    }

    /// Field summary: (total mass, total energy incl. kinetic).
    pub fn field_summary(&self, profile: &mut Profile) -> (f64, f64) {
        let vol = self.dx * self.dy;
        let (mass, ie) = par_loop2_rows_reduce(
            profile,
            "field_summary",
            ExecMode::Serial,
            self.cells(),
            &[&self.density0, &self.energy0],
            (0.0f64, 0.0f64),
            4.0,
            move |_j, ins, (mut m, mut ie)| {
                let (rho, e) = (ins.row(0), ins.row(1));
                for i in 0..rho.len() {
                    m += rho[i] * vol;
                    ie += rho[i] * e[i] * vol;
                }
                (m, ie)
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        // Kinetic energy from nodes (quarter-cell masses omitted at walls —
        // summary only).
        let vol4 = vol;
        let ke = par_loop2_rows_reduce(
            profile,
            "field_summary_ke",
            ExecMode::Serial,
            self.cells(),
            &[&self.density0, &self.xvel0, &self.yvel0],
            0.0f64,
            8.0,
            move |_j, ins, mut acc| {
                let rho = ins.row(0);
                let quad = [(0, 0), (1, 0), (0, 1), (1, 1)];
                let x = quad.map(|(di, dj)| ins.row_off(1, di, dj));
                let y = quad.map(|(di, dj)| ins.row_off(2, di, dj));
                for i in 0..rho.len() {
                    let u = 0.25 * (x[0][i] + x[1][i] + x[2][i] + x[3][i]);
                    let v = 0.25 * (y[0][i] + y[1][i] + y[2][i] + y[3][i]);
                    acc += 0.5 * rho[i] * (u * u + v * v) * vol4;
                }
                acc
            },
            |a, b| a + b,
        );
        (mass, ie + ke)
    }

    /// Single-rank run; validation = relative mass-conservation error.
    pub fn run(cfg: Config) -> AppRun {
        let mut profile = Profile::new();
        let points = cfg.nx * cfg.ny;
        let iterations = cfg.iterations;
        let mut sim = Clover2::new(cfg);
        let (m0, _e0) = sim.field_summary(&mut profile);
        for it in 0..iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "hydro_cycle");
            aspan.set_args(it as f64, 0.0, 0.0);
            sim.cycle(&mut profile, None);
        }
        let (m1, _e1) = sim.field_summary(&mut profile);
        let validation = ((m1 - m0) / m0).abs();
        AppRun {
            app: AppId::CloverLeaf2D,
            profile,
            validation,
            iterations,
            points,
        }
    }

    /// Distributed run; returns this rank's profile and the gathered global
    /// density on rank 0.
    pub fn run_distributed(comm: &mut Comm, cfg: Config) -> (Profile, Option<Vec<f64>>) {
        let mut profile = Profile::new();
        let iterations = cfg.iterations;
        let mut sim = Clover2::new_distributed(comm, cfg);
        for it in 0..iterations {
            let mut aspan = bwb_trace::span(bwb_trace::Cat::App, "hydro_cycle");
            aspan.set_args(it as f64, 0.0, 0.0);
            sim.cycle(&mut profile, Some(comm));
        }
        let block = sim.dist.clone().expect("distributed");
        let gathered = block.gather_global(comm, &sim.density0);
        (profile, gathered)
    }

    /// Direct access for tests.
    pub fn density(&self) -> &Dat2<f64> {
        &self.density0
    }

    /// Every dataset of the solver state, in declaration order (for the
    /// golden bit-identity pins).
    #[cfg(test)]
    pub(crate) fn dats(&self) -> [&Dat2<f64>; 17] {
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
            &self.xvel0,
            &self.xvel1,
            &self.yvel0,
            &self.yvel1,
            &self.work_u,
            &self.work_v,
            &self.vol_flux_x,
            &self.vol_flux_y,
        ]
    }
}

/// The `ideal_gas` kernel body, shared verbatim between the sequential
/// driver and the plan-guided fused traversal (what makes "bit-identical"
/// a structural property rather than a numerical coincidence). Inputs
/// positionally: 0 = density0, 1 = energy0.
fn ideal_gas_body(out: &mut RowOut2<f64>, ins: &RowIn2<f64>) {
    let rho = ins.row(0);
    let e = ins.row(1);
    let (p, ss) = out.rows2(0, 1);
    for i in 0..p.len() {
        let pv = (GAMMA - 1.0) * rho[i] * e[i];
        p[i] = pv;
        ss[i] = (GAMMA * pv / rho[i]).sqrt();
    }
}

/// The `viscosity` kernel body (inputs: 0 = density0, 1 = xvel0,
/// 2 = yvel0), shared like [`ideal_gas_body`].
fn viscosity_body(dx: f64, dy: f64, out: &mut RowOut2<f64>, ins: &RowIn2<f64>) {
    // Cell (i,j) is bounded by nodes (i..i+1, j..j+1).
    let rho = ins.row(0);
    let u00 = ins.row_off(1, 0, 0);
    let u10 = ins.row_off(1, 1, 0);
    let u01 = ins.row_off(1, 0, 1);
    let u11 = ins.row_off(1, 1, 1);
    let v00 = ins.row_off(2, 0, 0);
    let v10 = ins.row_off(2, 1, 0);
    let v01 = ins.row_off(2, 0, 1);
    let v11 = ins.row_off(2, 1, 1);
    let q = out.row(0);
    for i in 0..q.len() {
        let ugrad = 0.5 * ((u10[i] + u11[i]) - (u00[i] + u01[i]));
        let vgrad = 0.5 * ((v01[i] + v11[i]) - (v00[i] + v10[i]));
        let div = ugrad / dx + vgrad / dy;
        q[i] = if div < 0.0 {
            let l = dx.min(dy);
            2.0 * rho[i] * (div * l) * (div * l)
        } else {
            0.0
        };
    }
}

/// Depth-1 ghost exchange for node-centred fields over a cell-decomposed
/// block. Node fields duplicate the interface line on both neighbouring
/// ranks; [`DistBlock2::exchange_node_halo`] ships the inward-shifted
/// strips so each rank's ghosts hold the neighbour's first interior line.
/// Declared access contracts of every DSL loop in this app, for
/// `bwb-dslcheck`. (`update_halo`/`update_halo_vel` are hand-rolled fills,
/// not `par_loop`s, so they carry no contract.)
/// Declared loop chain for `dslcheck::speccheck`: the exact ordered
/// loop/exchange/swap stream one [`Clover2::cycle`] materializes at runtime
/// (plus the two `field_summary` reductions the single-rank registry run
/// appends), written down symbolically over the parametric local grid
/// `(nx, ny)`. Instantiating this chain must reproduce, observation for
/// observation, what [`bwb_ops::access::with_recording_full`] records from
/// a live run — the static/dynamic cross-check asserts exactly that.
///
/// `dist` declares the 4-rank distributed variant: the three cell-field
/// halo-update sites ("cells0"/"cells1"/"cells2") and the two node-velocity
/// sites ("vel0"/"vel1") each contribute their recorded exchanges, and the
/// field-summary epilogue is absent (`run_distributed` gathers instead).
pub fn chain_spec(dist: bool) -> bwb_ops::ChainSpec {
    use bwb_ops::{ChainSpec, DatDecl, Expr, Step};
    let c = Expr::c;
    let p = Expr::p;
    let pp = Expr::p_plus;
    let h = HALO as isize;
    let cell = |name: &'static str| DatDecl {
        name,
        halo: h,
        extent: [p("nx"), p("ny"), c(1)],
        elem_bytes: 8,
    };
    let node = |name: &'static str| DatDecl {
        name,
        halo: h,
        extent: [pp("nx", 1), pp("ny", 1), c(1)],
        elem_bytes: 8,
    };
    // Slot indices (struct-field identity; runtime names rotate via Swap).
    const D0: usize = 0;
    const D1: usize = 1;
    const E0: usize = 2;
    const E1: usize = 3;
    const PR: usize = 4;
    const VS: usize = 5;
    const SS: usize = 6;
    const WD: usize = 7;
    const WE: usize = 8;
    const XV0: usize = 9;
    const XV1: usize = 10;
    const YV0: usize = 11;
    const YV1: usize = 12;
    const WU: usize = 13;
    const WV: usize = 14;
    const FX: usize = 15;
    const FY: usize = 16;
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
        node("xvel0"),
        node("xvel1"),
        node("yvel0"),
        node("yvel1"),
        node("work_u"),
        node("work_v"),
        DatDecl {
            name: "vol_flux_x",
            halo: h,
            extent: [pp("nx", 1), p("ny"), c(1)],
            elem_bytes: 8,
        },
        DatDecl {
            name: "vol_flux_y",
            halo: h,
            extent: [p("nx"), pp("ny", 1), c(1)],
            elem_bytes: 8,
        },
    ];
    let cells = || [c(0), p("nx"), c(0), p("ny"), c(0), c(1)];
    let nodes = || [c(0), pp("nx", 1), c(0), pp("ny", 1), c(0), c(1)];
    let lp = |spec: &'static str, range: [Expr; 6], outs: Vec<usize>, ins: Vec<usize>| Step::Loop {
        spec,
        dims: 2,
        range,
        outs,
        ins,
    };
    // `update_halo_cells` iterates its six fields in struct order, noting
    // one exchange per field on the dim-1 pass (mirror fills are hand
    // loops and record nothing).
    let halo_cells = |body: &mut Vec<Step>, site: &'static str| {
        if dist {
            for dat in [D0, E0, PR, VS, D1, E1] {
                body.push(Step::Exchange {
                    dat,
                    depth: HALO,
                    site,
                });
            }
        }
    };
    let halo_vel = |body: &mut Vec<Step>, site: &'static str| {
        if dist {
            for dat in [XV0, YV0, XV1, YV1] {
                body.push(Step::Exchange {
                    dat,
                    depth: 1,
                    site,
                });
            }
        }
    };
    let mut body = vec![
        lp("ideal_gas", cells(), vec![PR, SS], vec![D0, E0]),
        lp("viscosity", cells(), vec![VS], vec![D0, XV0, YV0]),
    ];
    halo_cells(&mut body, "cells0");
    body.push(lp("calc_dt", cells(), vec![], vec![SS, XV0, YV0]));
    body.push(lp(
        "accelerate",
        nodes(),
        vec![XV1, YV1],
        vec![D0, PR, VS, XV0, YV0],
    ));
    halo_vel(&mut body, "vel0");
    body.push(lp(
        "pdv",
        cells(),
        vec![E1, D1],
        vec![D0, E0, PR, VS, XV1, YV1],
    ));
    body.push(lp(
        "flux_calc_x",
        [c(0), pp("nx", 1), c(0), p("ny"), c(0), c(1)],
        vec![FX],
        vec![XV0, XV1],
    ));
    body.push(lp(
        "flux_calc_y",
        [c(0), p("nx"), c(0), pp("ny", 1), c(0), c(1)],
        vec![FY],
        vec![YV0, YV1],
    ));
    halo_cells(&mut body, "cells1");
    body.push(lp("advec_cell_x", cells(), vec![WD, WE], vec![D1, E1, FX]));
    body.push(Step::Swap { a: D1, b: WD });
    body.push(Step::Swap { a: E1, b: WE });
    halo_cells(&mut body, "cells2");
    body.push(lp("advec_cell_y", cells(), vec![WD, WE], vec![D1, E1, FY]));
    body.push(Step::Swap { a: D1, b: WD });
    body.push(Step::Swap { a: E1, b: WE });
    body.push(lp("advec_mom", nodes(), vec![WU, WV], vec![XV1, YV1]));
    body.push(lp("reset_field", cells(), vec![D0, E0], vec![D1, E1]));
    body.push(Step::Swap { a: XV0, b: WU });
    body.push(Step::Swap { a: YV0, b: WV });
    halo_vel(&mut body, "vel1");
    let epilogue = if dist {
        Vec::new()
    } else {
        vec![
            lp("field_summary", cells(), vec![], vec![D0, E0]),
            lp("field_summary_ke", cells(), vec![], vec![D0, XV0, YV0]),
        ]
    };
    ChainSpec {
        app: if dist {
            "clover2d_dist"
        } else {
            "cloverleaf2d"
        },
        params: vec!["nx", "ny"],
        dats,
        prologue: Vec::new(),
        body,
        epilogue,
    }
}

pub fn loop_specs() -> Vec<bwb_ops::LoopSpec> {
    use bwb_ops::{ArgSpec as A, LoopSpec as L, Stencil as S};
    // Cell quantity sampled at the four cells around a node.
    let nodal = || S::of2(&[(-1, -1), (0, -1), (0, 0), (-1, 0)]);
    // Node quantity sampled at the four corners of a cell.
    let quad = || S::of2(&[(0, 0), (1, 0), (0, 1), (1, 1)]);
    // Donor-cell/van Leer upwind window along one axis.
    let x5 = || S::of2(&[(-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)]);
    let y5 = || S::of2(&[(0, -2), (0, -1), (0, 0), (0, 1), (0, 2)]);
    vec![
        L::new(
            "ideal_gas",
            vec![A::write("pressure"), A::write("soundspeed")],
            vec![
                A::read("density0", S::point()),
                A::read("energy0", S::point()),
            ],
        ),
        L::new(
            "viscosity",
            vec![A::write("viscosity")],
            vec![
                A::read("density0", S::point()),
                A::read("xvel0", quad()),
                A::read("yvel0", quad()),
            ],
        ),
        L::new(
            "calc_dt",
            vec![],
            vec![
                A::read("soundspeed", S::point()),
                A::read("xvel0", S::of2(&[(0, 0), (1, 1)])),
                A::read("yvel0", S::of2(&[(0, 0), (1, 1)])),
            ],
        ),
        L::new(
            "accelerate",
            vec![A::write("xvel1"), A::write("yvel1")],
            vec![
                A::read("density0", nodal()),
                A::read("pressure", nodal()),
                A::read("viscosity", nodal()),
                A::read("xvel0", S::point()),
                A::read("yvel0", S::point()),
            ],
        ),
        L::new(
            "pdv",
            vec![A::write("energy1"), A::write("density1")],
            vec![
                A::read("density0", S::point()),
                A::read("energy0", S::point()),
                A::read("pressure", S::point()),
                A::read("viscosity", S::point()),
                A::read("xvel1", quad()),
                A::read("yvel1", quad()),
            ],
        ),
        L::new(
            "flux_calc_x",
            vec![A::write("vol_flux_x")],
            vec![
                A::read("xvel0", S::of2(&[(0, 0), (0, 1)])),
                A::read("xvel1", S::of2(&[(0, 0), (0, 1)])),
            ],
        ),
        L::new(
            "flux_calc_y",
            vec![A::write("vol_flux_y")],
            vec![
                A::read("yvel0", S::of2(&[(0, 0), (1, 0)])),
                A::read("yvel1", S::of2(&[(0, 0), (1, 0)])),
            ],
        ),
        L::new(
            "advec_cell_x",
            vec![A::write("work_d"), A::write("work_e")],
            vec![
                A::read("density1", x5()),
                A::read("energy1", x5()),
                A::read("vol_flux_x", S::of2(&[(0, 0), (1, 0)])),
            ],
        ),
        L::new(
            "advec_cell_y",
            vec![A::write("work_d"), A::write("work_e")],
            vec![
                A::read("density1", y5()),
                A::read("energy1", y5()),
                A::read("vol_flux_y", S::of2(&[(0, 0), (0, 1)])),
            ],
        ),
        L::new(
            "advec_mom",
            vec![A::write("work_u"), A::write("work_v")],
            vec![A::read("xvel1", S::plus2(1)), A::read("yvel1", S::plus2(1))],
        ),
        L::new(
            "reset_field",
            vec![A::write("density0"), A::write("energy0")],
            vec![
                A::read("density1", S::point()),
                A::read("energy1", S::point()),
            ],
        ),
        L::new(
            "field_summary",
            vec![],
            vec![
                A::read("density0", S::point()),
                A::read("energy0", S::point()),
            ],
        ),
        L::new(
            "field_summary_ke",
            vec![],
            vec![
                A::read("density0", S::point()),
                A::read("xvel0", quad()),
                A::read("yvel0", quad()),
            ],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwb_shmpi::Universe;

    #[test]
    fn mass_exactly_conserved() {
        let run = Clover2::run(Config {
            nx: 32,
            ny: 32,
            iterations: 30,
            ..Config::default()
        });
        assert!(run.validation < 1e-12, "mass drift {}", run.validation);
    }

    #[test]
    fn energy_bounded() {
        let cfg = Config {
            nx: 32,
            ny: 32,
            iterations: 40,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        let (_m0, e0) = sim.field_summary(&mut profile);
        for _ in 0..40 {
            sim.cycle(&mut profile, None);
        }
        let (_m1, e1) = sim.field_summary(&mut profile);
        let drift = ((e1 - e0) / e0).abs();
        assert!(drift < 0.05, "total energy drift {drift}");
    }

    #[test]
    fn pressure_positive_and_finite() {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 25,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        for _ in 0..25 {
            sim.cycle(&mut profile, None);
        }
        for j in 0..24 {
            for i in 0..24 {
                let rho = sim.density0.get(i, j);
                let e = sim.energy0.get(i, j);
                assert!(rho > 0.0 && rho.is_finite(), "density at ({i},{j}) = {rho}");
                assert!(e > 0.0 && e.is_finite(), "energy at ({i},{j}) = {e}");
            }
        }
    }

    #[test]
    fn diagonal_symmetry_preserved() {
        // The initial state is symmetric under (i,j) → (j,i); the dynamics
        // must preserve that symmetry exactly.
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 15,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        for _ in 0..15 {
            sim.cycle(&mut profile, None);
        }
        for j in 0..24isize {
            for i in 0..24isize {
                let a = sim.density0.get(i, j);
                let b = sim.density0.get(j, i);
                // The x-then-y advection splitting breaks exact transpose
                // symmetry near the shock; a transposed-index bug would show
                // O(0.1+) asymmetry, splitting error stays well below.
                assert!((a - b).abs() < 5e-2, "asymmetry at ({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn serial_equals_rayon() {
        let base = Config {
            nx: 20,
            ny: 20,
            iterations: 8,
            ..Config::default()
        };
        let a = Clover2::run(Config {
            mode: ExecMode::Serial,
            ..base.clone()
        });
        let b = Clover2::run(Config {
            mode: ExecMode::Rayon,
            ..base
        });
        assert_eq!(a.validation, b.validation);
    }

    #[test]
    fn profile_contains_cloverleaf_kernels() {
        let run = Clover2::run(Config {
            nx: 16,
            ny: 16,
            iterations: 3,
            ..Config::default()
        });
        for k in [
            "ideal_gas",
            "viscosity",
            "calc_dt",
            "accelerate",
            "pdv",
            "flux_calc_x",
            "advec_cell_x",
            "advec_cell_y",
            "advec_mom",
            "reset_field",
            "update_halo",
        ] {
            assert!(run.profile.get(k).is_some(), "missing kernel {k}");
        }
    }

    #[test]
    fn distributed_matches_single_rank() {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 5,
            ..Config::default()
        };
        let single = {
            let mut profile = Profile::new();
            let mut sim = Clover2::new(cfg.clone());
            for _ in 0..cfg.iterations {
                sim.cycle(&mut profile, None);
            }
            let mut v = Vec::new();
            for j in 0..24isize {
                for i in 0..24isize {
                    v.push(sim.density0.get(i, j));
                }
            }
            v
        };
        let cfg2 = cfg.clone();
        let out = Universe::run(4, move |c| Clover2::run_distributed(c, cfg2.clone()).1);
        let dist = out.results[0].as_ref().unwrap();
        let max_diff = dist
            .iter()
            .zip(&single)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_diff < 1e-11, "distributed differs by {max_diff}");
    }

    #[test]
    fn van_leer_conserves_mass_exactly() {
        let run = Clover2::run(Config {
            nx: 32,
            ny: 32,
            iterations: 25,
            advection: Advection::VanLeer,
            ..Config::default()
        });
        assert!(
            run.validation < 1e-12,
            "van Leer mass drift {}",
            run.validation
        );
    }

    #[test]
    fn van_leer_is_sharper_than_donor_cell() {
        // After the shock has propagated, the second-order remap must keep
        // a steeper density front: compare the max |∇ρ| across schemes.
        let max_grad = |advection: Advection| {
            let cfg = Config {
                nx: 48,
                ny: 48,
                iterations: 25,
                advection,
                ..Config::default()
            };
            let mut profile = Profile::new();
            let mut sim = Clover2::new(cfg);
            for _ in 0..25 {
                sim.cycle(&mut profile, None);
            }
            let mut g: f64 = 0.0;
            for j in 0..48isize {
                for i in 0..47isize {
                    g = g.max((sim.density0.get(i + 1, j) - sim.density0.get(i, j)).abs());
                }
            }
            g
        };
        let donor = max_grad(Advection::DonorCell);
        let vl = max_grad(Advection::VanLeer);
        assert!(
            vl > donor,
            "van Leer front {vl} should be sharper than donor {donor}"
        );
    }

    #[test]
    fn van_leer_stays_positive_and_finite() {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 30,
            advection: Advection::VanLeer,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        for _ in 0..30 {
            sim.cycle(&mut profile, None);
        }
        for j in 0..24 {
            for i in 0..24 {
                let rho = sim.density0.get(i, j);
                assert!(rho > 0.0 && rho.is_finite(), "ρ({i},{j}) = {rho}");
            }
        }
    }

    #[test]
    fn van_leer_distributed_matches_single_rank() {
        let cfg = Config {
            nx: 24,
            ny: 24,
            iterations: 5,
            advection: Advection::VanLeer,
            ..Config::default()
        };
        let single = {
            let mut profile = Profile::new();
            let mut sim = Clover2::new(cfg.clone());
            for _ in 0..cfg.iterations {
                sim.cycle(&mut profile, None);
            }
            let mut v = Vec::new();
            for j in 0..24isize {
                for i in 0..24isize {
                    v.push(sim.density0.get(i, j));
                }
            }
            v
        };
        let cfg2 = cfg.clone();
        let out = Universe::run(4, move |c| Clover2::run_distributed(c, cfg2.clone()).1);
        let dist = out.results[0].as_ref().unwrap();
        let max_diff = dist
            .iter()
            .zip(&single)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_diff < 1e-11,
            "van Leer distributed differs by {max_diff}"
        );
    }

    #[test]
    fn dt_positive_and_stable() {
        let cfg = Config {
            nx: 16,
            ny: 16,
            iterations: 0,
            ..Config::default()
        };
        let mut profile = Profile::new();
        let mut sim = Clover2::new(cfg);
        sim.ideal_gas(&mut profile);
        let dt = sim.calc_dt(&mut profile, None);
        assert!(dt > 0.0 && dt < 1.0, "dt = {dt}");
    }
}
