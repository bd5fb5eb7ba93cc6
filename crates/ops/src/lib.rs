//! # bwb-ops — structured-mesh parallel-loop DSL
//!
//! A Rust re-implementation of the execution model of the OPS domain
//! specific language ([Reguly et al. 2014]) that the paper's structured-mesh
//! applications (CloverLeaf 2D/3D, Acoustic, OpenSBLI SA/SN — and in spirit
//! miniWeather) are written in:
//!
//! * [`field`] — 2-D/3-D datasets ([`Dat2`]/[`Dat3`]) over a block, stored
//!   with a halo ring of ghost cells;
//! * [`exec`] — `par_loop` drivers that iterate a rectangular range and
//!   apply a stencil kernel, serially or thread-parallel (the DSL's
//!   "OpenMP" backend, implemented with rayon);
//! * [`profile`] — per-loop byte / FLOP accounting, exactly the mechanism
//!   OPS uses to compute the *achieved effective bandwidth* of Figure 8
//!   ("measuring the execution time of the kernel ... and estimating the
//!   effective data movement, based on the iteration ranges, datasets
//!   accessed, and types of access");
//! * [`halo`] — block decomposition over [`bwb_shmpi`] ranks with ghost-cell
//!   exchanges, the paper's §4 communication structure;
//! * [`tiling`] — lazy loop-chain execution with skewed cache-blocking
//!   tiling, the optimization of Figure 9 ([Reguly et al. 2017]).
//!
//! ## Example: heat diffusion step
//!
//! Kernels run on the row path: the driver calls them once per row `j`
//! with contiguous slices of that row, one per stencil offset read.
//!
//! ```
//! use bwb_ops::{par_loop2_rows, par_loop2_rows_reduce, Dat2, ExecMode, Profile, Range2};
//!
//! let n = 64;
//! let mut u = Dat2::<f64>::new("u", n, n, 1);
//! let mut unew = Dat2::<f64>::new("unew", n, n, 1);
//! u.fill_interior(1.0);
//! u.set(n as isize / 2, n as isize / 2, 2.0);
//!
//! let mut prof = Profile::new();
//! par_loop2_rows(
//!     &mut prof, "diffuse", ExecMode::Serial,
//!     Range2::interior(n, n),
//!     &mut [&mut unew], &[&u],
//!     5.0,
//!     |_j, out, ins| {
//!         let c = ins.row(0);
//!         let (w, e) = (ins.row_off(0, -1, 0), ins.row_off(0, 1, 0));
//!         let (s, nn) = (ins.row_off(0, 0, -1), ins.row_off(0, 0, 1));
//!         for (i, o) in out.row(0).iter_mut().enumerate() {
//!             let lap = w[i] + e[i] + s[i] + nn[i] - 4.0 * c[i];
//!             *o = c[i] + 0.1 * lap;
//!         }
//!     },
//! );
//! // Reductions fold each row into the running accumulator.
//! let peak = par_loop2_rows_reduce(
//!     &mut prof, "peak", ExecMode::Serial,
//!     Range2::interior(n, n),
//!     &[&unew],
//!     f64::NEG_INFINITY,
//!     0.0,
//!     |_j, ins, acc| ins.row(0).iter().fold(acc, |m, &v| m.max(v)),
//!     f64::max,
//! );
//! assert_eq!(prof.records().len(), 2);
//! assert!(peak < 2.0);
//! ```
//!
//! [Reguly et al. 2014]: https://doi.org/10.1109/WOLFHPC.2014.7
//! [Reguly et al. 2017]: https://doi.org/10.1109/TPDS.2017.2778161

pub mod access;
pub mod chain;
pub mod exec;
pub mod field;
pub mod halo;
pub mod hash;
pub mod ntstore;
pub mod optexec;
pub mod plan;
pub mod profile;
pub mod tiling;

pub use access::{
    recording_active, with_recording, Access, ArgObs, ArgSpec, LoopObs, LoopSpec, Stencil,
};
pub use chain::{Binding, ChainError, ChainSpec, DatDecl, Expr, Step};
pub use exec::{
    par_loop2, par_loop2_rows, par_loop2_rows_reduce, par_loop3, par_loop3_planes,
    par_loop3_planes_reduce, ExecMode, In2, In3, Out2, Out3, Range2, Range3, RowIn2, RowIn3,
    RowOut2, RowOut3,
};
pub use field::{Dat2, Dat3};
pub use halo::{BitHash, DistBlock2, DistBlock3};
pub use ntstore::{nt_copy, NtElem};
pub use optexec::{
    fused2_rows, fused3_planes, par_loop2_rows_nt, par_loop3_planes_nt, FusedLoop2, FusedLoop3,
};
pub use plan::{ElisionCert, FusionGroupCert, LoopIr, NtCert, OptPlan, PlanError};
pub use profile::{LoopRecord, Profile};
pub use tiling::{ChainLoop2, ChainPlan, LoopChain2, PlannedLoop};
