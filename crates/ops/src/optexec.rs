//! Plan-guided optimizing executors.
//!
//! Every entry point here consumes an [`OptPlan`] produced by the
//! `dslcheck` dataflow analyzers and *refuses* to apply a transform the
//! plan does not certify:
//!
//! * [`fused2_rows`] / [`fused3_planes`] — run a certified fusion group's
//!   member loops interleaved over one traversal (per row within the
//!   parallel partition), so shared fields are produced and consumed while
//!   still cache-resident instead of making one full memory round trip per
//!   loop. Certification (all-pairs radius-0 crossings) is exactly what
//!   makes the interleaving bit-identical: each member reads only
//!   current-row values that earlier members have already written.
//! * [`par_loop2_rows_nt`] / [`par_loop3_planes_nt`] — route certified
//!   write-only, no-reuse outputs through non-temporal stores
//!   ([`crate::ntstore`]): the kernel writes into a cache-resident per-row
//!   staging buffer, which is then streamed to the destination row,
//!   skipping the write-allocate read.
//!
//! All executors delegate to (or error like) the plain drivers while a
//! dataflow recording is active — recordings must observe the unoptimized
//! schedule they certify.

use crate::access;
use crate::exec::{
    chunk_planes, chunk_rows, rviews2, rviews3, timed, ExecMode, FieldView2, FieldView3, RView2,
    RView3, Range2, Range3, RowIn2, RowIn3, RowOut2, RowOut3, WView2, WView3,
};
use crate::field::{Dat2, Dat3};
use crate::ntstore::{nt_copy, NtElem};
use crate::plan::{OptPlan, PlanError};
use crate::profile::Profile;
use rayon::prelude::*;

/// One member of a 2-D fused group: which store fields it writes/reads and
/// its row kernel (the same shape [`crate::par_loop2_rows`] takes).
pub struct FusedLoop2<T> {
    pub name: String,
    /// Indices into the *mutable* store passed to [`fused2_rows`].
    pub outs: Vec<usize>,
    /// Indices into the combined `[store_mut..., store_ro...]` space.
    pub ins: Vec<usize>,
    pub flops_per_point: f64,
    #[allow(clippy::type_complexity)]
    pub kernel: Box<dyn Fn(isize, &mut RowOut2<T>, &RowIn2<T>) + Send + Sync>,
}

impl<T> FusedLoop2<T> {
    pub fn new(
        name: &str,
        outs: &[usize],
        ins: &[usize],
        flops_per_point: f64,
        kernel: impl Fn(isize, &mut RowOut2<T>, &RowIn2<T>) + Send + Sync + 'static,
    ) -> Self {
        FusedLoop2 {
            name: name.to_string(),
            outs: outs.to_vec(),
            ins: ins.to_vec(),
            flops_per_point,
            kernel: Box::new(kernel),
        }
    }
}

/// One member of a 3-D fused group (see [`FusedLoop2`]).
pub struct FusedLoop3<T> {
    pub name: String,
    pub outs: Vec<usize>,
    pub ins: Vec<usize>,
    pub flops_per_point: f64,
    #[allow(clippy::type_complexity)]
    pub kernel: Box<dyn Fn(isize, isize, &mut RowOut3<T>, &RowIn3<T>) + Send + Sync>,
}

impl<T> FusedLoop3<T> {
    pub fn new(
        name: &str,
        outs: &[usize],
        ins: &[usize],
        flops_per_point: f64,
        kernel: impl Fn(isize, isize, &mut RowOut3<T>, &RowIn3<T>) + Send + Sync + 'static,
    ) -> Self {
        FusedLoop3 {
            name: name.to_string(),
            outs: outs.to_vec(),
            ins: ins.to_vec(),
            flops_per_point,
            kernel: Box::new(kernel),
        }
    }
}

/// Verify the plan certifies running `names` fused, and that no recording
/// is active.
fn check_fusable(plan: &OptPlan, names: &[&str]) -> Result<(), PlanError> {
    if access::recording_active() {
        return Err(PlanError::RecordingActive);
    }
    if !plan.certifies_fusion(names) {
        return Err(PlanError::UncertifiedFusion {
            names: names.iter().map(|s| s.to_string()).collect(),
        });
    }
    Ok(())
}

/// Split the measured seconds of one fused pass across member loops in
/// proportion to their modelled traffic (points × field count), so
/// per-loop profile records stay comparable with unfused runs.
fn split_seconds(weights: &[usize], total: f64) -> Vec<f64> {
    let sum: usize = weights.iter().sum();
    if sum == 0 {
        return vec![0.0; weights.len()];
    }
    weights
        .iter()
        .map(|&w| total * (w as f64) / (sum as f64))
        .collect()
}

/// Execute a certified fusion group of 2-D row-kernel loops in one
/// traversal.
///
/// `store_mut` holds every field any member writes (and possibly reads);
/// `store_ro` holds read-only inputs. Member `ins` index the combined
/// `[store_mut..., store_ro...]` space, member `outs` index `store_mut`.
/// Per-loop profile records use the same byte/FLOP formulas as
/// [`crate::par_loop2_rows`], so the *modelled* traffic is unchanged and
/// any reduction shows up only in measured time and cachesim replays.
pub fn fused2_rows<T>(
    profile: &mut Profile,
    mode: ExecMode,
    range: Range2,
    store_mut: &mut [&mut Dat2<T>],
    store_ro: &[&Dat2<T>],
    loops: &[FusedLoop2<T>],
    plan: &OptPlan,
) -> Result<(), PlanError>
where
    T: Copy + Send + Sync,
{
    let names: Vec<&str> = loops.iter().map(|l| l.name.as_str()).collect();
    check_fusable(plan, &names)?;
    let n_mut = store_mut.len();
    for l in loops {
        for &f in &l.outs {
            assert!(f < n_mut, "loop {:?}: out index {f} outside store", l.name);
        }
        for &f in &l.ins {
            assert!(
                f < n_mut + store_ro.len(),
                "loop {:?}: in index {f} outside store",
                l.name
            );
        }
    }
    let seconds = if range.is_empty() {
        0.0
    } else {
        let fields: Vec<FieldView2<T>> = store_mut
            .iter_mut()
            .map(|d| FieldView2::capture(d))
            .collect();
        let ro_views: Vec<RView2<T>> = rviews2(store_ro);
        // Per-member view subsets over the shared store.
        let w_subs: Vec<Vec<WView2<T>>> = loops
            .iter()
            .map(|l| l.outs.iter().map(|&f| fields[f].write_view()).collect())
            .collect();
        let r_subs: Vec<Vec<RView2<T>>> = loops
            .iter()
            .map(|l| {
                l.ins
                    .iter()
                    .map(|&f| {
                        if f < n_mut {
                            fields[f].read_view()
                        } else {
                            ro_views[f - n_mut]
                        }
                    })
                    .collect()
            })
            .collect();
        let width = (range.i1 - range.i0) as usize;
        let body = |j: isize| {
            for (l, (w, r)) in loops.iter().zip(w_subs.iter().zip(&r_subs)) {
                let mut out = RowOut2::at(w, range.i0, width, j);
                let inp = RowIn2::at(r, range.i0, width, j);
                (l.kernel)(j, &mut out, &inp);
            }
        };
        let label = format!("fused:{}", names.join("+"));
        let fields_touched: usize = loops.iter().map(|l| l.outs.len() + l.ins.len()).sum();
        let points = range.points();
        let ((), seconds) = timed(
            &label,
            points,
            points * fields_touched * std::mem::size_of::<T>(),
            points as f64 * loops.iter().map(|l| l.flops_per_point).sum::<f64>(),
            || match mode {
                ExecMode::Serial => (range.j0..range.j1).for_each(body),
                ExecMode::Rayon => (range.j0..range.j1)
                    .into_par_iter()
                    .with_min_len(chunk_rows(range.i1 - range.i0))
                    .for_each(body),
            },
        );
        seconds
    };
    let weights: Vec<usize> = loops
        .iter()
        .map(|l| range.points() * (l.outs.len() + l.ins.len()))
        .collect();
    for (l, secs) in loops.iter().zip(split_seconds(&weights, seconds)) {
        profile.record(
            &l.name,
            range.points(),
            range.points() * (l.outs.len() + l.ins.len()) * std::mem::size_of::<T>(),
            range.points() as f64 * l.flops_per_point,
            secs,
        );
    }
    Ok(())
}

/// Execute a certified fusion group of 3-D plane/row-kernel loops in one
/// traversal (see [`fused2_rows`]). Members interleave per `j`-row within
/// each `k`-plane; Rayon partitions over `k`.
pub fn fused3_planes<T>(
    profile: &mut Profile,
    mode: ExecMode,
    range: Range3,
    store_mut: &mut [&mut Dat3<T>],
    store_ro: &[&Dat3<T>],
    loops: &[FusedLoop3<T>],
    plan: &OptPlan,
) -> Result<(), PlanError>
where
    T: Copy + Send + Sync,
{
    let names: Vec<&str> = loops.iter().map(|l| l.name.as_str()).collect();
    check_fusable(plan, &names)?;
    let n_mut = store_mut.len();
    for l in loops {
        for &f in &l.outs {
            assert!(f < n_mut, "loop {:?}: out index {f} outside store", l.name);
        }
        for &f in &l.ins {
            assert!(
                f < n_mut + store_ro.len(),
                "loop {:?}: in index {f} outside store",
                l.name
            );
        }
    }
    let seconds = if range.is_empty() {
        0.0
    } else {
        let fields: Vec<FieldView3<T>> = store_mut
            .iter_mut()
            .map(|d| FieldView3::capture(d))
            .collect();
        let ro_views: Vec<RView3<T>> = rviews3(store_ro);
        let w_subs: Vec<Vec<WView3<T>>> = loops
            .iter()
            .map(|l| l.outs.iter().map(|&f| fields[f].write_view()).collect())
            .collect();
        let r_subs: Vec<Vec<RView3<T>>> = loops
            .iter()
            .map(|l| {
                l.ins
                    .iter()
                    .map(|&f| {
                        if f < n_mut {
                            fields[f].read_view()
                        } else {
                            ro_views[f - n_mut]
                        }
                    })
                    .collect()
            })
            .collect();
        let width = (range.i1 - range.i0) as usize;
        let plane = |k: isize| {
            for j in range.j0..range.j1 {
                for (l, (w, r)) in loops.iter().zip(w_subs.iter().zip(&r_subs)) {
                    let mut out = RowOut3::at(w, range.i0, width, j, k);
                    let inp = RowIn3::at(r, range.i0, width, j, k);
                    (l.kernel)(j, k, &mut out, &inp);
                }
            }
        };
        let label = format!("fused:{}", names.join("+"));
        let fields_touched: usize = loops.iter().map(|l| l.outs.len() + l.ins.len()).sum();
        let points = range.points();
        let ((), seconds) = timed(
            &label,
            points,
            points * fields_touched * std::mem::size_of::<T>(),
            points as f64 * loops.iter().map(|l| l.flops_per_point).sum::<f64>(),
            || match mode {
                ExecMode::Serial => (range.k0..range.k1).for_each(plane),
                ExecMode::Rayon => (range.k0..range.k1)
                    .into_par_iter()
                    .with_min_len(chunk_planes(range.i1 - range.i0, range.j1 - range.j0))
                    .for_each(plane),
            },
        );
        seconds
    };
    let weights: Vec<usize> = loops
        .iter()
        .map(|l| range.points() * (l.outs.len() + l.ins.len()))
        .collect();
    for (l, secs) in loops.iter().zip(split_seconds(&weights, seconds)) {
        profile.record(
            &l.name,
            range.points(),
            range.points() * (l.outs.len() + l.ins.len()) * std::mem::size_of::<T>(),
            range.points() as f64 * l.flops_per_point,
            secs,
        );
    }
    Ok(())
}

/// [`crate::par_loop2_rows`] with certified outputs routed through
/// non-temporal stores.
///
/// Outputs the plan certifies for `(name, dat)` are written by the kernel
/// into a cache-resident per-row staging buffer and then streamed to the
/// destination row with [`nt_copy`] — skipping the write-allocate read of
/// the destination line. Bit-identical to the plain driver (streaming
/// stores move the same bits). Falls back to the plain driver when nothing
/// is certified, a recording is active (recordings must see the baseline
/// schedule), or the range starts at negative `i` (staging geometry cannot
/// represent it).
#[allow(clippy::too_many_arguments)]
pub fn par_loop2_rows_nt<T, F>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range2,
    outs: &mut [&mut Dat2<T>],
    ins: &[&Dat2<T>],
    flops_per_point: f64,
    plan: &OptPlan,
    kernel: F,
) where
    T: Copy + Send + Sync + Default + NtElem,
    F: Fn(isize, &mut RowOut2<T>, &RowIn2<T>) + Sync,
{
    let certified: Vec<bool> = outs
        .iter()
        .map(|d| plan.nt_certified(name, d.name()))
        .collect();
    if !certified.iter().any(|&c| c)
        || access::recording_active()
        || range.i0 < 0
        || range.is_empty()
    {
        return crate::exec::par_loop2_rows(
            profile,
            name,
            mode,
            range,
            outs,
            ins,
            flops_per_point,
            kernel,
        );
    }
    let bytes_per_point = (outs.len() + ins.len()) * std::mem::size_of::<T>();
    let fields: Vec<FieldView2<T>> = outs.iter_mut().map(|d| FieldView2::capture(d)).collect();
    let real: Vec<WView2<T>> = fields.iter().map(|f| f.write_view()).collect();
    let r = rviews2(ins);
    let width = (range.i1 - range.i0) as usize;
    let stage_len = (range.i0 as usize) + width;
    let streamed: Vec<usize> = certified
        .iter()
        .enumerate()
        .filter_map(|(f, &c)| c.then_some(f))
        .collect();
    let make_staging = || -> Vec<Vec<T>> {
        streamed
            .iter()
            .map(|_| vec![T::default(); stage_len])
            .collect()
    };
    let row_body = |staging: &mut Vec<Vec<T>>, j: isize| {
        // Certified outputs point at this thread's staging rows; the rest
        // write straight through.
        let views: Vec<WView2<T>> = real
            .iter()
            .enumerate()
            .map(|(f, v)| match streamed.iter().position(|&s| s == f) {
                Some(s) => WView2::staging(staging[s].as_mut_ptr(), stage_len),
                None => *v,
            })
            .collect();
        {
            let mut out = RowOut2::at(&views, range.i0, width, j);
            let inp = RowIn2::at(&r, range.i0, width, j);
            kernel(j, &mut out, &inp);
        }
        for (s, &f) in streamed.iter().enumerate() {
            let mut real_out = RowOut2::at(&real, range.i0, width, j);
            nt_copy(&staging[s][range.i0 as usize..stage_len], real_out.row(f));
        }
    };
    // Reuse staging rows across iterations through a small pool (the
    // vendored rayon has no per-thread-state combinator): two uncontended
    // lock hops per row against a full row's compute.
    let pool: std::sync::Mutex<Vec<Vec<Vec<T>>>> = std::sync::Mutex::new(Vec::new());
    let body = |j: isize| {
        let mut staging = pool
            .lock()
            .expect("staging pool")
            .pop()
            .unwrap_or_else(make_staging);
        row_body(&mut staging, j);
        pool.lock().expect("staging pool").push(staging);
    };
    let points = range.points();
    let (bytes, flops) = (points * bytes_per_point, points as f64 * flops_per_point);
    let ((), seconds) = timed(name, points, bytes, flops, || match mode {
        ExecMode::Serial => {
            let mut staging = make_staging();
            (range.j0..range.j1).for_each(|j| row_body(&mut staging, j));
        }
        ExecMode::Rayon => (range.j0..range.j1)
            .into_par_iter()
            .with_min_len(chunk_rows(range.i1 - range.i0))
            .for_each(body),
    });
    profile.record(name, points, bytes, flops, seconds);
}

/// [`crate::par_loop3_planes`]'s row fast path with certified outputs
/// routed through non-temporal stores (see [`par_loop2_rows_nt`]).
#[allow(clippy::too_many_arguments)]
pub fn par_loop3_planes_nt<T, F>(
    profile: &mut Profile,
    name: &str,
    mode: ExecMode,
    range: Range3,
    outs: &mut [&mut Dat3<T>],
    ins: &[&Dat3<T>],
    flops_per_point: f64,
    plan: &OptPlan,
    kernel: F,
) where
    T: Copy + Send + Sync + Default + NtElem,
    F: Fn(isize, isize, &mut RowOut3<T>, &RowIn3<T>) + Sync,
{
    let certified: Vec<bool> = outs
        .iter()
        .map(|d| plan.nt_certified(name, d.name()))
        .collect();
    if !certified.iter().any(|&c| c)
        || access::recording_active()
        || range.i0 < 0
        || range.is_empty()
    {
        return crate::exec::par_loop3_planes(
            profile,
            name,
            mode,
            range,
            outs,
            ins,
            flops_per_point,
            kernel,
        );
    }
    let bytes_per_point = (outs.len() + ins.len()) * std::mem::size_of::<T>();
    let fields: Vec<FieldView3<T>> = outs.iter_mut().map(|d| FieldView3::capture(d)).collect();
    let real: Vec<WView3<T>> = fields.iter().map(|f| f.write_view()).collect();
    let r = rviews3(ins);
    let width = (range.i1 - range.i0) as usize;
    let stage_len = (range.i0 as usize) + width;
    let streamed: Vec<usize> = certified
        .iter()
        .enumerate()
        .filter_map(|(f, &c)| c.then_some(f))
        .collect();
    let make_staging = || -> Vec<Vec<T>> {
        streamed
            .iter()
            .map(|_| vec![T::default(); stage_len])
            .collect()
    };
    let plane_body = |staging: &mut Vec<Vec<T>>, k: isize| {
        for j in range.j0..range.j1 {
            let views: Vec<WView3<T>> = real
                .iter()
                .enumerate()
                .map(|(f, v)| match streamed.iter().position(|&s| s == f) {
                    Some(s) => WView3::staging(staging[s].as_mut_ptr(), stage_len),
                    None => *v,
                })
                .collect();
            {
                let mut out = RowOut3::at(&views, range.i0, width, j, k);
                let inp = RowIn3::at(&r, range.i0, width, j, k);
                kernel(j, k, &mut out, &inp);
            }
            for (s, &f) in streamed.iter().enumerate() {
                let mut real_out = RowOut3::at(&real, range.i0, width, j, k);
                nt_copy(&staging[s][range.i0 as usize..stage_len], real_out.row(f));
            }
        }
    };
    // Staging reuse through a pool, as in `par_loop2_rows_nt`.
    let pool: std::sync::Mutex<Vec<Vec<Vec<T>>>> = std::sync::Mutex::new(Vec::new());
    let plane = |k: isize| {
        let mut staging = pool
            .lock()
            .expect("staging pool")
            .pop()
            .unwrap_or_else(make_staging);
        plane_body(&mut staging, k);
        pool.lock().expect("staging pool").push(staging);
    };
    let points = range.points();
    let (bytes, flops) = (points * bytes_per_point, points as f64 * flops_per_point);
    let ((), seconds) = timed(name, points, bytes, flops, || match mode {
        ExecMode::Serial => {
            let mut staging = make_staging();
            (range.k0..range.k1).for_each(|k| plane_body(&mut staging, k));
        }
        ExecMode::Rayon => (range.k0..range.k1)
            .into_par_iter()
            .with_min_len(chunk_planes(range.i1 - range.i0, range.j1 - range.j0))
            .for_each(plane),
    });
    profile.record(name, points, bytes, flops, seconds);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{par_loop2_rows, par_loop3_planes};
    use crate::plan::{FusionGroupCert, NtCert};

    fn plan_with_group(names: &[&str]) -> OptPlan {
        OptPlan {
            app: "test".into(),
            groups: vec![FusionGroupCert {
                start: 0,
                names: names.iter().map(|s| s.to_string()).collect(),
            }],
            ..OptPlan::default()
        }
    }

    #[test]
    fn fused_pair_is_bit_identical_to_sequential() {
        let n = 37usize;
        let run_baseline = |mode: ExecMode| {
            let mut p = Profile::new();
            let mut a = Dat2::<f64>::new("a", n, n, 1);
            let mut x = Dat2::<f64>::new("x", n, n, 1);
            let mut y = Dat2::<f64>::new("y", n, n, 1);
            a.init_with(|i, j| (i as f64).mul_add(0.37, j as f64 * 1.11));
            par_loop2_rows(
                &mut p,
                "producer",
                mode,
                Range2::interior(n, n),
                &mut [&mut x],
                &[&a],
                1.0,
                |_j, out, ins| {
                    for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                        *o = s * 1.5 + 0.25;
                    }
                },
            );
            par_loop2_rows(
                &mut p,
                "consumer",
                mode,
                Range2::interior(n, n),
                &mut [&mut y],
                &[&x, &a],
                2.0,
                |_j, out, ins| {
                    for ((o, s), t) in out.row(0).iter_mut().zip(ins.row(0)).zip(ins.row(1)) {
                        *o = s * s - t;
                    }
                },
            );
            y
        };
        let run_fused = |mode: ExecMode| {
            let mut p = Profile::new();
            let mut a = Dat2::<f64>::new("a", n, n, 1);
            let mut x = Dat2::<f64>::new("x", n, n, 1);
            let mut y = Dat2::<f64>::new("y", n, n, 1);
            a.init_with(|i, j| (i as f64).mul_add(0.37, j as f64 * 1.11));
            let plan = plan_with_group(&["producer", "consumer"]);
            // Store: [x, y] mutable, [a] read-only. Consumer reads x (index
            // 0, a radius-0 crossing from producer) and a (index 2).
            let loops = vec![
                FusedLoop2::new("producer", &[0], &[2], 1.0, |_j, out, ins| {
                    for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                        *o = s * 1.5 + 0.25;
                    }
                }),
                FusedLoop2::new("consumer", &[1], &[0, 2], 2.0, |_j, out, ins| {
                    for ((o, s), t) in out.row(0).iter_mut().zip(ins.row(0)).zip(ins.row(1)) {
                        *o = s * s - t;
                    }
                }),
            ];
            fused2_rows(
                &mut p,
                mode,
                Range2::interior(n, n),
                &mut [&mut x, &mut y],
                &[&a],
                &loops,
                &plan,
            )
            .expect("certified");
            assert_eq!(p.records().len(), 2, "one profile record per member");
            y
        };
        for mode in [ExecMode::Serial, ExecMode::Rayon] {
            let base = run_baseline(mode);
            let fused = run_fused(mode);
            for j in 0..n as isize {
                for i in 0..n as isize {
                    assert_eq!(base.get(i, j).to_bits(), fused.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn uncertified_fusion_is_refused() {
        let mut p = Profile::new();
        let mut x = Dat2::<f64>::new("x", 4, 4, 0);
        let plan = plan_with_group(&["someone", "else"]);
        let loops = vec![
            FusedLoop2::new("producer", &[0], &[], 0.0, |_j, _o, _i| {}),
            FusedLoop2::new("consumer", &[0], &[], 0.0, |_j, _o, _i| {}),
        ];
        let err = fused2_rows(
            &mut p,
            ExecMode::Serial,
            Range2::interior(4, 4),
            &mut [&mut x],
            &[],
            &loops,
            &plan,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::UncertifiedFusion { .. }));
    }

    #[test]
    fn fused_execution_refused_while_recording() {
        let plan = plan_with_group(&["producer", "consumer"]);
        let ((), _rec) = access::with_recording_full(|| {
            let mut p = Profile::new();
            let mut x = Dat2::<f64>::new("x", 4, 4, 0);
            let loops = vec![
                FusedLoop2::new("producer", &[0], &[], 0.0, |_j, _o, _i| {}),
                FusedLoop2::new("consumer", &[0], &[], 0.0, |_j, _o, _i| {}),
            ];
            let err = fused2_rows(
                &mut p,
                ExecMode::Serial,
                Range2::interior(4, 4),
                &mut [&mut x],
                &[],
                &loops,
                &plan,
            )
            .unwrap_err();
            assert_eq!(err, PlanError::RecordingActive);
        });
    }

    #[test]
    fn fused3_group_is_bit_identical_to_sequential() {
        let (nx, ny, nz) = (19usize, 11usize, 7usize);
        let mut p = Profile::new();
        let mut src = Dat3::<f64>::new("src", nx, ny, nz, 1);
        src.init_with(|i, j, k| (i + 3 * j + 7 * k) as f64 * 0.01 - 1.0);
        let mut w_base = Dat3::<f64>::new("w", nx, ny, nz, 1);
        let mut r_base = Dat3::<f64>::new("r", nx, ny, nz, 1);
        let range = Range3::interior(nx, ny, nz);
        par_loop3_planes(
            &mut p,
            "deriv",
            ExecMode::Rayon,
            range,
            &mut [&mut w_base],
            &[&src],
            2.0,
            |_j, _k, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = 2.0 * s + 1.0;
                }
            },
        );
        par_loop3_planes(
            &mut p,
            "combine",
            ExecMode::Rayon,
            range,
            &mut [&mut r_base],
            &[&src],
            1.0,
            |_j, _k, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = s - 0.5;
                }
            },
        );

        let mut w_f = Dat3::<f64>::new("w", nx, ny, nz, 1);
        let mut r_f = Dat3::<f64>::new("r", nx, ny, nz, 1);
        let plan = plan_with_group(&["deriv", "combine"]);
        let loops = vec![
            FusedLoop3::new("deriv", &[0], &[2], 2.0, |_j, _k, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = 2.0 * s + 1.0;
                }
            }),
            FusedLoop3::new("combine", &[1], &[2], 1.0, |_j, _k, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = s - 0.5;
                }
            }),
        ];
        fused3_planes(
            &mut p,
            ExecMode::Rayon,
            range,
            &mut [&mut w_f, &mut r_f],
            &[&src],
            &loops,
            &plan,
        )
        .expect("certified");
        for k in 0..nz as isize {
            for j in 0..ny as isize {
                for i in 0..nx as isize {
                    assert_eq!(w_base.get(i, j, k).to_bits(), w_f.get(i, j, k).to_bits());
                    assert_eq!(r_base.get(i, j, k).to_bits(), r_f.get(i, j, k).to_bits());
                }
            }
        }
    }

    #[test]
    fn nt_rows_driver_is_bit_identical() {
        let n = 41usize;
        let plan = OptPlan {
            app: "test".into(),
            nt: vec![NtCert {
                loop_name: "write".into(),
                dat: "dst".into(),
            }],
            ..OptPlan::default()
        };
        for mode in [ExecMode::Serial, ExecMode::Rayon] {
            let mut p = Profile::new();
            let mut src = Dat2::<f64>::new("src", n, n, 1);
            src.init_with(|i, j| ((i * 31 + j * 7) as f64).sin());
            let mut base = Dat2::<f64>::new("dst", n, n, 1);
            let mut opt = Dat2::<f64>::new("dst", n, n, 1);
            let k = |_j: isize, out: &mut RowOut2<f64>, ins: &RowIn2<f64>| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = s * 3.0 - 0.125;
                }
            };
            par_loop2_rows(
                &mut p,
                "write",
                mode,
                Range2::interior(n, n),
                &mut [&mut base],
                &[&src],
                2.0,
                k,
            );
            par_loop2_rows_nt(
                &mut p,
                "write",
                mode,
                Range2::interior(n, n),
                &mut [&mut opt],
                &[&src],
                2.0,
                &plan,
                k,
            );
            for j in 0..n as isize {
                for i in 0..n as isize {
                    assert_eq!(base.get(i, j).to_bits(), opt.get(i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn nt_planes_driver_is_bit_identical_with_mixed_outputs() {
        let (nx, ny, nz) = (23usize, 9usize, 6usize);
        // Only `u_next` is certified; `aux` must keep writing directly.
        let plan = OptPlan {
            app: "test".into(),
            nt: vec![NtCert {
                loop_name: "update".into(),
                dat: "u_next".into(),
            }],
            ..OptPlan::default()
        };
        for mode in [ExecMode::Serial, ExecMode::Rayon] {
            let mut p = Profile::new();
            let mut src = Dat3::<f32>::new("src", nx, ny, nz, 2);
            src.init_with(|i, j, k| (i as f32) * 0.5 - (j as f32) * 0.25 + (k as f32));
            let mut b0 = Dat3::<f32>::new("u_next", nx, ny, nz, 2);
            let mut b1 = Dat3::<f32>::new("aux", nx, ny, nz, 2);
            let mut o0 = Dat3::<f32>::new("u_next", nx, ny, nz, 2);
            let mut o1 = Dat3::<f32>::new("aux", nx, ny, nz, 2);
            let k = |_j: isize, _k: isize, out: &mut RowOut3<f32>, ins: &RowIn3<f32>| {
                let (a, b) = out.rows2(0, 1);
                let left = ins.row_off(0, -1, 0, 0);
                let right = ins.row_off(0, 1, 0, 0);
                for ((o, l), r) in a.iter_mut().zip(left).zip(right) {
                    *o = 0.5 * (l + r);
                }
                for (o, s) in b.iter_mut().zip(ins.row(0)) {
                    *o = -s;
                }
            };
            par_loop3_planes(
                &mut p,
                "update",
                mode,
                Range3::interior(nx, ny, nz),
                &mut [&mut b0, &mut b1],
                &[&src],
                2.0,
                k,
            );
            par_loop3_planes_nt(
                &mut p,
                "update",
                mode,
                Range3::interior(nx, ny, nz),
                &mut [&mut o0, &mut o1],
                &[&src],
                2.0,
                &plan,
                k,
            );
            for k in 0..nz as isize {
                for j in 0..ny as isize {
                    for i in 0..nx as isize {
                        assert_eq!(b0.get(i, j, k).to_bits(), o0.get(i, j, k).to_bits());
                        assert_eq!(b1.get(i, j, k).to_bits(), o1.get(i, j, k).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn nt_driver_with_uncertified_plan_matches_plain_path() {
        // Nothing certified: the driver must silently take the plain path.
        let plan = OptPlan::default();
        let mut p = Profile::new();
        let n = 9usize;
        let src = Dat2::<f64>::new("src", n, n, 0);
        let mut dst = Dat2::<f64>::new("dst", n, n, 0);
        par_loop2_rows_nt(
            &mut p,
            "write",
            ExecMode::Serial,
            Range2::interior(n, n),
            &mut [&mut dst],
            &[&src],
            0.0,
            &plan,
            |_j, out, ins| {
                for (o, s) in out.row(0).iter_mut().zip(ins.row(0)) {
                    *o = s + 1.0;
                }
            },
        );
        assert_eq!(dst.get(0, 0), 1.0);
        assert_eq!(p.records().len(), 1);
    }
}
