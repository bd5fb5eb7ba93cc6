//! Direct and indirect parallel loops over unstructured sets.
//!
//! * [`par_loop_direct`] — every element writes only its own entries;
//!   trivially parallel.
//! * [`par_loop_colored`] — elements make *indirect* increments through
//!   maps; parallel execution proceeds color class by color class using a
//!   [`Coloring`] whose conflict-freedom guarantees race-freedom (OP2's
//!   OpenMP scheme).
//! * [`par_loop_gather`] — the "MPI vec" execution shape: elements are
//!   processed in fixed-width lanes with explicit gather/scatter staging
//!   buffers, and the extra staged bytes are recorded so the performance
//!   model can price the pack/unpack overhead the paper describes in §6.

use crate::access::{self, UKind, UScheduleObs};
use crate::color::{BlockColoring, Coloring};
use crate::set::DatU;
use bwb_ops::Profile;
use rayon::prelude::*;
use std::time::Instant;

/// Unstructured execution backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecModeU {
    /// Sequential over elements (pure MPI per-rank execution).
    Serial,
    /// Thread-parallel within each color class (the OpenMP backend).
    Colored,
}

/// Write view over one unstructured dataset.
///
/// Safety discipline mirrors `bwb-ops`: constructed by the drivers from
/// `&mut DatU` (exclusive for the loop's duration); parallel disjointness is
/// guaranteed by the coloring contract (no two same-color elements share an
/// indirect target) or by direct loops writing only their own element.
#[derive(Clone, Copy)]
struct WViewU<T> {
    ptr: *mut T,
    dim: usize,
    len: usize,
}

// SAFETY: the view is a raw base + extent over a `DatU` exclusively borrowed
// by the driver for the loop's duration; sending it to worker threads moves
// only the pointer, and the coloring / own-element contracts (type docs)
// keep concurrent element writes disjoint.
unsafe impl<T: Send> Send for WViewU<T> {}
// SAFETY: shared references only expose `write`/`read`, whose target
// disjointness across threads is guaranteed by the same driver contracts.
unsafe impl<T: Send> Sync for WViewU<T> {}

impl<T: Copy> WViewU<T> {
    #[inline]
    fn index(&self, e: usize, c: usize) -> usize {
        debug_assert!(c < self.dim);
        let idx = e * self.dim + c;
        assert!(
            idx < self.len,
            "write at element {e} comp {c} outside dataset"
        );
        idx
    }

    #[inline]
    fn write(&self, e: usize, c: usize, v: T) {
        let idx = self.index(e, c);
        // SAFETY: bounds asserted; disjointness per the driver contract.
        unsafe { *self.ptr.add(idx) = v }
    }

    #[inline]
    fn read(&self, e: usize, c: usize) -> T {
        let idx = self.index(e, c);
        // SAFETY: as in `write`.
        unsafe { *self.ptr.add(idx) }
    }
}

/// Kernel accessor over the output datasets. Unlike the structured case the
/// element index is explicit, because indirect loops write *mapped* targets.
pub struct UOut<'a, T> {
    views: &'a [WViewU<T>],
}

impl<T: Copy> UOut<'_, T> {
    /// Overwrite component `c` of element `e` of output dataset `f`.
    #[inline]
    pub fn set(&self, f: usize, e: usize, c: usize, v: T) {
        if access::recording_active_u() {
            access::note_access(f, e, UKind::Set);
        }
        self.views[f].write(e, c, v);
    }

    /// Read back (for read-modify-write of owned targets).
    #[inline]
    pub fn get(&self, f: usize, e: usize, c: usize) -> T {
        if access::recording_active_u() {
            access::note_access(f, e, UKind::Get);
        }
        self.views[f].read(e, c)
    }
}

impl UOut<'_, f64> {
    /// Increment — the canonical OP2 indirect access (`OP_INC`).
    #[inline]
    pub fn add(&self, f: usize, e: usize, c: usize, v: f64) {
        if access::recording_active_u() {
            access::note_access(f, e, UKind::Inc);
        }
        let cur = self.views[f].read(e, c);
        self.views[f].write(e, c, cur + v);
    }
}

impl UOut<'_, f32> {
    #[inline]
    pub fn add32(&self, f: usize, e: usize, c: usize, v: f32) {
        if access::recording_active_u() {
            access::note_access(f, e, UKind::Inc);
        }
        let cur = self.views[f].read(e, c);
        self.views[f].write(e, c, cur + v);
    }
}

fn uviews<T: Copy>(outs: &mut [&mut DatU<T>]) -> Vec<WViewU<T>> {
    outs.iter_mut()
        .map(|d| WViewU {
            ptr: d.raw_mut().as_mut_ptr(),
            dim: d.dim,
            len: d.raw().len(),
        })
        .collect()
}

/// Direct loop: `kernel(e, out)` may write only element `e` of each output.
#[allow(clippy::too_many_arguments)]
pub fn par_loop_direct<T, F>(
    profile: &mut Profile,
    name: &str,
    mode: ExecModeU,
    set_size: usize,
    outs: &mut [&mut DatU<T>],
    bytes_per_elem: usize,
    flops_per_elem: f64,
    kernel: F,
) where
    T: Copy + Send + Sync,
    F: Fn(usize, &UOut<T>) + Sync,
{
    let recording = access::recording_active_u();
    let mode = if recording { ExecModeU::Serial } else { mode };
    if recording {
        access::begin_uloop(
            name,
            set_size,
            outs.iter().map(|d| d.name.clone()).collect(),
            UScheduleObs::Direct,
        );
    }
    let views = uviews(outs);
    let body = |e: usize| {
        let out = UOut { views: &views };
        kernel(e, &out);
    };
    let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
    let t0 = Instant::now();
    match mode {
        ExecModeU::Serial => {
            for e in 0..set_size {
                if recording {
                    access::set_current(e);
                }
                body(e);
            }
        }
        ExecModeU::Colored => (0..set_size).into_par_iter().for_each(body),
    }
    let seconds = t0.elapsed().as_secs_f64();
    tspan.set_args(
        (set_size * bytes_per_elem) as f64,
        set_size as f64 * flops_per_elem,
        set_size as f64,
    );
    drop(tspan);
    if recording {
        access::end_uloop();
    }
    profile.record(
        name,
        set_size,
        set_size * bytes_per_elem,
        set_size as f64 * flops_per_elem,
        seconds,
    );
}

/// Indirect loop: `kernel(e, out)` may increment mapped targets; the
/// `coloring` must be conflict-free for every map the kernel writes through
/// (build it with [`Coloring::greedy`] over those maps).
#[allow(clippy::too_many_arguments)]
pub fn par_loop_colored<T, F>(
    profile: &mut Profile,
    name: &str,
    mode: ExecModeU,
    coloring: &Coloring,
    outs: &mut [&mut DatU<T>],
    bytes_per_elem: usize,
    flops_per_elem: f64,
    kernel: F,
) where
    T: Copy + Send + Sync,
    F: Fn(usize, &UOut<T>) + Sync,
{
    let set_size = coloring.colors.len();
    let recording = access::recording_active_u();
    let mode = if recording { ExecModeU::Serial } else { mode };
    if recording {
        access::begin_uloop(
            name,
            set_size,
            outs.iter().map(|d| d.name.clone()).collect(),
            UScheduleObs::Colored {
                colors: coloring.colors.clone(),
                n_colors: coloring.n_colors,
            },
        );
    }
    let views = uviews(outs);
    let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
    let t0 = Instant::now();
    match mode {
        ExecModeU::Serial => {
            // Sequential: element order, ignoring colors (no races possible).
            let out = UOut { views: &views };
            for e in 0..set_size {
                if recording {
                    access::set_current(e);
                }
                kernel(e, &out);
            }
        }
        ExecModeU::Colored => {
            for (color, class) in coloring.by_color.iter().enumerate() {
                let mut cspan = bwb_trace::span(bwb_trace::Cat::Color, "color_round");
                cspan.set_args(color as f64, class.len() as f64, 0.0);
                class.par_iter().for_each(|&e| {
                    let out = UOut { views: &views };
                    kernel(e as usize, &out);
                });
            }
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    tspan.set_args(
        (set_size * bytes_per_elem) as f64,
        set_size as f64 * flops_per_elem,
        set_size as f64,
    );
    drop(tspan);
    if recording {
        access::end_uloop();
    }
    profile.record(
        name,
        set_size,
        set_size * bytes_per_elem,
        set_size as f64 * flops_per_elem,
        seconds,
    );
}

/// Indirect loop executed at *block* granularity: within each block color
/// the blocks run in parallel, and each block's elements run sequentially
/// in ascending order. One parallel region (and barrier) per block color —
/// typically far fewer than the element-granularity schedule needs — and
/// each task touches consecutive elements, restoring gather locality.
///
/// The `coloring` must be conflict-free for every map the kernel writes
/// through (build it with [`BlockColoring::greedy`] over those maps).
#[allow(clippy::too_many_arguments)]
pub fn par_loop_block_colored<T, F>(
    profile: &mut Profile,
    name: &str,
    mode: ExecModeU,
    coloring: &BlockColoring,
    outs: &mut [&mut DatU<T>],
    bytes_per_elem: usize,
    flops_per_elem: f64,
    kernel: F,
) where
    T: Copy + Send + Sync,
    F: Fn(usize, &UOut<T>) + Sync,
{
    let set_size = coloring.set_size;
    let recording = access::recording_active_u();
    let mode = if recording { ExecModeU::Serial } else { mode };
    if recording {
        // Expand block colors to per-element colors so analyzers see one
        // uniform schedule shape.
        let colors: Vec<u32> = (0..set_size)
            .map(|e| coloring.block_colors[e / coloring.block_size])
            .collect();
        access::begin_uloop(
            name,
            set_size,
            outs.iter().map(|d| d.name.clone()).collect(),
            UScheduleObs::Colored {
                colors,
                n_colors: coloring.n_colors,
            },
        );
    }
    let views = uviews(outs);
    let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
    let t0 = Instant::now();
    match mode {
        ExecModeU::Serial => {
            let out = UOut { views: &views };
            for e in 0..set_size {
                if recording {
                    access::set_current(e);
                }
                kernel(e, &out);
            }
        }
        ExecModeU::Colored => {
            for (color, class) in coloring.by_color.iter().enumerate() {
                let mut cspan = bwb_trace::span(bwb_trace::Cat::Color, "color_round");
                // Elements, not blocks: the per-round work actually executed.
                let elems: usize = class
                    .iter()
                    .map(|&b| coloring.block_range(b as usize).len())
                    .sum();
                cspan.set_args(color as f64, elems as f64, 0.0);
                class.par_iter().for_each(|&b| {
                    let out = UOut { views: &views };
                    for e in coloring.block_range(b as usize) {
                        kernel(e, &out);
                    }
                });
            }
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    tspan.set_args(
        (set_size * bytes_per_elem) as f64,
        set_size as f64 * flops_per_elem,
        set_size as f64,
    );
    drop(tspan);
    if recording {
        access::end_uloop();
    }
    profile.record(
        name,
        set_size,
        set_size * bytes_per_elem,
        set_size as f64 * flops_per_elem,
        seconds,
    );
}

/// One staged indirect write of the gather/scatter shape.
#[derive(Clone, Copy)]
struct StagedWrite<T> {
    f: u32,
    e: u32,
    c: u32,
    v: T,
    /// `true` for increments (`OP_INC`), `false` for overwrites.
    inc: bool,
}

/// Reusable pack/unpack staging for [`par_loop_gather`].
///
/// OP2's vectorized generated code stages indirect operands through
/// per-thread scratch buffers that live across loop invocations; holding a
/// `GatherScratch` at the call site and passing it to every invocation
/// mirrors that — the scatter buffer is allocated once and reused across
/// lane batches *and* across calls, instead of a fresh `Vec` each time.
#[derive(Default)]
pub struct GatherScratch<T> {
    staged: Vec<StagedWrite<T>>,
}

impl<T> GatherScratch<T> {
    pub fn new() -> Self {
        GatherScratch { staged: Vec::new() }
    }
}

/// Kernel accessor for the gather/scatter shape: indirect writes are staged
/// into the scatter buffer and applied in element order when the lane batch
/// completes, like OP2's pack/unpack code. `get` reads the pre-batch value
/// (kernels of the vec shape do not read targets they increment — the
/// standard `OP_INC` contract).
pub struct UStage<'a, T> {
    views: &'a [WViewU<T>],
    staged: &'a std::cell::RefCell<Vec<StagedWrite<T>>>,
}

impl<T: Copy> UStage<'_, T> {
    /// Stage an overwrite of component `c` of element `e` of dataset `f`.
    #[inline]
    pub fn set(&self, f: usize, e: usize, c: usize, v: T) {
        if access::recording_active_u() {
            access::note_access(f, e, UKind::Set);
        }
        self.staged.borrow_mut().push(StagedWrite {
            f: f as u32,
            e: e as u32,
            c: c as u32,
            v,
            inc: false,
        });
    }

    /// Stage an increment — the canonical OP2 indirect access (`OP_INC`).
    #[inline]
    pub fn add(&self, f: usize, e: usize, c: usize, v: T) {
        if access::recording_active_u() {
            access::note_access(f, e, UKind::Inc);
        }
        self.staged.borrow_mut().push(StagedWrite {
            f: f as u32,
            e: e as u32,
            c: c as u32,
            v,
            inc: true,
        });
    }

    /// Read the pre-batch value (staged writes of this batch are invisible).
    #[inline]
    pub fn get(&self, f: usize, e: usize, c: usize) -> T {
        if access::recording_active_u() {
            access::note_access(f, e, UKind::Get);
        }
        self.views[f].read(e, c)
    }
}

/// Gather/scatter ("MPI vec") loop shape: elements are processed serially in
/// lanes of `lanes`, with indirect writes staged through the reusable
/// scatter buffer in `scratch` and applied in element order at the end of
/// each batch. Functionally identical to a serial loop for the vec-shape
/// access contract (indirect targets written by increments, not read in the
/// same batch); the staged bytes (`indirect_bytes_per_elem × set_size`,
/// both directions) are added to the loop's byte account, which is how the
/// pack/unpack overhead of the paper's vectorized implementation enters the
/// performance model.
#[allow(clippy::too_many_arguments)]
pub fn par_loop_gather<T, F>(
    profile: &mut Profile,
    name: &str,
    lanes: usize,
    set_size: usize,
    outs: &mut [&mut DatU<T>],
    scratch: &mut GatherScratch<T>,
    bytes_per_elem: usize,
    indirect_bytes_per_elem: usize,
    flops_per_elem: f64,
    kernel: F,
) where
    T: Copy + Send + Sync + std::ops::Add<Output = T>,
    F: Fn(usize, &UStage<T>),
{
    assert!(lanes >= 1);
    let recording = access::recording_active_u();
    if recording {
        access::begin_uloop(
            name,
            set_size,
            outs.iter().map(|d| d.name.clone()).collect(),
            UScheduleObs::Gather,
        );
    }
    let views = uviews(outs);
    let staged = std::cell::RefCell::new(std::mem::take(&mut scratch.staged));
    let mut tspan = bwb_trace::span(bwb_trace::Cat::Loop, name);
    let t0 = Instant::now();
    let mut e = 0;
    while e < set_size {
        let hi = (e + lanes).min(set_size);
        // "Gather"/compute: kernels read operands and stage their indirect
        // writes into the scatter buffer.
        {
            let _g = bwb_trace::span(bwb_trace::Cat::Other, "gather_batch");
            let out = UStage {
                views: &views,
                staged: &staged,
            };
            for ee in e..hi {
                if recording {
                    access::set_current(ee);
                }
                kernel(ee, &out);
            }
        }
        // "Scatter": apply the batch in element order (drain keeps the
        // buffer's capacity for the next batch).
        {
            let _s = bwb_trace::span(bwb_trace::Cat::Other, "scatter_batch");
            for w in staged.borrow_mut().drain(..) {
                let view = &views[w.f as usize];
                let v = if w.inc {
                    view.read(w.e as usize, w.c as usize) + w.v
                } else {
                    w.v
                };
                view.write(w.e as usize, w.c as usize, v);
            }
        }
        e = hi;
    }
    let seconds = t0.elapsed().as_secs_f64();
    tspan.set_args(
        (set_size * (bytes_per_elem + 2 * indirect_bytes_per_elem)) as f64,
        set_size as f64 * flops_per_elem,
        set_size as f64,
    );
    drop(tspan);
    if recording {
        access::end_uloop();
    }
    scratch.staged = staged.into_inner();
    profile.record(
        name,
        set_size,
        set_size * (bytes_per_elem + 2 * indirect_bytes_per_elem),
        set_size as f64 * flops_per_elem,
        seconds,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::{Map, Set};

    fn ring_mesh(n: usize) -> (Set, Set, Map) {
        let nodes = Set::new("nodes", n);
        let edges = Set::new("edges", n);
        let idx: Vec<u32> = (0..n)
            .flat_map(|e| [e as u32, ((e + 1) % n) as u32])
            .collect();
        let map = Map::new("e2n", &edges, &nodes, 2, idx);
        (nodes, edges, map)
    }

    #[test]
    fn direct_loop_writes_own_element() {
        let s = Set::new("s", 10);
        let mut d = DatU::<f64>::new("d", &s, 2);
        let mut p = Profile::new();
        par_loop_direct(
            &mut p,
            "init",
            ExecModeU::Colored,
            10,
            &mut [&mut d],
            16,
            0.0,
            |e, out| {
                out.set(0, e, 0, e as f64);
                out.set(0, e, 1, -(e as f64));
            },
        );
        assert_eq!(d.get(7, 0), 7.0);
        assert_eq!(d.get(7, 1), -7.0);
    }

    #[test]
    fn colored_indirect_increment_matches_serial() {
        let n = 101;
        let (nodes, _edges, map) = ring_mesh(n);
        let coloring = Coloring::greedy(n, &[&map]);
        assert!(coloring.validate(&[&map]));

        let run = |mode: ExecModeU| {
            let mut acc = DatU::<f64>::new("acc", &nodes, 1);
            let mut p = Profile::new();
            let m = &map;
            par_loop_colored(
                &mut p,
                "inc",
                mode,
                &coloring,
                &mut [&mut acc],
                16,
                2.0,
                |e, out| {
                    let w = (e + 1) as f64;
                    out.add(0, m.get(e, 0), 0, w);
                    out.add(0, m.get(e, 1), 0, -0.5 * w);
                },
            );
            acc
        };
        let serial = run(ExecModeU::Serial);
        let colored = run(ExecModeU::Colored);
        assert_eq!(serial.max_abs_diff(&colored), 0.0);
        // Conservation check: each edge adds w - w/2 = w/2 in total.
        let expect: f64 = (1..=n).map(|w| w as f64 * 0.5).sum();
        assert!((serial.sum() - expect).abs() < 1e-9);
    }

    #[test]
    fn gather_loop_matches_and_accounts_staging() {
        let n = 64;
        let (nodes, _edges, map) = ring_mesh(n);
        let mut acc_ref = DatU::<f64>::new("r", &nodes, 1);
        let mut acc_vec = DatU::<f64>::new("v", &nodes, 1);
        let coloring = Coloring::trivial(n);
        let mut p1 = Profile::new();
        let mut p2 = Profile::new();
        let m = &map;
        par_loop_colored(
            &mut p1,
            "k",
            ExecModeU::Serial,
            &coloring,
            &mut [&mut acc_ref],
            8,
            1.0,
            |e, out| {
                out.add(0, m.get(e, 0), 0, 1.0);
            },
        );
        let mut scratch = GatherScratch::new();
        par_loop_gather(
            &mut p2,
            "k",
            8,
            n,
            &mut [&mut acc_vec],
            &mut scratch,
            8,
            16,
            1.0,
            |e, out| {
                out.add(0, m.get(e, 0), 0, 1.0);
            },
        );
        assert_eq!(acc_ref.max_abs_diff(&acc_vec), 0.0);
        // Vec loop accounts 8 + 2×16 bytes per element.
        assert_eq!(p2.get("k").unwrap().bytes, n * 40);
        assert_eq!(p1.get("k").unwrap().bytes, n * 8);
    }

    #[test]
    fn block_colored_indirect_increment_matches_serial() {
        let n = 97;
        let (nodes, _edges, map) = ring_mesh(n);
        for block_size in [1usize, 4, 16, 97] {
            let coloring = BlockColoring::greedy(n, block_size, &[&map]);
            assert!(coloring.validate(&[&map]));
            let run = |mode: ExecModeU| {
                let mut acc = DatU::<f64>::new("acc", &nodes, 1);
                let mut p = Profile::new();
                let m = &map;
                par_loop_block_colored(
                    &mut p,
                    "inc",
                    mode,
                    &coloring,
                    &mut [&mut acc],
                    16,
                    2.0,
                    |e, out| {
                        let w = (e + 1) as f64;
                        out.add(0, m.get(e, 0), 0, w);
                        out.add(0, m.get(e, 1), 0, -0.5 * w);
                    },
                );
                (acc, p)
            };
            let (serial, ps) = run(ExecModeU::Serial);
            let (colored, pc) = run(ExecModeU::Colored);
            assert_eq!(
                serial.max_abs_diff(&colored),
                0.0,
                "block_size={block_size}"
            );
            // Accounting identical between modes.
            assert_eq!(ps.get("inc").unwrap().bytes, pc.get("inc").unwrap().bytes);
            assert_eq!(ps.get("inc").unwrap().points, n);
        }
    }

    #[test]
    fn gather_scratch_reused_across_calls() {
        let n = 32;
        let (nodes, _edges, map) = ring_mesh(n);
        let mut acc = DatU::<f64>::new("acc", &nodes, 1);
        let mut scratch = GatherScratch::new();
        let m = &map;
        let mut p = Profile::new();
        for _ in 0..3 {
            par_loop_gather(
                &mut p,
                "k",
                4,
                n,
                &mut [&mut acc],
                &mut scratch,
                8,
                16,
                1.0,
                |e, out| {
                    out.add(0, m.get(e, 0), 0, 1.0);
                },
            );
        }
        // Buffer kept its capacity (one batch's worth of staged writes) and
        // every call produced the same increments.
        assert!(scratch.staged.capacity() >= 4);
        assert!(scratch.staged.is_empty());
        assert_eq!(acc.sum(), 3.0 * n as f64);
        assert_eq!(p.get("k").unwrap().calls, 3);
    }

    #[test]
    fn staged_set_and_get_preserve_batch_semantics() {
        // `get` sees the pre-batch value; staged `set`s land at batch end
        // in element order (last writer wins).
        let s = Set::new("s", 4);
        let mut d = DatU::<f64>::new("d", &s, 1);
        d.fill(7.0);
        let mut p = Profile::new();
        let mut scratch = GatherScratch::new();
        par_loop_gather(
            &mut p,
            "k",
            4,
            4,
            &mut [&mut d],
            &mut scratch,
            8,
            0,
            0.0,
            |e, out| {
                // Every element overwrites slot 0; reads still see 7.0.
                assert_eq!(out.get(0, 0, 0), 7.0);
                out.set(0, 0, 0, e as f64);
            },
        );
        assert_eq!(d.get(0, 0), 3.0);
    }

    #[test]
    fn reading_back_written_values() {
        let s = Set::new("s", 4);
        let mut d = DatU::<f64>::new("d", &s, 1);
        d.fill(10.0);
        let mut p = Profile::new();
        par_loop_direct(
            &mut p,
            "rmw",
            ExecModeU::Serial,
            4,
            &mut [&mut d],
            8,
            1.0,
            |e, out| {
                let v = out.get(0, e, 0);
                out.set(0, e, 0, v * 2.0);
            },
        );
        assert_eq!(d.get(3, 0), 20.0);
    }

    #[test]
    fn f32_increments() {
        let s = Set::new("s", 3);
        let mut d = DatU::<f32>::new("d", &s, 1);
        let mut p = Profile::new();
        par_loop_direct(
            &mut p,
            "k",
            ExecModeU::Serial,
            3,
            &mut [&mut d],
            4,
            0.0,
            |e, out| {
                out.add32(0, e, 0, 1.5);
            },
        );
        assert_eq!(d.get(2, 0), 1.5);
    }

    #[test]
    fn empty_set_is_noop() {
        let s = Set::new("s", 0);
        let mut d = DatU::<f64>::new("d", &s, 1);
        let mut p = Profile::new();
        par_loop_direct(
            &mut p,
            "k",
            ExecModeU::Colored,
            0,
            &mut [&mut d],
            8,
            1.0,
            |_e, _o| panic!("must not run"),
        );
        assert_eq!(p.get("k").unwrap().points, 0);
    }
}
