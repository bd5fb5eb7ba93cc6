//! The host roof: STREAM triad and copy measured with the repository's
//! own `bwb_stream::BabelStream` kernels on this host, at one and two
//! threads, over arrays at least four times the last-level cache. Every
//! `roof_pct` the benchmark reports divides by these numbers, never by a
//! modelled platform's bandwidth. Also the host-speed calibration that
//! app step times are scaled by ([`Calibrator`]).

use bwb_stream::{BabelStream, Kernel, Par};

/// Last-level cache size assumed where the CPU cannot be asked.
const FALLBACK_LLC_BYTES: usize = 32 << 20;

/// Each STREAM array is at least this many times the last-level cache.
pub const LLC_MULTIPLE: usize = 4;

/// Timed repetitions per STREAM kernel; the best is kept.
const ROOF_REPS: usize = 4;

/// Measured roof of this host.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roof {
    /// Last-level cache, bytes (from CPUID where available).
    pub llc_bytes: usize,
    /// Whether `llc_bytes` came from the CPU (`false` = fallback guess).
    pub llc_measured: bool,
    /// Bytes of one STREAM array.
    pub array_bytes: usize,
    pub triad_gbs_1t: f64,
    pub triad_gbs_2t: f64,
    pub copy_gbs_1t: f64,
}

impl Roof {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"llc_bytes\":{},\"llc_measured\":{},\"array_bytes\":{},\
             \"triad_gbs_1t\":{},\"triad_gbs_2t\":{},\"copy_gbs_1t\":{}}}",
            self.llc_bytes,
            self.llc_measured,
            self.array_bytes,
            self.triad_gbs_1t,
            self.triad_gbs_2t,
            self.copy_gbs_1t
        )
    }
}

/// Size of the largest data or unified cache CPUID describes, if any.
#[cfg(target_arch = "x86_64")]
pub fn llc_bytes() -> Option<usize> {
    use std::arch::x86_64::__cpuid_count;
    // Intel enumerates caches under leaf 4, AMD under 0x8000_001D; both
    // use the same register layout.
    let vendor = __cpuid_count(0, 0);
    let leaf = if vendor.ebx == u32::from_le_bytes(*b"Auth") {
        0x8000_001D
    } else {
        4
    };
    let mut best: Option<(u32, usize)> = None;
    for sub in 0..16 {
        let r = __cpuid_count(leaf, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if kind == 2 {
            continue; // instruction cache
        }
        let level = (r.eax >> 5) & 0x7;
        let ways = ((r.ebx >> 22) & 0x3ff) as usize + 1;
        let parts = ((r.ebx >> 12) & 0x3ff) as usize + 1;
        let line = (r.ebx & 0xfff) as usize + 1;
        let sets = r.ecx as usize + 1;
        let size = ways * parts * line * sets;
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, size));
        }
    }
    best.map(|(_, size)| size)
}

#[cfg(not(target_arch = "x86_64"))]
pub fn llc_bytes() -> Option<usize> {
    None
}

/// Best-of-[`ROOF_REPS`] bandwidth of kernel `k` on `s`, GB/s.
fn best_gbs(s: &mut BabelStream, k: Kernel) -> f64 {
    (0..ROOF_REPS)
        .map(|_| s.run_kernel(k).bandwidth_gbs)
        .fold(0.0, f64::max)
}

/// Measure the roof: the best of [`ROOF_REPS`] timed repetitions per
/// kernel (BabelStream's convention: the roof is what the host can
/// reach). The two-thread figures run on the `rayon` pool, sized by the
/// caller.
pub fn measure() -> Roof {
    let (llc, llc_measured) = match llc_bytes() {
        Some(b) => (b, true),
        None => (FALLBACK_LLC_BYTES, false),
    };
    let n = LLC_MULTIPLE * llc / std::mem::size_of::<f64>();
    let (triad_gbs_1t, copy_gbs_1t) = {
        let mut s = BabelStream::new(n, Par::Serial);
        s.run_kernel(Kernel::Triad); // first pass: page-table warm-up
        (
            best_gbs(&mut s, Kernel::Triad),
            best_gbs(&mut s, Kernel::Copy),
        )
    };
    let triad_gbs_2t = {
        let mut s = BabelStream::new(n, Par::Rayon);
        s.run_kernel(Kernel::Triad);
        best_gbs(&mut s, Kernel::Triad)
    };
    Roof {
        llc_bytes: llc,
        llc_measured,
        array_bytes: n * std::mem::size_of::<f64>(),
        triad_gbs_1t,
        triad_gbs_2t,
        copy_gbs_1t,
    }
}

/// Edge of the calibration grid: two f64 arrays of 180² (~260 KB each)
/// that stay in a core's L2.
const CAL_EDGE: usize = 180;
const CAL_SWEEPS: usize = 10;
/// Elements between the stencil's input grid and its output grid. Two
/// separately allocated grids land at addresses that differ by a multiple
/// of 4 KiB in some processes and not in others. In the first case every
/// store to the output falsely aliases the next loads from the input, and
/// the sweep runs up to 3× slower. One buffer with the output half a page
/// off the input keeps the sweep's speed the same in every process.
const CAL_GAP: usize = {
    let n = CAL_EDGE * CAL_EDGE;
    let off = (n * 8) % 4096;
    n + ((2048 + 4096 - off) % 4096) / 8
};
/// The stencil's time on the reference VM in a typical phase, ms.
const CAL_REFERENCE_MS: f64 = 0.3;

/// A fixed kernel timed right before every app step and set-up, whose
/// time tracks how fast the shared host runs at that moment.
///
/// On the reference VM, app steps slow by up to 30% in phases lasting
/// seconds to minutes when neighbours load the machine. STREAM triad and a
/// dependent FP chain do not follow those phases. This L2-resident 5-point
/// stencil does: CloverLeaf cycle ÷ stencil time stayed within ±5% over
/// 90 s while the cycle alone moved by ±25%. The kernel belongs to the
/// benchmark, and an untimed sweep first brings both grids into L2, so
/// the reading does not depend on what the step before left in the
/// caches.
pub struct Calibrator {
    /// Input then output grid, [`CAL_GAP`] apart.
    buf: Vec<f64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let n = CAL_EDGE * CAL_EDGE;
        let mut buf = vec![0.0; CAL_GAP + n];
        for (i, x) in buf[..n].iter_mut().enumerate() {
            *x = (i % 17) as f64;
        }
        Calibrator { buf }
    }

    /// Run the stencil once: its time ÷ its reference time. 1 means the
    /// host runs at its typical speed; 1.2 means 20% slower.
    pub fn slowdown(&mut self) -> f64 {
        self.sweep();
        let t = std::time::Instant::now();
        for _ in 0..CAL_SWEEPS {
            self.sweep();
        }
        t.elapsed().as_secs_f64() * 1e3 / CAL_REFERENCE_MS
    }

    fn sweep(&mut self) {
        let m = CAL_EDGE;
        let (a, out) = self.buf.split_at_mut(CAL_GAP);
        let a = std::hint::black_box(&*a);
        for j in 1..m - 1 {
            for i in 1..m - 1 {
                let c = j * m + i;
                out[c] = 0.5 * a[c] + 0.125 * (a[c - 1] + a[c + 1] + a[c - m] + a[c + m]);
            }
        }
        std::hint::black_box(&*out);
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}
