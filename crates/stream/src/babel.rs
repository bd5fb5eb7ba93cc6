//! The BabelStream kernels, runnable on the host.
//!
//! Follows the reference implementation's conventions: three arrays
//! initialized to (0.1, 0.2, 0.0), a scalar of 0.4, and per-kernel
//! bytes-moved accounting of 2 or 3 array lengths.

use rayon::prelude::*;
use std::time::Instant;

/// Initial values from the BabelStream reference implementation.
pub const INIT_A: f64 = 0.1;
pub const INIT_B: f64 = 0.2;
pub const INIT_C: f64 = 0.0;
pub const SCALAR: f64 = 0.4;

/// Parallelization of the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Par {
    Serial,
    Rayon,
}

/// The benchmark kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    Copy,
    Mul,
    Add,
    Triad,
    Dot,
    Nstream,
}

impl Kernel {
    pub const ALL: [Kernel; 6] = [
        Kernel::Copy,
        Kernel::Mul,
        Kernel::Add,
        Kernel::Triad,
        Kernel::Dot,
        Kernel::Nstream,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Copy => "Copy",
            Kernel::Mul => "Mul",
            Kernel::Add => "Add",
            Kernel::Triad => "Triad",
            Kernel::Dot => "Dot",
            Kernel::Nstream => "Nstream",
        }
    }

    /// Arrays moved per element (the STREAM bytes convention).
    pub fn arrays_moved(self) -> usize {
        match self {
            Kernel::Copy | Kernel::Mul | Kernel::Dot => 2,
            Kernel::Add | Kernel::Triad => 3,
            Kernel::Nstream => 4,
        }
    }
}

/// One timed kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelResult {
    pub kernel: Kernel,
    pub seconds: f64,
    pub bytes: usize,
    pub bandwidth_gbs: f64,
}

/// The benchmark state: three working arrays.
pub struct BabelStream {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    par: Par,
}

impl BabelStream {
    pub fn new(n: usize, par: Par) -> Self {
        assert!(n > 0);
        BabelStream {
            a: vec![INIT_A; n],
            b: vec![INIT_B; n],
            c: vec![INIT_C; n],
            par,
        }
    }

    pub fn len(&self) -> usize {
        self.a.len()
    }

    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Working-set bytes across the three arrays.
    pub fn working_set_bytes(&self) -> usize {
        3 * self.a.len() * std::mem::size_of::<f64>()
    }

    fn map2(par: Par, dst: &mut [f64], src: &[f64], f: impl Fn(f64) -> f64 + Sync) {
        match par {
            Par::Serial => {
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = f(s);
                }
            }
            Par::Rayon => {
                dst.par_iter_mut()
                    .zip(src.par_iter())
                    .for_each(|(d, &s)| *d = f(s));
            }
        }
    }

    fn map3(par: Par, dst: &mut [f64], s1: &[f64], s2: &[f64], f: impl Fn(f64, f64) -> f64 + Sync) {
        match par {
            Par::Serial => {
                for i in 0..dst.len() {
                    dst[i] = f(s1[i], s2[i]);
                }
            }
            Par::Rayon => {
                dst.par_iter_mut()
                    .zip(s1.par_iter().zip(s2.par_iter()))
                    .for_each(|(d, (&x, &y))| *d = f(x, y));
            }
        }
    }

    /// c = a
    pub fn copy(&mut self) {
        Self::map2(self.par, &mut self.c, &self.a, |x| x);
    }

    /// b = s·c
    pub fn mul(&mut self) {
        Self::map2(self.par, &mut self.b, &self.c, |x| SCALAR * x);
    }

    /// c = a + b
    pub fn add(&mut self) {
        Self::map3(self.par, &mut self.c, &self.a, &self.b, |x, y| x + y);
    }

    /// a = b + s·c
    pub fn triad(&mut self) {
        Self::map3(self.par, &mut self.a, &self.b, &self.c, |x, y| {
            x + SCALAR * y
        });
    }

    /// a += b + s·c
    pub fn nstream(&mut self) {
        match self.par {
            Par::Serial => {
                for i in 0..self.a.len() {
                    self.a[i] += self.b[i] + SCALAR * self.c[i];
                }
            }
            Par::Rayon => {
                let (b, c) = (&self.b, &self.c);
                self.a
                    .par_iter_mut()
                    .enumerate()
                    .for_each(|(i, a)| *a += b[i] + SCALAR * c[i]);
            }
        }
    }

    /// sum(a·b)
    pub fn dot(&mut self) -> f64 {
        match self.par {
            Par::Serial => self.a.iter().zip(&self.b).map(|(&x, &y)| x * y).sum(),
            Par::Rayon => self
                .a
                .par_iter()
                .zip(self.b.par_iter())
                .map(|(&x, &y)| x * y)
                .sum(),
        }
    }

    /// Time one kernel once and compute its bandwidth.
    pub fn run_kernel(&mut self, k: Kernel) -> KernelResult {
        let n = self.len();
        let t0 = Instant::now();
        let mut _sink = 0.0;
        match k {
            Kernel::Copy => self.copy(),
            Kernel::Mul => self.mul(),
            Kernel::Add => self.add(),
            Kernel::Triad => self.triad(),
            Kernel::Dot => _sink = self.dot(),
            Kernel::Nstream => self.nstream(),
        }
        let seconds = t0.elapsed().as_secs_f64();
        std::hint::black_box(_sink);
        let bytes = k.arrays_moved() * n * std::mem::size_of::<f64>();
        KernelResult {
            kernel: k,
            seconds,
            bytes,
            bandwidth_gbs: if seconds > 0.0 {
                bytes as f64 / seconds / 1e9
            } else {
                0.0
            },
        }
    }

    /// Run the classic 5-kernel sequence `reps` times; returns the
    /// best-of-reps result per kernel (BabelStream's reporting convention).
    pub fn run(&mut self, reps: usize) -> Vec<KernelResult> {
        assert!(reps >= 1);
        let mut best: Vec<Option<KernelResult>> = vec![None; Kernel::ALL.len()];
        for _ in 0..reps {
            for (slot, &k) in best.iter_mut().zip(Kernel::ALL.iter()) {
                if k == Kernel::Nstream {
                    continue; // not part of the classic sequence
                }
                let r = self.run_kernel(k);
                let better = slot.is_none_or(|prev: KernelResult| r.seconds < prev.seconds);
                if better {
                    *slot = Some(r);
                }
            }
        }
        best.into_iter().flatten().collect()
    }

    /// Validate array contents after `reps` repetitions of the classic
    /// sequence, following the reference implementation's error check.
    /// Returns the max relative error across the three arrays.
    pub fn validate(&self, reps: usize) -> f64 {
        let (mut ga, mut gb, mut gc) = (INIT_A, INIT_B, INIT_C);
        for _ in 0..reps {
            gc = ga; // copy
            gb = SCALAR * gc; // mul
            gc = ga + gb; // add
            ga = gb + SCALAR * gc; // triad
        }
        let err = |arr: &[f64], gold: f64| -> f64 {
            arr.iter()
                .map(|v| ((v - gold) / gold).abs())
                .fold(0.0, f64::max)
        };
        err(&self.a, ga).max(err(&self.b, gb)).max(err(&self.c, gc))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compute_reference_values() {
        let mut s = BabelStream::new(1000, Par::Serial);
        s.copy();
        assert_eq!(s.c[0], INIT_A);
        s.mul();
        assert_eq!(s.b[0], SCALAR * INIT_A);
        s.add();
        assert_eq!(s.c[0], INIT_A + SCALAR * INIT_A);
        s.triad();
        let expect = SCALAR * INIT_A + SCALAR * (INIT_A + SCALAR * INIT_A);
        assert!((s.a[0] - expect).abs() < 1e-15);
    }

    #[test]
    fn serial_and_rayon_agree() {
        let run = |par: Par| {
            let mut s = BabelStream::new(4321, par);
            for _ in 0..3 {
                s.copy();
                s.mul();
                s.add();
                s.triad();
            }
            (s.a.clone(), s.b.clone(), s.c.clone(), s.dot())
        };
        let (a1, b1, c1, d1) = run(Par::Serial);
        let (a2, b2, c2, d2) = run(Par::Rayon);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_eq!(c1, c2);
        assert!((d1 - d2).abs() / d1.abs() < 1e-12);
    }

    #[test]
    fn validation_passes_after_full_sequence() {
        let mut s = BabelStream::new(512, Par::Serial);
        let reps = 10;
        for _ in 0..reps {
            s.copy();
            s.mul();
            s.add();
            s.triad();
        }
        assert!(s.validate(reps) < 1e-12);
    }

    #[test]
    fn dot_is_n_times_product_initially() {
        let mut s = BabelStream::new(100, Par::Serial);
        let d = s.dot();
        assert!((d - 100.0 * INIT_A * INIT_B).abs() < 1e-12);
    }

    #[test]
    fn nstream_accumulates() {
        let mut s = BabelStream::new(10, Par::Serial);
        s.nstream();
        let expect = INIT_A + INIT_B + SCALAR * INIT_C;
        assert!((s.a[0] - expect).abs() < 1e-15);
    }

    #[test]
    fn run_reports_all_five_kernels_with_positive_bandwidth() {
        let mut s = BabelStream::new(100_000, Par::Rayon);
        let results = s.run(2);
        assert_eq!(results.len(), 5);
        for r in &results {
            assert!(r.bandwidth_gbs > 0.0, "{:?}", r.kernel);
            assert_eq!(r.bytes % 8, 0);
        }
        // Triad moves 3 arrays, copy 2.
        let triad = results.iter().find(|r| r.kernel == Kernel::Triad).unwrap();
        let copy = results.iter().find(|r| r.kernel == Kernel::Copy).unwrap();
        assert_eq!(triad.bytes, copy.bytes / 2 * 3);
    }

    #[test]
    fn bytes_convention() {
        assert_eq!(Kernel::Copy.arrays_moved(), 2);
        assert_eq!(Kernel::Triad.arrays_moved(), 3);
        assert_eq!(Kernel::Dot.arrays_moved(), 2);
        assert_eq!(Kernel::Nstream.arrays_moved(), 4);
    }

    #[test]
    fn working_set_accounting() {
        let s = BabelStream::new(1024, Par::Serial);
        assert_eq!(s.working_set_bytes(), 3 * 1024 * 8);
    }
}
