//! Cartesian process topologies — the decomposition used by every
//! structured-mesh application in the paper ("a standard cartesian mesh
//! decomposition is used over MPI, with ghost cell exchanges triggered as
//! needed", §4).

/// A Cartesian layout of `size` ranks over `ndims` dimensions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CartComm {
    dims: Vec<usize>,
    periodic: Vec<bool>,
    size: usize,
}

/// Balanced factorization of `size` into `ndims` factors, largest first —
/// the spirit of `MPI_Dims_create`.
pub fn dims_create(size: usize, ndims: usize) -> Vec<usize> {
    assert!(size > 0 && ndims > 0);
    let mut dims = vec![1usize; ndims];
    let mut rem = size;
    // Repeatedly strip the smallest prime factor and assign it to the
    // currently-smallest dimension.
    let mut factors = Vec::new();
    let mut f = 2;
    while f * f <= rem {
        while rem.is_multiple_of(f) {
            factors.push(f);
            rem /= f;
        }
        f += 1;
    }
    if rem > 1 {
        factors.push(rem);
    }
    // Largest factors first, into the smallest dim.
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let i = (0..ndims).min_by_key(|&i| dims[i]).unwrap();
        dims[i] *= f;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

impl CartComm {
    /// Create a topology with explicit dims. `dims` must multiply to `size`.
    pub fn new(size: usize, dims: Vec<usize>, periodic: Vec<bool>) -> Self {
        assert_eq!(
            dims.iter().product::<usize>(),
            size,
            "dims {:?} != size {}",
            dims,
            size
        );
        assert_eq!(dims.len(), periodic.len());
        CartComm {
            dims,
            periodic,
            size,
        }
    }

    /// Create with a balanced `dims_create` factorization, non-periodic.
    pub fn balanced(size: usize, ndims: usize) -> Self {
        let dims = dims_create(size, ndims);
        let periodic = vec![false; ndims];
        CartComm {
            dims,
            periodic,
            size,
        }
    }

    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    pub fn size(&self) -> usize {
        self.size
    }

    /// Row-major coordinates of `rank`.
    pub fn coords_of(&self, rank: usize) -> Vec<usize> {
        assert!(rank < self.size);
        let mut c = vec![0usize; self.ndims()];
        let mut r = rank;
        for d in (0..self.ndims()).rev() {
            c[d] = r % self.dims[d];
            r /= self.dims[d];
        }
        c
    }

    /// Rank at the given coordinates.
    pub fn rank_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.ndims());
        let mut r = 0usize;
        for (&c, &dim) in coords.iter().zip(&self.dims) {
            assert!(c < dim);
            r = r * dim + c;
        }
        r
    }

    /// Neighbour of `rank` displaced by `disp` (±1 typically) along `dim`.
    /// Returns `None` at a non-periodic boundary.
    pub fn shift(&self, rank: usize, dim: usize, disp: isize) -> Option<usize> {
        let mut coords = self.coords_of(rank);
        let extent = self.dims[dim] as isize;
        let pos = coords[dim] as isize + disp;
        let new = if self.periodic[dim] {
            pos.rem_euclid(extent)
        } else if (0..extent).contains(&pos) {
            pos
        } else {
            return None;
        };
        coords[dim] = new as usize;
        Some(self.rank_of(&coords))
    }

    /// All face-neighbours (dim, direction, rank) of `rank`.
    pub fn neighbors(&self, rank: usize) -> Vec<(usize, isize, usize)> {
        let mut out = Vec::new();
        for d in 0..self.ndims() {
            for disp in [-1isize, 1] {
                if let Some(n) = self.shift(rank, d, disp) {
                    if n != rank {
                        out.push((d, disp, n));
                    }
                }
            }
        }
        out
    }

    /// Split a global extent `n` along `dim` for `rank`: returns
    /// `(start, len)` with remainder cells distributed to the low ranks.
    pub fn decompose_1d(&self, rank: usize, dim: usize, n: usize) -> (usize, usize) {
        let parts = self.dims[dim];
        let coord = self.coords_of(rank)[dim];
        let base = n / parts;
        let rem = n % parts;
        let len = base + usize::from(coord < rem);
        let start = coord * base + coord.min(rem);
        (start, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_create_balanced() {
        assert_eq!(dims_create(12, 2), vec![4, 3]);
        assert_eq!(dims_create(8, 3), vec![2, 2, 2]);
        assert_eq!(dims_create(7, 2), vec![7, 1]);
        assert_eq!(dims_create(1, 3), vec![1, 1, 1]);
        assert_eq!(dims_create(112, 2), vec![14, 8]);
    }

    #[test]
    fn dims_product_always_equals_size() {
        for size in 1..=64 {
            for nd in 1..=3 {
                let d = dims_create(size, nd);
                assert_eq!(d.iter().product::<usize>(), size, "size={size} nd={nd}");
            }
        }
    }

    #[test]
    fn coords_roundtrip() {
        let c = CartComm::balanced(24, 3);
        for r in 0..24 {
            assert_eq!(c.rank_of(&c.coords_of(r)), r);
        }
    }

    #[test]
    fn shift_non_periodic_boundary_is_none() {
        let c = CartComm::new(4, vec![2, 2], vec![false, false]);
        // rank 0 at (0,0): no -1 neighbours.
        assert_eq!(c.shift(0, 0, -1), None);
        assert_eq!(c.shift(0, 1, -1), None);
        assert!(c.shift(0, 0, 1).is_some());
    }

    #[test]
    fn shift_periodic_wraps() {
        let c = CartComm::new(4, vec![4], vec![true]);
        assert_eq!(c.shift(0, 0, -1), Some(3));
        assert_eq!(c.shift(3, 0, 1), Some(0));
    }

    #[test]
    fn neighbors_interior_rank_has_2d_times_dims() {
        let c = CartComm::new(27, vec![3, 3, 3], vec![false; 3]);
        let center = c.rank_of(&[1, 1, 1]);
        assert_eq!(c.neighbors(center).len(), 6);
        let corner = c.rank_of(&[0, 0, 0]);
        assert_eq!(c.neighbors(corner).len(), 3);
    }

    #[test]
    fn decompose_1d_covers_exactly() {
        let c = CartComm::new(3, vec![3], vec![false]);
        let n = 10;
        let mut total = 0;
        let mut next = 0;
        for r in 0..3 {
            let (s, l) = c.decompose_1d(r, 0, n);
            assert_eq!(s, next, "partitions must be contiguous");
            next = s + l;
            total += l;
        }
        assert_eq!(total, n);
        // remainder goes to the low ranks: 4,3,3
        assert_eq!(c.decompose_1d(0, 0, n).1, 4);
        assert_eq!(c.decompose_1d(2, 0, n).1, 3);
    }

    #[test]
    fn decompose_balance_within_one() {
        let c = CartComm::balanced(7, 1);
        let lens: Vec<usize> = (0..7).map(|r| c.decompose_1d(r, 0, 100).1).collect();
        let mx = *lens.iter().max().unwrap();
        let mn = *lens.iter().min().unwrap();
        assert!(mx - mn <= 1);
    }

    #[test]
    #[should_panic(expected = "dims")]
    fn mismatched_dims_rejected() {
        CartComm::new(5, vec![2, 2], vec![false, false]);
    }
}
