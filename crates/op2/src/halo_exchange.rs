//! Executable halo exchange for partitioned unstructured meshes.
//!
//! [`crate::partition::HaloPlan`] counts what ranks *would* exchange; this
//! module builds the concrete import/export lists for one rank and moves
//! dataset values through a [`bwb_shmpi::Comm`] — the owner-compute
//! execution scheme of OP2 over MPI (paper §4): each rank owns a subset of
//! the target set, computes over its own source elements, and refreshes
//! ghost copies of off-rank targets before each indirect loop.
//!
//! The layout convention: datasets remain *globally indexed* (each rank
//! holds the full-size array but only its owned entries plus refreshed
//! ghosts are meaningful). This mirrors OP2's debug/sequential layout and
//! keeps the kernels identical between serial and distributed runs, at the
//! cost of memory scalability — acceptable for the in-process rank counts
//! this suite runs.

use crate::set::{DatU, Map};
use bwb_shmpi::Comm;

/// Tag space for unstructured halo traffic (public for commcheck and
/// tag-discipline tests). Forward (gather) exchanges use `UHALO_TAG`;
/// reverse (scatter-add) exchanges use `UHALO_TAG + 1` so a gather and a
/// scatter between the same rank pair can never cross-match.
pub const UHALO_TAG: u32 = 0x5000_0000;

/// Tag for reverse-flow contribution traffic ([`RankHalo::scatter_add`]).
pub const UHALO_SCATTER_TAG: u32 = UHALO_TAG + 1;

/// One rank's exchange lists for a (map, partition) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankHalo {
    pub rank: usize,
    pub nparts: usize,
    /// `imports[p]` = target elements this rank needs from rank `p`
    /// (sorted; empty for p == rank).
    pub imports: Vec<Vec<u32>>,
    /// `exports[p]` = owned target elements rank `p` needs from us.
    pub exports: Vec<Vec<u32>>,
}

impl RankHalo {
    /// Build the lists for `rank`: a target element is imported when one of
    /// the rank's source elements references it through `map` and it is
    /// owned elsewhere. Exports are derived symmetrically, so that
    /// `RankHalo::build` called on every rank yields matching pairs.
    pub fn build(
        map: &Map,
        src_part: &[u32],
        tgt_part: &[u32],
        nparts: usize,
        rank: usize,
    ) -> Self {
        assert_eq!(src_part.len(), map.from_size);
        assert_eq!(tgt_part.len(), map.to_size);
        assert!(rank < nparts);

        // All (owner_of_source, target) needs, deduplicated.
        let mut need: Vec<std::collections::BTreeSet<u32>> =
            vec![std::collections::BTreeSet::new(); nparts];
        for (e, &sp) in src_part.iter().enumerate() {
            let owner = sp as usize;
            for &t in map.targets(e) {
                if tgt_part[t as usize] as usize != owner {
                    need[owner].insert(t);
                }
            }
        }

        let imports: Vec<Vec<u32>> = (0..nparts)
            .map(|p| {
                if p == rank {
                    return Vec::new();
                }
                need[rank]
                    .iter()
                    .copied()
                    .filter(|&t| tgt_part[t as usize] as usize == p)
                    .collect()
            })
            .collect();
        let exports: Vec<Vec<u32>> = (0..nparts)
            .map(|p| {
                if p == rank {
                    return Vec::new();
                }
                need[p]
                    .iter()
                    .copied()
                    .filter(|&t| tgt_part[t as usize] as usize == rank)
                    .collect()
            })
            .collect();
        RankHalo {
            rank,
            nparts,
            imports,
            exports,
        }
    }

    pub fn total_imports(&self) -> usize {
        self.imports.iter().map(|v| v.len()).sum()
    }

    pub fn total_exports(&self) -> usize {
        self.exports.iter().map(|v| v.len()).sum()
    }

    /// Refresh the ghost entries of `dat`: send owned exported elements,
    /// receive imports into their global slots. Non-neighbours exchange
    /// nothing. Export buffers are drawn from the rank-local
    /// [`bwb_shmpi::bufpool`] and received buffers are returned to it, so a
    /// steady sequence of exchanges recycles the same allocations.
    pub fn exchange<T: Copy + Send + 'static>(&self, comm: &mut Comm, dat: &mut DatU<T>) {
        assert_eq!(comm.rank(), self.rank, "halo built for a different rank");
        assert_eq!(comm.size(), self.nparts);
        comm.set_comm_ctx(&dat.name);
        let dim = dat.dim;
        // Post all sends first (eager), then receive.
        for p in 0..self.nparts {
            if self.exports[p].is_empty() {
                continue;
            }
            let mut buf: Vec<T> = bwb_shmpi::bufpool::take();
            buf.reserve(self.exports[p].len() * dim);
            for &t in &self.exports[p] {
                buf.extend_from_slice(dat.elem(t as usize));
            }
            comm.send(p, UHALO_TAG, buf);
        }
        for p in 0..self.nparts {
            if self.imports[p].is_empty() {
                continue;
            }
            let buf = comm.recv::<T>(p, UHALO_TAG);
            assert_eq!(buf.len(), self.imports[p].len() * dim, "halo payload size");
            for (k, &t) in self.imports[p].iter().enumerate() {
                for c in 0..dim {
                    dat.set(t as usize, c, buf[k * dim + c]);
                }
            }
            bwb_shmpi::bufpool::put(buf);
        }
        comm.clear_comm_ctx();
    }

    /// Reverse-flow exchange: each rank *sends* the contributions it
    /// accumulated into its ghost copies (the `imports` slots) back to the
    /// owners, which *add* them into their owned entries. This is the
    /// communication step of OP2's `OP_INC` indirect loops under
    /// owner-compute: compute over owned source elements, scatter partial
    /// sums to ghost targets, then fold the ghosts back onto the owners.
    pub fn scatter_add<T>(&self, comm: &mut Comm, dat: &mut DatU<T>)
    where
        T: Copy + Send + std::ops::AddAssign + 'static,
    {
        assert_eq!(comm.rank(), self.rank, "halo built for a different rank");
        assert_eq!(comm.size(), self.nparts);
        comm.set_comm_ctx(&dat.name);
        let dim = dat.dim;
        // Send my ghost contributions to each owner (reverse of exchange:
        // imports are outgoing here, exports incoming).
        for p in 0..self.nparts {
            if self.imports[p].is_empty() {
                continue;
            }
            let mut buf: Vec<T> = bwb_shmpi::bufpool::take();
            buf.reserve(self.imports[p].len() * dim);
            for &t in &self.imports[p] {
                buf.extend_from_slice(dat.elem(t as usize));
            }
            comm.send(p, UHALO_SCATTER_TAG, buf);
        }
        for p in 0..self.nparts {
            if self.exports[p].is_empty() {
                continue;
            }
            let buf = comm.recv::<T>(p, UHALO_SCATTER_TAG);
            assert_eq!(
                buf.len(),
                self.exports[p].len() * dim,
                "scatter payload size"
            );
            for (k, &t) in self.exports[p].iter().enumerate() {
                for c in 0..dim {
                    let mut v = dat.get(t as usize, c);
                    v += buf[k * dim + c];
                    dat.set(t as usize, c, v);
                }
            }
            bwb_shmpi::bufpool::put(buf);
        }
        comm.clear_comm_ctx();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::rcb_partition;
    use crate::set::Set;
    use bwb_shmpi::Universe;

    /// Line mesh: edge e → nodes (e, e+1); edges/nodes partitioned in
    /// contiguous blocks.
    fn line(n_edges: usize) -> Map {
        let nodes = Set::new("nodes", n_edges + 1);
        let edges = Set::new("edges", n_edges);
        let idx: Vec<u32> = (0..n_edges)
            .flat_map(|e| [e as u32, e as u32 + 1])
            .collect();
        Map::new("e2n", &edges, &nodes, 2, idx)
    }

    fn block_part(n: usize, nparts: usize) -> Vec<u32> {
        (0..n).map(|i| ((i * nparts) / n) as u32).collect()
    }

    #[test]
    fn imports_and_exports_are_symmetric_across_ranks() {
        let map = line(20);
        let src = block_part(20, 4);
        let tgt = block_part(21, 4);
        let halos: Vec<RankHalo> = (0..4)
            .map(|r| RankHalo::build(&map, &src, &tgt, 4, r))
            .collect();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(
                    halos[a].imports[b], halos[b].exports[a],
                    "rank {a} imports from {b} must equal {b}'s exports to {a}"
                );
            }
        }
    }

    #[test]
    fn line_mesh_boundary_nodes_are_imported() {
        let map = line(10);
        let src = block_part(10, 2);
        let tgt = block_part(11, 2);
        // Rank 1 owns edges 5..10 → needs node 5 (owned by rank 0).
        let h1 = RankHalo::build(&map, &src, &tgt, 2, 1);
        assert_eq!(h1.imports[0], vec![5]);
        assert_eq!(h1.total_imports(), 1);
        let h0 = RankHalo::build(&map, &src, &tgt, 2, 0);
        assert_eq!(h0.exports[1], vec![5]);
        assert_eq!(h0.total_imports(), 0, "rank 0's edges only touch nodes ≤ 5");
    }

    #[test]
    fn exchange_moves_owner_values_into_ghosts() {
        let map = line(12);
        let src = block_part(12, 3);
        let tgt = block_part(13, 3);
        let nodes = Set::new("nodes", 13);
        let out = Universe::run(3, move |c| {
            let halo = RankHalo::build(&map, &src, &tgt, 3, c.rank());
            let mut d = DatU::<f64>::new("v", &nodes, 2);
            // Owners write (owner_rank, global_id); ghosts start poisoned.
            for (t, &owner) in tgt.iter().enumerate() {
                if owner as usize == c.rank() {
                    d.set(t, 0, c.rank() as f64);
                    d.set(t, 1, t as f64);
                } else {
                    d.set(t, 0, -1.0);
                    d.set(t, 1, -1.0);
                }
            }
            halo.exchange(c, &mut d);
            // All imported ghosts now hold the owner's values.
            let mut ok = true;
            for p in 0..3 {
                for &t in &halo.imports[p] {
                    ok &= d.get(t as usize, 0) == tgt[t as usize] as f64;
                    ok &= d.get(t as usize, 1) == t as f64;
                }
            }
            ok
        });
        assert!(out.results.iter().all(|&b| b));
    }

    #[test]
    fn distributed_indirect_sum_matches_serial() {
        // Each rank accumulates over its OWN edges into a global residual
        // (owner-compute with post-exchange of contributions), then we
        // verify the reassembled residual equals the serial one.
        let map = line(16);
        let src = block_part(16, 4);
        let nodes = Set::new("nodes", 17);

        // Serial reference.
        let mut serial = DatU::<f64>::new("r", &nodes, 1);
        for e in 0..16 {
            let (a, b) = (map.get(e, 0), map.get(e, 1));
            serial.set(a, 0, serial.get(a, 0) + (e + 1) as f64);
            serial.set(b, 0, serial.get(b, 0) - 0.5 * (e + 1) as f64);
        }

        let map2 = map.clone();
        let src2 = src.clone();
        let out = Universe::run(4, move |c| {
            let mut local = DatU::<f64>::new("r", &nodes, 1);
            for (e, &owner) in src2.iter().enumerate() {
                if owner as usize != c.rank() {
                    continue;
                }
                let (a, b) = (map2.get(e, 0), map2.get(e, 1));
                local.set(a, 0, local.get(a, 0) + (e + 1) as f64);
                local.set(b, 0, local.get(b, 0) - 0.5 * (e + 1) as f64);
            }
            // Contributions to off-rank targets are summed with an
            // allreduce here (OP2 uses neighbour exchange of the
            // contribution buffers; the result is identical).
            c.allreduce(local.raw(), bwb_shmpi::ReduceOp::Sum)
        });
        for r in &out.results {
            for (t, &rv) in r.iter().enumerate() {
                assert!((rv - serial.get(t, 0)).abs() < 1e-12, "node {t}");
            }
        }
    }

    #[test]
    fn scatter_add_folds_ghost_contributions_onto_owners() {
        // Same residual as distributed_indirect_sum, but communicated the
        // owner-compute way: accumulate locally (owned + ghost slots), then
        // scatter_add the ghost partial sums back to their owners.
        let map = line(16);
        let src = block_part(16, 4);
        let tgt = block_part(17, 4);
        let nodes = Set::new("nodes", 17);

        let mut serial = DatU::<f64>::new("r", &nodes, 1);
        for e in 0..16 {
            let (a, b) = (map.get(e, 0), map.get(e, 1));
            serial.set(a, 0, serial.get(a, 0) + (e + 1) as f64);
            serial.set(b, 0, serial.get(b, 0) - 0.5 * (e + 1) as f64);
        }

        let map2 = map.clone();
        let src2 = src.clone();
        let tgt2 = tgt.clone();
        let out = Universe::run(4, move |c| {
            let halo = RankHalo::build(&map2, &src2, &tgt2, 4, c.rank());
            let mut local = DatU::<f64>::new("r", &nodes, 1);
            for (e, &owner) in src2.iter().enumerate() {
                if owner as usize != c.rank() {
                    continue;
                }
                let (a, b) = (map2.get(e, 0), map2.get(e, 1));
                local.set(a, 0, local.get(a, 0) + (e + 1) as f64);
                local.set(b, 0, local.get(b, 0) - 0.5 * (e + 1) as f64);
            }
            halo.scatter_add(c, &mut local);
            // Owned entries now hold the full sum.
            let mut owned = vec![];
            for (t, &owner) in tgt2.iter().enumerate() {
                if owner as usize == c.rank() {
                    owned.push((t, local.get(t, 0)));
                }
            }
            owned
        });
        for owned in &out.results {
            for &(t, v) in owned {
                assert!((v - serial.get(t, 0)).abs() < 1e-12, "node {t}");
            }
        }
    }

    #[test]
    fn rcb_partition_feeds_rank_halos() {
        // End-to-end: RCB over a quad mesh, halos built per rank, totals
        // agree with the aggregate HaloPlan.
        use crate::partition::HaloPlan;
        let n = 8;
        let nodes = Set::new("nodes", (n + 1) * (n + 1));
        let cells = Set::new("cells", n * n);
        let mut idx = Vec::new();
        let mut coords = Vec::new();
        for cy in 0..n {
            for cx in 0..n {
                let n0 = (cy * (n + 1) + cx) as u32;
                idx.extend([n0, n0 + 1, n0 + n as u32 + 1, n0 + n as u32 + 2]);
                coords.extend([cx as f64, cy as f64]);
            }
        }
        let map = Map::new("c2n", &cells, &nodes, 4, idx);
        let mut node_coords = Vec::new();
        for ny in 0..=n {
            for nx in 0..=n {
                node_coords.extend([nx as f64 - 0.5, ny as f64 - 0.5]);
            }
        }
        let cpart = rcb_partition(&coords, 2, 4);
        let npart = rcb_partition(&node_coords, 2, 4);
        let plan = HaloPlan::build(&map, &cpart, &npart, 4);
        let total: usize = (0..4)
            .map(|r| RankHalo::build(&map, &cpart, &npart, 4, r).total_imports())
            .sum();
        assert_eq!(total, plan.total_imports());
        assert!(total > 0, "a 4-way split of a quad mesh must cut something");
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn exchange_rejects_wrong_rank() {
        // The misused rank panics inside its thread ("halo built for a
        // different rank"); the scope surfaces it at join.
        let map = line(4);
        let src = block_part(4, 2);
        let tgt = block_part(5, 2);
        let nodes = Set::new("nodes", 5);
        Universe::run(2, move |c| {
            if c.rank() == 0 {
                // Built for rank 1, used on rank 0 → panic.
                let halo = RankHalo::build(&map, &src, &tgt, 2, 1);
                let mut d = DatU::<f64>::new("v", &nodes, 1);
                halo.exchange(c, &mut d);
            }
        });
    }
}
