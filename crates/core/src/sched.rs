//! The campaign scheduler: fan the (machine × benchmark-cell) grid of a
//! table over the worker pool.
//!
//! Every cell of a table — one benchmark suite on one machine — derives an
//! independent seed via [`crate::Campaign::seed_for`], so cells have no
//! shared state and can run on any thread in any order. The scheduler
//! exploits that: a table's cells are laid out as a flat descriptor list
//! in canonical machine order, mapped over
//! [`doe_benchlib::parallel_map_indexed`] (which preserves index order
//! exactly), and assembled back into rows. The result is bit-identical to
//! the serial path for every job count, including `--jobs 1`, which *is*
//! the serial path.
//!
//! This is the only place simulated benchmark work runs in parallel. Two
//! levels nest: a batch of cells, and a cell's sub-benchmarks (a row's
//! STREAM and latency runs, the five Comm|Scope tests, a sweep's two
//! pairs; each table's `run_machine` fans them out). A command that owns
//! independent runs outside a table (the CLI sweep's two pairs, the
//! MPI-variant study's variants) fans them out here too. Rep loops inside
//! a suite are plain serial loops. Nested calls degrade to serial on pool
//! workers, and a fan-out of one item runs inline without claiming the
//! pool, so the outermost level with more than one item is the one that
//! runs in parallel: the cells of a batch, or a lone cell's
//! sub-benchmarks. The thread count never multiplies.

use doe_benchlib::parallel_map_indexed;

/// Run one closure per cell descriptor across the worker pool, returning
/// results in descriptor order.
///
/// This is the table-level entry point: build the cell list in canonical
/// machine order, call `run_cells`, and zip the results back.
pub fn run_cells<D: Sync, T: Send>(cells: &[D], f: impl Fn(&D) -> T + Sync) -> Vec<T> {
    parallel_map_indexed(cells.len(), |i| f(&cells[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_follow_descriptor_order() {
        let cells: Vec<u32> = (0..97).rev().collect();
        let out = run_cells(&cells, |&c| c * 2);
        let expect: Vec<u32> = cells.iter().map(|&c| c * 2).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn empty_grid_is_fine() {
        let out = run_cells::<u8, u8>(&[], |&c| c);
        assert!(out.is_empty());
    }
}
