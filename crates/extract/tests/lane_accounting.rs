//! Accounting of `extract_lane_chunks_total`: the lane primitives are
//! pure, and each kernel entry point adds exactly the lane chunks of the
//! rows and runs it scanned, once per call.
//!
//! This file is its own test binary, so no other test moves the process
//! global counter; the tests below serialise on [`LOCK`] for the same
//! reason.

use std::sync::{Mutex, MutexGuard};

use vira_extract::bricktree::{BrickTree, BRICK};
use vira_extract::iso::{extract_isosurface, extract_isosurface_with_tree};
use vira_grid::block::{BlockDims, CurvilinearBlock};
use vira_grid::field::ScalarField;
use vira_grid::lanes::{self, chunks_for};
use vira_grid::math::Vec3;

static LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn lane_chunks() -> u64 {
    vira_obs::counter("extract_lane_chunks_total").get()
}

/// Counter delta of `f`, with its result.
fn delta<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = lane_chunks();
    let r = f();
    (lane_chunks() - before, r)
}

/// Odd, degenerate and block-sized dims.
const DIMS: [(usize, usize, usize); 5] = [(1, 1, 1), (2, 2, 2), (5, 3, 9), (9, 1, 4), (32, 32, 32)];

/// Distance from an off-centre point, so some bricks straddle the iso
/// levels below and others are skipped whole.
fn field(dims: BlockDims) -> ScalarField {
    ScalarField::from_fn(dims, |i, j, k| {
        Vec3::new(i as f64 - 2.5, j as f64 - 1.5, k as f64 - 3.5).norm()
    })
}

fn lattice(dims: BlockDims) -> CurvilinearBlock {
    CurvilinearBlock::from_fn(0, dims, |i, j, k| Vec3::new(i as f64, j as f64, k as f64))
}

/// Point count of each finest brick along one axis of `n` points: a
/// brick of cells `[c0, c1)` touches points `[c0, c1]`.
fn brick_point_spans(n: usize) -> Vec<usize> {
    let cells = n.saturating_sub(1);
    (0..cells.div_ceil(BRICK).max(1))
        .map(|b| {
            let end = (((b + 1) * BRICK).min(cells) + 1).min(n);
            end - b * BRICK
        })
        .collect()
}

/// `Σ chunks_for(row length)` over every point row of every finest brick.
fn bricktree_chunks(dims: BlockDims) -> u64 {
    let (is, js, ks) = (
        brick_point_spans(dims.ni),
        brick_point_spans(dims.nj),
        brick_point_spans(dims.nk),
    );
    let mut total = 0;
    for &nk in &ks {
        for &nj in &js {
            for &ni in &is {
                total += (nj * nk) as u64 * chunks_for(ni);
            }
        }
    }
    total
}

#[test]
fn lane_primitives_leave_the_counter_alone() {
    let _g = lock();
    let values: Vec<f64> = (0..101).map(|n| (n as f64 * 0.37).sin()).collect();
    let (d, _) = delta(|| lanes::min_max_seeded(f64::INFINITY, f64::NEG_INFINITY, &values));
    assert_eq!(d, 0, "min_max_seeded");
    let (d, _) = delta(|| lanes::min_max(&values));
    assert_eq!(d, 0, "min_max");
    let n = 100;
    let (mut lo, mut hi) = (vec![0.0; n], vec![0.0; n]);
    let rows = [&values[..], &values[..], &values[..], &values[..]];
    let (d, _) = delta(|| lanes::cell_ranges_along_i(rows, n, &mut lo, &mut hi));
    assert_eq!(d, 0, "cell_ranges_along_i");
}

#[test]
fn whole_block_range_adds_its_chunks_once() {
    let _g = lock();
    for (ni, nj, nk) in DIMS {
        let f = field(BlockDims::new(ni, nj, nk));
        let (d, _) = delta(|| f.range());
        assert_eq!(d, chunks_for(f.values.len()), "{ni}x{nj}x{nk}");
    }
}

#[test]
fn bricktree_build_adds_the_chunks_of_every_brick_row() {
    let _g = lock();
    for (ni, nj, nk) in DIMS {
        let dims = BlockDims::new(ni, nj, nk);
        let f = field(dims);
        let (d, _) = delta(|| BrickTree::build(&f));
        assert_eq!(d, bricktree_chunks(dims), "{ni}x{nj}x{nk}");
    }
    // Closed form for a 32³ block: eight bricks along each axis span
    // 5 points (the last one 4), so 8 one-chunk rows along `i` times
    // (7·5 + 4)² `(j, k)` rows.
    assert_eq!(bricktree_chunks(BlockDims::new(32, 32, 32)), 8 * 39 * 39);
}

#[test]
fn extraction_adds_the_chunks_of_its_candidate_runs() {
    let _g = lock();
    for (ni, nj, nk) in DIMS {
        let dims = BlockDims::new(ni, nj, nk);
        let (grid, f) = (lattice(dims), field(dims));
        let tree = BrickTree::build(&f);
        let (ci, cj, ck) = dims.cell_dims();
        for iso in [0.5, 2.0, 6.0] {
            let mut runs = 0;
            tree.scan_candidate_runs(iso, |r, _, _| runs += chunks_for(r.len()));
            let (d, _) = delta(|| extract_isosurface_with_tree(&grid, &f, iso, Some(&tree)));
            assert_eq!(d, runs, "pruned {ni}x{nj}x{nk} at {iso}");
            let (d, _) = delta(|| extract_isosurface(&grid, &f, iso));
            assert_eq!(d, bricktree_chunks(dims) + runs, "{ni}x{nj}x{nk} at {iso}");
            let (d, _) = delta(|| extract_isosurface_with_tree(&grid, &f, iso, None));
            let full = (cj * ck) as u64 * chunks_for(ci);
            assert_eq!(d, full, "unpruned {ni}x{nj}x{nk} at {iso}");
        }
    }
}
