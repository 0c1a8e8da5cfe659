//! Figure 5(f): effect of the LRU extension on the fetch footprint.
//!
//! Monte-Carlo over the real [`ztm_cache::PrivateCache`] mechanism: install
//! n random lines transactionally and record whether a fetch-overflow abort
//! occurred. Without the LRU extension the footprint is bounded by the L1
//! (64 sets × 6 ways); with it, by the L2 (512 sets × 8 ways) — §III.C.

#![forbid(unsafe_code)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ztm_bench::{print_header, print_row, quick, sweep};
use ztm_cache::{AccessClass, CacheGeometry, CohState, FootprintEvent, PrivateCache};
use ztm_mem::LineAddr;

/// One trial: returns whether installing `n` random lines aborted.
fn trial(geom: &CacheGeometry, n: usize, rng: &mut SmallRng) -> bool {
    let mut cache = PrivateCache::new(geom.clone());
    cache.begin_outermost_tx();
    let mut chosen = Vec::with_capacity(n);
    while chosen.len() < n {
        // Random congruence classes: random line addresses over a wide range.
        let line = LineAddr::new(rng.gen_range(0..1_000_000u64));
        if chosen.contains(&line) {
            continue;
        }
        chosen.push(line);
        let out = cache.install(line, CohState::ReadOnly, AccessClass::Fetch, true);
        if out
            .events
            .iter()
            .any(|e| matches!(e, FootprintEvent::FetchOverflow { .. }))
        {
            return true;
        }
    }
    false
}

fn main() {
    println!("Fig 5(f): statistical abort rate vs accessed cache lines");
    println!("(fetch-footprint overflow probability, random congruence classes)");
    println!();
    let trials = if quick() { 60 } else { 300 };
    let no_ext = CacheGeometry {
        lru_extension: false,
        ..CacheGeometry::zec12()
    };
    let with_ext = CacheGeometry::zec12();
    let points: Vec<usize> = vec![50, 100, 150, 200, 250, 300, 350, 400, 500, 600, 700, 800];
    print_header("lines", &["no-ext 64x6 %", "ext 512x8 %"]);
    // Each (lines, geometry) cell seeds its own rng from its coordinates, so
    // the Monte-Carlo estimate is independent of sweep order / thread count.
    let cells: Vec<(usize, bool)> = points
        .iter()
        .flat_map(|&n| [(n, false), (n, true)])
        .collect();
    let results = sweep(cells, |&(n, ext)| {
        let geom = if ext { &with_ext } else { &no_ext };
        let mut rng = SmallRng::seed_from_u64(5 ^ ((n as u64) << 1 | ext as u64));
        let aborts = (0..trials).filter(|_| trial(geom, n, &mut rng)).count();
        100.0 * aborts as f64 / trials as f64
    });
    for (i, &n) in points.iter().enumerate() {
        print_row(n, &results[2 * i..2 * i + 2]);
    }
    println!();
    println!("Paper shape: the 64x6 curve rises toward 100% within a few hundred");
    println!("lines; the 512x8 curve stays near zero across the whole range.");
}
