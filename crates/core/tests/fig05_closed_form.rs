//! Figure 5's closed form against the allocator it summarizes.
//!
//! [`pages_on_one_bank`] claims that Algorithm 2's bank-0-first walk —
//! one `alloc_page(BankVector::single(0), ..)` per footprint page on a
//! fresh bank-aware allocator — puts `min(pages, pages_per_bank)` pages
//! on bank 0 and falls back for every page after that. These tests run
//! that walk through the real [`BankAwareAllocator`] and compare.

use proptest::prelude::*;
use refsim_core::experiment::pages_on_one_bank;
use refsim_dram::geometry::Geometry;
use refsim_dram::mapping::{AddressMapping, MappingScheme};
use refsim_dram::timing::Density;
use refsim_os::bank_alloc::{BankAwareAllocator, BankVector, PAGE_BYTES};
use refsim_workloads::profiles::Benchmark;

/// Allocates `pages` pages bank-0-first on a fresh allocator over
/// `geometry`; returns how many landed on bank 0 and the allocator.
fn bank0_first_walk(geometry: Geometry, pages: u64) -> (u64, BankAwareAllocator) {
    let mapping = AddressMapping::new(geometry, MappingScheme::RowRankBankColumn);
    let mut alloc = BankAwareAllocator::new(mapping);
    let mut last = alloc.total_banks() - 1;
    let mut on_bank0 = 0u64;
    for _ in 0..pages {
        let p = alloc
            .alloc_page(BankVector::single(0), &mut last)
            .expect("footprint fits in the machine");
        if p.bank == 0 {
            on_bank0 += 1;
        }
    }
    (on_bank0, alloc)
}

/// The walk agrees with the closed form, and every page that missed
/// bank 0 is a counted fallback.
fn check(geometry: Geometry, pages: u64) {
    let pages_per_bank = geometry.bank_bytes() / PAGE_BYTES;
    let expected = pages.min(pages_per_bank);
    let (on_bank0, alloc) = bank0_first_walk(geometry, pages);
    let what = format!("{pages} pages, {pages_per_bank} pages per bank");
    assert_eq!(on_bank0, expected, "allocator walk, {what}");
    assert_eq!(
        pages_on_one_bank(&geometry, pages),
        expected,
        "closed form, {what}"
    );
    assert_eq!(
        alloc.stats().fallbacks,
        pages - on_bank0,
        "fallbacks, {what}"
    );
}

proptest! {
    /// Scaled-down paper geometries, powers of two or not, with
    /// footprints below, at, just above and well above one bank.
    #[test]
    fn closed_form_matches_allocator_walk(rows in 1u32..300, kind in 0u64..4, frac in 0u64..1000) {
        let geometry = Geometry::ddr3_2rank_8bank(rows);
        let ppb = u64::from(rows);
        let pages = match kind {
            0 => 1 + frac * (ppb - 1) / 1000,
            1 => ppb,
            2 => ppb + 1,
            _ => ppb + 1 + frac * 2 * ppb / 1000,
        };
        check(geometry, pages);
    }
}

/// Figure 5's full-size 8 Gb column, where every over-capacity
/// benchmark falls back.
#[test]
fn closed_form_matches_allocator_walk_at_8gb() {
    let geometry = Geometry::ddr3_2rank_8bank(Density::Gb8.rows_per_bank());
    let mut over_capacity = 0;
    for bench in Benchmark::FIGURE5 {
        let pages = bench.profile().footprint / PAGE_BYTES;
        if pages > geometry.bank_bytes() / PAGE_BYTES {
            over_capacity += 1;
        }
        check(geometry, pages);
    }
    assert_eq!(over_capacity, 4, "mcf, GemsFDTD, bwaves and stream");
}
