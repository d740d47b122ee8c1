//! Bank-aware physical page allocation — the paper's Algorithm 2.
//!
//! The OS is exposed to the hardware address mapping (which DRAM bank a
//! physical page lands on) and maintains *per-bank free lists* as a cache
//! in front of the buddy allocator. Each task carries a
//! `possible_banks_vector` restricting which banks may hold its pages;
//! consecutive allocations round-robin over the permitted banks to
//! preserve bank-level parallelism (§5.2.1).

use serde::{Deserialize, Serialize};

use refsim_dram::geometry::BankId;
use refsim_dram::mapping::AddressMapping;

use crate::buddy::{BuddyAllocator, Frame, OutOfMemory, SavedBuddy};

/// Page size: 4 KiB (the paper excludes large pages, footnote 9).
pub const PAGE_BYTES: u64 = 4096;

/// A set of *global* banks (all channels), as a bitmask. Global bank
/// index = `channel × banks_per_channel + rank × banks_per_rank + bank`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BankVector(u64);

impl BankVector {
    /// The empty set.
    pub const EMPTY: BankVector = BankVector(0);

    /// All of the first `n` banks.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn all(n: u32) -> Self {
        assert!(n <= 64, "at most 64 global banks supported");
        if n == 64 {
            BankVector(u64::MAX)
        } else {
            BankVector((1u64 << n) - 1)
        }
    }

    /// A single-bank set.
    pub fn single(bank: u32) -> Self {
        BankVector(1u64 << bank)
    }

    /// Inserts `bank`.
    pub fn insert(&mut self, bank: u32) {
        self.0 |= 1u64 << bank;
    }

    /// Removes `bank`.
    pub fn remove(&mut self, bank: u32) {
        self.0 &= !(1u64 << bank);
    }

    /// Whether `bank` is in the set.
    pub fn contains(&self, bank: u32) -> bool {
        self.0 & (1u64 << bank) != 0
    }

    /// Number of banks in the set.
    pub fn count(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterates over member banks, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            let bank = (bits != 0).then(|| bits.trailing_zeros());
            bits &= bits.wrapping_sub(1);
            bank
        })
    }

    /// The next member bank strictly after `bank`, wrapping within
    /// `total` banks (so `bank` itself comes last); `None` if no member
    /// is below `total`. Members `>= total` are ignored.
    pub fn next_after(&self, bank: u32, total: u32) -> Option<u32> {
        let members = self.0 & BankVector::all(total).0;
        if members == 0 {
            return None;
        }
        // `total > 0` here, since `all(0)` is empty.
        let after = members & !BankVector::all(bank % total + 1).0;
        let next = if after != 0 { after } else { members };
        Some(next.trailing_zeros())
    }

    /// The raw bitmask.
    pub fn bits(&self) -> u64 {
        self.0
    }

    /// Rebuilds a set from a bitmask captured with
    /// [`BankVector::bits`].
    pub fn from_bits(bits: u64) -> Self {
        BankVector(bits)
    }
}

impl FromIterator<u32> for BankVector {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut v = BankVector::EMPTY;
        for b in iter {
            v.insert(b);
        }
        v
    }
}

/// Outcome of a page allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageAlloc {
    /// The allocated frame.
    pub frame: Frame,
    /// Global bank the frame lives on.
    pub bank: u32,
    /// The allocation fell outside the requested `possible_banks`
    /// (capacity fallback, §5.4.1).
    pub fell_back: bool,
}

/// Allocator counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankAllocStats {
    /// Successful allocations.
    pub allocations: u64,
    /// Allocations served from a per-bank free list without touching the
    /// buddy allocator.
    pub cache_hits: u64,
    /// Pages pulled from the buddy allocator while hunting for a bank.
    pub pulls: u64,
    /// Allocations that fell back outside the requested banks.
    pub fallbacks: u64,
}

/// The bank-aware allocator: a buddy allocator plus per-bank free-list
/// caches and the address-mapping knowledge to steer pages (Algorithm 2).
///
/// # Examples
///
/// ```
/// use refsim_dram::geometry::Geometry;
/// use refsim_dram::mapping::{AddressMapping, MappingScheme};
/// use refsim_os::bank_alloc::{BankAwareAllocator, BankVector};
///
/// let mapping = AddressMapping::new(Geometry::default(), MappingScheme::RowRankBankColumn);
/// let mut alloc = BankAwareAllocator::new(mapping);
/// let only_bank3 = BankVector::single(3);
/// let mut last = 0;
/// let page = alloc.alloc_page(only_bank3, &mut last).unwrap();
/// assert_eq!(page.bank, 3);
/// assert!(!page.fell_back);
/// ```
#[derive(Debug, Clone)]
pub struct BankAwareAllocator {
    buddy: BuddyAllocator,
    mapping: AddressMapping,
    total_banks: u32,
    banks_per_channel: u32,
    /// Per-global-bank cached free pages (Algorithm 2's
    /// `free_list_per_bank`).
    per_bank_free: Vec<Vec<Frame>>,
    stats: BankAllocStats,
}

impl BankAwareAllocator {
    /// Creates an allocator over the full capacity of `mapping`'s
    /// geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 64 banks system-wide.
    pub fn new(mapping: AddressMapping) -> Self {
        let g = mapping.geometry();
        let total_banks = g.total_banks();
        assert!(total_banks <= 64, "BankVector supports at most 64 banks");
        let frames = g.total_bytes() / PAGE_BYTES;
        BankAwareAllocator {
            buddy: BuddyAllocator::new(frames),
            mapping,
            total_banks,
            banks_per_channel: g.banks_per_channel(),
            per_bank_free: (0..total_banks).map(|_| Vec::new()).collect(),
            stats: BankAllocStats::default(),
        }
    }

    /// Number of global banks.
    pub fn total_banks(&self) -> u32 {
        self.total_banks
    }

    /// The global bank a frame belongs to.
    pub fn bank_of(&self, frame: Frame) -> u32 {
        let (channel, bank_id) = self.mapping.page_bank(frame * PAGE_BYTES);
        u32::from(channel) * self.banks_per_channel
            + bank_id.flat(self.mapping.geometry().banks_per_rank)
    }

    /// Splits a global bank index back into `(channel, BankId)`.
    pub fn bank_parts(&self, bank: u32) -> (u8, BankId) {
        let channel = (bank / self.banks_per_channel) as u8;
        let id = BankId::from_flat(
            bank % self.banks_per_channel,
            self.mapping.geometry().banks_per_rank,
        );
        (channel, id)
    }

    /// Frames currently free (buddy + per-bank caches).
    pub fn free_frames(&self) -> u64 {
        self.buddy.free_frames()
            + self
                .per_bank_free
                .iter()
                .map(|v| v.len() as u64)
                .sum::<u64>()
    }

    /// Counters.
    pub fn stats(&self) -> &BankAllocStats {
        &self.stats
    }

    /// Allocates one page for a task whose permitted banks are
    /// `possible` (Algorithm 2). `last_alloced` is the task's
    /// `lastAllocedBank`, updated on success so consecutive allocations
    /// round-robin across the permitted banks.
    ///
    /// Falls back to *any* bank when the permitted banks are exhausted
    /// (§5.4.1's capacity fallback) — the result's `fell_back` reports
    /// this.
    ///
    /// # Errors
    ///
    /// [`OutOfMemory`] only when the whole machine is out of pages.
    pub fn alloc_page(
        &mut self,
        possible: BankVector,
        last_alloced: &mut u32,
    ) -> Result<PageAlloc, OutOfMemory> {
        let target = possible.next_after(*last_alloced, self.total_banks);
        if let Some(target) = target {
            // Per-bank free-list hit (Algorithm 2 line 13-17).
            if let Some(frame) = self.per_bank_free[target as usize].pop() {
                *last_alloced = target;
                self.stats.allocations += 1;
                self.stats.cache_hits += 1;
                return Ok(PageAlloc {
                    frame,
                    bank: target,
                    fell_back: false,
                });
            }
            // Pull pages from the buddy free list hunting for the target,
            // stashing mismatches into their banks' lists (lines 19-34).
            // One sweep of `total_banks` pulls is guaranteed to hit the
            // target under the page-interleaved mappings unless the
            // target bank is exhausted.
            for _ in 0..self.total_banks {
                let Ok(frame) = self.buddy.alloc(0) else {
                    break;
                };
                self.stats.pulls += 1;
                let bank = self.bank_of(frame);
                if bank == target {
                    *last_alloced = target;
                    self.stats.allocations += 1;
                    return Ok(PageAlloc {
                        frame,
                        bank,
                        fell_back: false,
                    });
                }
                self.per_bank_free[bank as usize].push(frame);
            }
            // Target starved; try any other permitted bank's cache.
            for bank in possible.iter() {
                if let Some(frame) = self.per_bank_free[bank as usize].pop() {
                    *last_alloced = bank;
                    self.stats.allocations += 1;
                    self.stats.cache_hits += 1;
                    return Ok(PageAlloc {
                        frame,
                        bank,
                        fell_back: false,
                    });
                }
            }
        }
        // Fallback: any page anywhere (§5.4.1). Prefer the fullest stash.
        let richest = (0..self.total_banks as usize)
            .max_by_key(|&b| self.per_bank_free[b].len())
            .filter(|&b| !self.per_bank_free[b].is_empty());
        let stash_hit = richest.and_then(|b| self.per_bank_free[b].pop().map(|f| (f, b as u32)));
        let (frame, bank) = match stash_hit {
            Some(hit) => hit,
            None => {
                let frame = self.buddy.alloc(0)?;
                self.stats.pulls += 1;
                (frame, self.bank_of(frame))
            }
        };
        self.stats.allocations += 1;
        self.stats.fallbacks += 1;
        *last_alloced = bank;
        Ok(PageAlloc {
            frame,
            bank,
            fell_back: !possible.contains(bank),
        })
    }

    /// Returns a page to the allocator (to its bank cache, keeping it
    /// warm for re-allocation).
    pub fn free_page(&mut self, frame: Frame) {
        let bank = self.bank_of(frame);
        self.per_bank_free[bank as usize].push(frame);
    }

    /// Capacity of one bank in pages.
    pub fn pages_per_bank(&self) -> u64 {
        self.mapping.geometry().bank_bytes() / PAGE_BYTES
    }

    /// Structural self-audit: delegates to [`BuddyAllocator::audit`] and
    /// then verifies every cached frame sits in the list of the bank it
    /// actually maps to, with no frame cached twice. Returns the first
    /// inconsistency, or `None` when sound.
    pub fn audit(&self) -> Option<String> {
        if let Some(problem) = self.buddy.audit() {
            return Some(problem);
        }
        let mut seen = std::collections::HashSet::new();
        for (bank, list) in self.per_bank_free.iter().enumerate() {
            for &frame in list {
                let actual = self.bank_of(frame);
                if actual != bank as u32 {
                    return Some(format!(
                        "frame {frame:#x} cached under bank {bank} but maps to bank {actual}"
                    ));
                }
                if !seen.insert(frame) {
                    return Some(format!(
                        "frame {frame:#x} cached twice in the per-bank lists — double free?"
                    ));
                }
            }
        }
        None
    }

    /// Captures the buddy allocator, per-bank caches, and counters for
    /// checkpointing. The mapping is configuration.
    pub fn save_state(&self) -> SavedBankAlloc {
        SavedBankAlloc {
            buddy: self.buddy.save_state(),
            per_bank_free: self.per_bank_free.clone(),
            stats: self.stats,
        }
    }

    /// Reinstates state captured by [`BankAwareAllocator::save_state`]
    /// into an allocator built over the same mapping.
    pub fn restore_state(&mut self, saved: &SavedBankAlloc) -> Result<(), String> {
        if saved.per_bank_free.len() != self.per_bank_free.len() {
            return Err(format!(
                "per-bank free-list count mismatch: saved {}, expected {}",
                saved.per_bank_free.len(),
                self.per_bank_free.len()
            ));
        }
        self.buddy.restore_state(&saved.buddy)?;
        self.per_bank_free.clone_from(&saved.per_bank_free);
        self.stats = saved.stats;
        Ok(())
    }
}

/// Dynamic state of a [`BankAwareAllocator`], captured for
/// checkpointing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SavedBankAlloc {
    /// Underlying buddy allocator state.
    pub buddy: SavedBuddy,
    /// Per-global-bank cached free frames (stack order preserved —
    /// allocation pops from the back).
    pub per_bank_free: Vec<Vec<Frame>>,
    /// Allocator counters.
    pub stats: BankAllocStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use refsim_dram::geometry::Geometry;
    use refsim_dram::mapping::MappingScheme;

    fn alloc_for(rows_per_bank: u32) -> BankAwareAllocator {
        let g = Geometry::ddr3_2rank_8bank(rows_per_bank);
        BankAwareAllocator::new(AddressMapping::new(g, MappingScheme::RowRankBankColumn))
    }

    #[test]
    fn bank_vector_basics() {
        let mut v = BankVector::all(16);
        assert_eq!(v.count(), 16);
        v.remove(3);
        assert!(!v.contains(3));
        assert_eq!(v.count(), 15);
        v.insert(3);
        assert!(v.contains(3));
        let s: BankVector = [1u32, 5, 9].into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
        assert_eq!(s.next_after(5, 16), Some(9));
        assert_eq!(s.next_after(9, 16), Some(1));
        assert_eq!(BankVector::EMPTY.next_after(0, 16), None);
    }

    /// The scan `next_after` and `iter` replaced, kept as their spec.
    fn naive_next_after(v: BankVector, bank: u32, total: u32) -> Option<u32> {
        if v.is_empty() {
            return None;
        }
        (1..=total)
            .map(|d| (bank + d) % total)
            .find(|&b| v.contains(b))
    }

    fn naive_iter(v: BankVector) -> Vec<u32> {
        (0..64).filter(|&b| v.contains(b)).collect()
    }

    #[test]
    fn bit_tricks_match_the_naive_scans() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xBA4C);
        for case in 0..4000u32 {
            // Dense, sparse, single-bit and empty sets.
            let bits: u64 = match case % 4 {
                0 => rng.gen(),
                1 => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
                2 => 1u64 << rng.gen_range(0u32..64),
                _ => 0,
            };
            let v = BankVector::from_bits(bits);
            assert_eq!(v.iter().collect::<Vec<_>>(), naive_iter(v), "{bits:#x}");
            for total in 1..=64u32 {
                for bank in [0, total - 1, rng.gen_range(0..total), rng.gen_range(0..64)] {
                    assert_eq!(
                        v.next_after(bank, total),
                        naive_next_after(v, bank, total),
                        "bits {bits:#x}, bank {bank}, total {total}"
                    );
                }
            }
        }
        // The only member is `bank` itself: it comes back after a full lap.
        for total in 1..=64u32 {
            for bank in 0..total {
                assert_eq!(BankVector::single(bank).next_after(bank, total), Some(bank));
            }
        }
    }

    #[test]
    fn round_robins_over_permitted_banks() {
        let mut a = alloc_for(1024);
        let possible: BankVector = [2u32, 5, 11].into_iter().collect();
        let mut last = 0;
        let banks: Vec<u32> = (0..6)
            .map(|_| a.alloc_page(possible, &mut last).unwrap().bank)
            .collect();
        assert_eq!(banks, vec![2, 5, 11, 2, 5, 11]);
        assert_eq!(a.stats().fallbacks, 0);
    }

    #[test]
    fn stash_serves_subsequent_allocations() {
        let mut a = alloc_for(1024);
        let mut last = 0;
        // First allocation to bank 11 pulls ~12 pages, stashing banks
        // 1..11's pages; a following allocation to bank 5 is a cache hit.
        let p = a.alloc_page(BankVector::single(11), &mut last).unwrap();
        assert_eq!(p.bank, 11);
        let pulls_before = a.stats().pulls;
        let q = a.alloc_page(BankVector::single(5), &mut last).unwrap();
        assert_eq!(q.bank, 5);
        assert_eq!(a.stats().pulls, pulls_before, "served from stash");
        assert_eq!(a.stats().cache_hits, 1);
    }

    #[test]
    fn single_bank_confinement_fills_then_falls_back() {
        // Tiny geometry: 16 rows/bank → 16 pages per bank.
        let mut a = alloc_for(16);
        let pages_per_bank = a.pages_per_bank();
        assert_eq!(pages_per_bank, 16);
        let mut last = 0;
        let only0 = BankVector::single(0);
        let mut on_bank0 = 0u64;
        let mut fallbacks = 0u64;
        // Allocate twice a bank's capacity.
        for _ in 0..2 * pages_per_bank {
            let p = a.alloc_page(only0, &mut last).unwrap();
            if p.bank == 0 {
                on_bank0 += 1;
            }
            if p.fell_back {
                fallbacks += 1;
            }
        }
        assert_eq!(on_bank0, pages_per_bank, "bank 0 filled exactly");
        assert_eq!(fallbacks, pages_per_bank, "the rest fell back");
    }

    #[test]
    fn oom_only_when_machine_full() {
        let mut a = alloc_for(16); // 16 banks × 16 pages = 256 pages
        let mut last = 0;
        let v = BankVector::all(16);
        for _ in 0..256 {
            a.alloc_page(v, &mut last).unwrap();
        }
        assert!(a.alloc_page(v, &mut last).is_err());
        assert_eq!(a.free_frames(), 0);
    }

    #[test]
    fn free_page_recycles_via_bank_cache() {
        let mut a = alloc_for(64);
        let mut last = 0;
        let p = a.alloc_page(BankVector::single(7), &mut last).unwrap();
        a.free_page(p.frame);
        let q = a.alloc_page(BankVector::single(7), &mut last).unwrap();
        assert_eq!(q.frame, p.frame);
    }

    #[test]
    fn bank_of_matches_mapping_page_bank() {
        let a = alloc_for(1024);
        for frame in 0..64u64 {
            let bank = a.bank_of(frame);
            let (ch, id) = a.bank_parts(bank);
            assert_eq!(ch, 0);
            assert_eq!(id.flat(8), bank % 16, "roundtrip through bank_parts");
        }
        // Page-interleaved mapping: consecutive pages walk banks.
        assert_ne!(a.bank_of(0), a.bank_of(1));
    }

    #[test]
    fn soft_partition_two_groups_share_banks() {
        // Tasks in group A get banks 0-11, group B banks 4-15: the
        // overlap (4-11) is shared, per Figure 8b's soft partitioning.
        let mut a = alloc_for(1024);
        let group_a: BankVector = (0u32..12).collect();
        let group_b: BankVector = (4u32..16).collect();
        let mut last_a = 0;
        let mut last_b = 0;
        for _ in 0..24 {
            let pa = a.alloc_page(group_a, &mut last_a).unwrap();
            assert!(group_a.contains(pa.bank));
            let pb = a.alloc_page(group_b, &mut last_b).unwrap();
            assert!(group_b.contains(pb.bank));
        }
    }
}
