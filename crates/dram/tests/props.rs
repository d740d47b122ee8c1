//! Property-based tests for the DRAM substrate.

use proptest::prelude::*;

use refsim_dram::geometry::{BankId, Geometry, Location};
use refsim_dram::mapping::{AddressMapping, MappingScheme};
use refsim_dram::refresh::{build_policy, QueueSnapshot, RefreshOp, RefreshPolicyKind};
use refsim_dram::time::Ps;
use refsim_dram::timing::{Density, FgrMode, RefreshTiming, Retention};

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    (
        0u32..3,   // channels exponent (1, 2, or 4)
        0u32..2,   // ranks exponent (1 or 2)
        1u32..4,   // banks exponent (2..8)
        10u32..20, // rows exponent
    )
        .prop_map(|(c, r, b, rows)| Geometry {
            channels: 1 << c,
            ranks_per_channel: 1 << r,
            banks_per_rank: 1 << b,
            rows_per_bank: 1 << rows,
            row_bytes: 4096,
            line_bytes: 64,
        })
}

fn arb_scheme() -> impl Strategy<Value = MappingScheme> {
    prop_oneof![
        Just(MappingScheme::RowRankBankColumn),
        Just(MappingScheme::RowBankRankColumn),
        Just(MappingScheme::BankRankRowColumn),
        Just(MappingScheme::PermutedBank),
    ]
}

proptest! {
    /// decode ∘ encode is the identity for every scheme and geometry.
    #[test]
    fn mapping_roundtrip(g in arb_geometry(), s in arb_scheme(), raw in any::<u64>()) {
        let map = AddressMapping::new(g, s);
        let paddr = (raw % g.total_bytes()) & !u64::from(g.line_bytes - 1);
        let loc = map.decode(paddr);
        prop_assert_eq!(map.encode(loc), paddr);
        // Decoded fields are in range.
        prop_assert!(u32::from(loc.channel) < g.channels);
        prop_assert!(u32::from(loc.rank) < g.ranks_per_channel);
        prop_assert!(u32::from(loc.bank) < g.banks_per_rank);
        prop_assert!(loc.row < g.rows_per_bank);
        prop_assert!(loc.col < g.lines_per_row());
    }

    /// encode ∘ decode is the identity over in-range locations.
    #[test]
    fn mapping_roundtrip_reverse(
        g in arb_geometry(),
        s in arb_scheme(),
        ch in any::<u8>(), rk in any::<u8>(), bk in any::<u8>(),
        row in any::<u32>(), col in any::<u32>(),
    ) {
        let map = AddressMapping::new(g, s);
        let loc = Location {
            channel: (u32::from(ch) % g.channels) as u8,
            rank: (u32::from(rk) % g.ranks_per_channel) as u8,
            bank: (u32::from(bk) % g.banks_per_rank) as u8,
            row: row % g.rows_per_bank,
            col: col % g.lines_per_row(),
        };
        let paddr = map.encode(loc);
        prop_assert_eq!(map.decode(paddr), loc);
    }

    /// Decode ignores the byte-within-line offset: any address inside a
    /// line decodes to that line's location, and encode reproduces the
    /// line-aligned base — so the geometry <-> physical-address mapping
    /// is a clean bijection on lines, not bytes.
    #[test]
    fn mapping_line_offset_invariance(
        g in arb_geometry(), s in arb_scheme(), raw in any::<u64>(), off in any::<u64>(),
    ) {
        let map = AddressMapping::new(g, s);
        let base = (raw % g.total_bytes()) & !u64::from(g.line_bytes - 1);
        let inside = base + off % u64::from(g.line_bytes);
        prop_assert_eq!(map.decode(inside), map.decode(base));
        prop_assert_eq!(map.encode(map.decode(inside)), base);
        // Encoded addresses stay inside the mapping's address space.
        prop_assert!(map.encode(map.decode(base)) < (1u64 << map.addr_bits()));
    }

    /// Channel interleaving is a bijection, and every channel is
    /// actually reachable: on a 2- or 4-channel geometry (the shapes
    /// the multi-channel engine tests run), decode ∘ encode round-trips for
    /// locations pinned to each channel in turn, and walking the
    /// physical address space line-by-line touches all channels.
    #[test]
    fn multi_channel_interleave_round_trip(
        c_exp in 1u32..3, // channels ∈ {2, 4}
        s in arb_scheme(),
        rk in any::<u8>(), bk in any::<u8>(),
        row in any::<u32>(), col in any::<u32>(),
    ) {
        let g = Geometry {
            channels: 1 << c_exp,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            rows_per_bank: 1 << 12,
            row_bytes: 4096,
            line_bytes: 64,
        };
        let map = AddressMapping::new(g, s);
        for ch in 0..g.channels {
            let loc = Location {
                channel: ch as u8,
                rank: (u32::from(rk) % g.ranks_per_channel) as u8,
                bank: (u32::from(bk) % g.banks_per_rank) as u8,
                row: row % g.rows_per_bank,
                col: col % g.lines_per_row(),
            };
            let paddr = map.encode(loc);
            prop_assert_eq!(map.decode(paddr), loc);
        }
        // Coverage: some window of consecutive lines must reach every
        // channel — interleaving may happen at any field position, so
        // scan enough lines to cross the widest stride (a full row per
        // channel under row-major schemes).
        let mut seen = vec![false; g.channels as usize];
        let lines = g.total_bytes() / u64::from(g.line_bytes);
        let stride = lines / u64::from(g.channels);
        for i in 0..g.channels as u64 {
            let l = map.decode(i * stride * u64::from(g.line_bytes));
            seen[l.channel as usize] = true;
        }
        for i in 0..64u64 {
            let l = map.decode(i * u64::from(g.line_bytes) * u64::from(g.row_bytes / g.line_bytes));
            seen[l.channel as usize] = true;
        }
        for i in 0..64u64 {
            let l = map.decode(i * u64::from(g.line_bytes));
            seen[l.channel as usize] = true;
        }
        prop_assert!(
            seen.iter().all(|&s| s),
            "some channel unreachable under {:?}: {:?}", s, seen
        );
    }

    /// Every 4 KiB page maps to exactly one bank under every scheme.
    #[test]
    fn pages_are_bank_uniform(g in arb_geometry(), s in arb_scheme(), page in any::<u64>()) {
        let map = AddressMapping::new(g, s);
        let page = page % (g.total_bytes() / 4096);
        let base = page * 4096;
        let first = map.decode(base).bank_id();
        let ch = map.decode(base).channel;
        for off in [64u64, 1024, 2048, 4032] {
            let l = map.decode(base + off);
            prop_assert_eq!(l.bank_id(), first);
            prop_assert_eq!(l.channel, ch);
        }
    }

    /// Ps arithmetic: round_up lands on a boundary at or after the input
    /// and within one period.
    #[test]
    fn ps_round_up_properties(t in 0u64..u64::MAX / 4, p in 1u64..1_000_000) {
        let r = Ps(t).round_up(Ps(p));
        prop_assert!(r >= Ps(t));
        prop_assert_eq!(r.as_ps() % p, 0);
        prop_assert!(r.as_ps() - t < p);
    }

    /// Ps::scale never overflows for realistic timing magnitudes and is
    /// monotone in the numerator.
    #[test]
    fn ps_scale_monotone(t in 0u64..u64::MAX / 2, num in 1u64..1000, den in 1u64..1000) {
        let a = Ps(t).scale(num, den);
        let b = Ps(t).scale(num + 1, den);
        prop_assert!(b >= a);
    }

    /// Every per-bank policy covers every bank's full row count within
    /// one retention window, for every density/retention/scale combo.
    #[test]
    fn per_bank_policies_cover_all_rows(
        density in prop_oneof![
            Just(Density::Gb8), Just(Density::Gb16),
            Just(Density::Gb24), Just(Density::Gb32)
        ],
        retention in prop_oneof![Just(Retention::Ms64), Just(Retention::Ms32)],
        scale_exp in 0u32..8,
        kind in prop_oneof![
            Just(RefreshPolicyKind::PerBankRoundRobin),
            Just(RefreshPolicyKind::PerBankSequential),
            Just(RefreshPolicyKind::OooPerBank),
        ],
    ) {
        let timing = RefreshTiming::scaled(density, retention, 1 << scale_exp);
        let g = Geometry::ddr3_2rank_8bank(density.rows_per_bank());
        let mut policy = build_policy(kind, &timing, &g);
        let snap = QueueSnapshot {
            per_bank_queued: vec![0; 16],
            utilization: 0.0,
        };
        let mut covered = [0u64; 16];
        loop {
            let due = policy.next_due().expect("per-bank policies always refresh");
            if due >= timing.trefw {
                break;
            }
            let op = policy.select(&snap);
            if let RefreshOp::PerBank { bank, rows } = op {
                covered[bank.flat(8) as usize] += u64::from(rows);
            }
            policy.issued(&op, due);
        }
        for (i, &c) in covered.iter().enumerate() {
            prop_assert!(
                c >= u64::from(timing.rows_per_bank),
                "bank {i} covered {c} < {} (kind {kind:?}, scale {})",
                timing.rows_per_bank,
                1u32 << scale_exp
            );
        }
    }

    /// All-bank policies (plain + every FGR mode) cover every rank.
    #[test]
    fn all_bank_policies_cover_all_rows(
        mode in prop_oneof![
            Just(RefreshPolicyKind::AllBank),
            Just(RefreshPolicyKind::Fgr(FgrMode::X2)),
            Just(RefreshPolicyKind::Fgr(FgrMode::X4)),
        ],
        scale_exp in 0u32..6,
    ) {
        let timing = RefreshTiming::scaled(Density::Gb32, Retention::Ms64, 1 << scale_exp);
        let g = Geometry::default();
        let mut policy = build_policy(mode, &timing, &g);
        let snap = QueueSnapshot::default();
        let mut covered = [0u64; 2];
        loop {
            let due = policy.next_due().expect("refreshing policy");
            if due >= timing.trefw {
                break;
            }
            let op = policy.select(&snap);
            if let RefreshOp::AllBank { rank, rows } = op {
                covered[rank as usize] += u64::from(rows);
            }
            policy.issued(&op, due);
        }
        for (r, &c) in covered.iter().enumerate() {
            prop_assert!(
                c >= u64::from(timing.rows_per_bank),
                "rank {r} covered {c} rows"
            );
        }
    }

    /// The sequential schedule's forecast agrees with the issued stream:
    /// a command issued at time t always targets `bank_at(t)`'s slice.
    #[test]
    fn sequential_forecast_consistent(scale_exp in 0u32..8) {
        let timing = RefreshTiming::scaled(Density::Gb32, Retention::Ms64, 1 << scale_exp);
        let g = Geometry::default();
        let mut policy = build_policy(RefreshPolicyKind::PerBankSequential, &timing, &g);
        let snap = QueueSnapshot::default();
        let slice = timing.slice_len(16);
        for _ in 0..2048 {
            let due = policy.next_due().unwrap();
            let op = policy.select(&snap);
            let bank = op.bank().expect("per-bank");
            let slice_idx = (due / slice) % 16;
            prop_assert_eq!(
                bank,
                BankId::from_flat(slice_idx as u32, 8),
                "command at {} in slice {}",
                due,
                slice_idx
            );
            policy.issued(&op, due);
        }
    }

    /// BankId flat/from_flat are inverse for arbitrary rank widths.
    #[test]
    fn bank_id_flat_inverse(rank in 0u8..8, bank in 0u8..8, bexp in 1u32..4) {
        let banks_per_rank = 1u32 << bexp;
        let id = BankId::new(rank % 4, (u32::from(bank) % banks_per_rank) as u8);
        prop_assert_eq!(BankId::from_flat(id.flat(banks_per_rank), banks_per_rank), id);
    }
}
