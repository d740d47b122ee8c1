//! Geometry-validation and address-mapping edge cases.
//!
//! The mapping-alignment pitfall this guards against: a backend that
//! silently reconciles a mismatched geometry (or a mapping that drops
//! or aliases bits at field boundaries) produces plausible-looking but
//! wrong bank/row streams, and every downstream statistic inherits the
//! error. Degenerate shapes must be rejected loudly at validation, and
//! encode/decode must round-trip exactly at every field boundary.

use refsim_dram::backend::{build_backend, BackendKind};
use refsim_dram::controller::ControllerConfig;
use refsim_dram::geometry::{BankId, Geometry, Location};
use refsim_dram::mapping::{AddressMapping, MappingScheme};
use refsim_dram::refresh::RefreshPolicyKind;
use refsim_dram::shadow::ShadowConfig;
use refsim_dram::timing::{Density, RefreshTiming, Retention, TimingParams};

const SCHEMES: [MappingScheme; 4] = [
    MappingScheme::RowRankBankColumn,
    MappingScheme::RowBankRankColumn,
    MappingScheme::BankRankRowColumn,
    MappingScheme::PermutedBank,
];

// ---- validation ----------------------------------------------------------

#[test]
fn zero_counts_are_rejected_with_the_field_name() {
    let cases: [(&str, Geometry); 6] = [
        (
            "channels",
            Geometry {
                channels: 0,
                ..Geometry::default()
            },
        ),
        (
            "ranks_per_channel",
            Geometry {
                ranks_per_channel: 0,
                ..Geometry::default()
            },
        ),
        (
            "banks_per_rank",
            Geometry {
                banks_per_rank: 0,
                ..Geometry::default()
            },
        ),
        (
            "rows_per_bank",
            Geometry {
                rows_per_bank: 0,
                ..Geometry::default()
            },
        ),
        (
            "row_bytes",
            Geometry {
                row_bytes: 0,
                ..Geometry::default()
            },
        ),
        (
            "line_bytes",
            Geometry {
                line_bytes: 0,
                ..Geometry::default()
            },
        ),
    ];
    for (field, g) in cases {
        let err = g.validate().expect_err(field);
        assert!(
            err.contains(field) && err.contains("non-zero"),
            "{field}: {err}"
        );
    }
}

#[test]
fn non_pow2_counts_are_rejected_except_rows() {
    for (field, g) in [
        (
            "channels",
            Geometry {
                channels: 3,
                ..Geometry::default()
            },
        ),
        (
            "ranks_per_channel",
            Geometry {
                ranks_per_channel: 6,
                ..Geometry::default()
            },
        ),
        (
            "banks_per_rank",
            Geometry {
                banks_per_rank: 12,
                ..Geometry::default()
            },
        ),
        (
            "row_bytes",
            Geometry {
                row_bytes: 3000,
                ..Geometry::default()
            },
        ),
        (
            "line_bytes",
            Geometry {
                line_bytes: 48,
                ..Geometry::default()
            },
        ),
    ] {
        let err = g.validate().expect_err(field);
        assert!(
            err.contains(field) && err.contains("power of two"),
            "{field}: {err}"
        );
    }
    // Row counts are the deliberate exception: 24 Gb devices have
    // 384 Ki rows and the row field is sized by next_power_of_two.
    let g = Geometry::ddr3_2rank_8bank(384 * 1024);
    assert!(g.validate().is_ok());
    assert_eq!(g.row_bits(), 19);
    // Even a single-row bank validates (degenerate but well-formed).
    let g = Geometry::ddr3_2rank_8bank(1);
    assert!(g.validate().is_ok());
    assert_eq!(g.row_bits(), 0);
}

#[test]
fn line_wider_than_row_is_rejected() {
    let g = Geometry {
        line_bytes: 8192,
        row_bytes: 4096,
        ..Geometry::default()
    };
    assert!(g.validate().unwrap_err().contains("line_bytes"));
}

// ---- mapping round-trips at field boundaries -----------------------------

/// Every boundary location of the geometry: first/last row, first/last
/// column, first/last bank and rank — the spots where a mapping that
/// mis-sizes a field aliases two different locations onto one address.
fn boundary_locations(g: &Geometry) -> Vec<Location> {
    let mut out = Vec::new();
    let mut rows: Vec<u32> = [0, 1, g.rows_per_bank - 1]
        .into_iter()
        .filter(|&r| r < g.rows_per_bank)
        .collect();
    rows.dedup();
    let mut channels = vec![0, g.channels - 1];
    channels.dedup();
    for channel in channels {
        for rank in [0, g.ranks_per_channel - 1] {
            for bank in [0, g.banks_per_rank - 1] {
                for &row in &rows {
                    for col in [0, g.lines_per_row() - 1] {
                        out.push(Location {
                            channel: channel as u8,
                            rank: rank as u8,
                            bank: bank as u8,
                            row,
                            col,
                        });
                    }
                }
            }
        }
    }
    out
}

/// A multi-channel variant of the DDR3 preset for channel-interleaving
/// edge tests.
fn multi_channel(channels: u32, rows_per_bank: u32) -> Geometry {
    Geometry {
        channels,
        ..Geometry::ddr3_2rank_8bank(rows_per_bank)
    }
}

/// Multi-channel geometries must round-trip at every boundary location
/// of every channel — first/last channel × rank × bank × row × column —
/// under every scheme, for both 2- and 4-channel machines (the shapes
/// the multi-channel engine tests run). Includes the non-pow2-rows wrap
/// geometry.
#[test]
fn multi_channel_boundaries_round_trip_and_never_alias() {
    for channels in [2u32, 4] {
        for rows in [384 * 1024, 512 * 1024, 1] {
            let g = multi_channel(channels, rows);
            assert!(
                g.validate().is_ok(),
                "{channels}-channel preset must be valid"
            );
            for scheme in SCHEMES {
                let m = AddressMapping::new(g, scheme);
                let locs = boundary_locations(&g);
                for loc in &locs {
                    let addr = m.encode(*loc);
                    assert_eq!(
                        m.decode(addr),
                        *loc,
                        "{scheme:?} ch={channels} rows={rows} did not round-trip"
                    );
                    assert_eq!(addr % u64::from(g.line_bytes), 0);
                }
                for (i, a) in locs.iter().enumerate() {
                    for b in &locs[i + 1..] {
                        assert_ne!(
                            m.encode(*a),
                            m.encode(*b),
                            "{scheme:?} ch={channels} aliased {a:?} and {b:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn mapping_round_trips_at_boundary_addresses() {
    for rows in [384 * 1024, 512 * 1024, 1] {
        let g = Geometry::ddr3_2rank_8bank(rows);
        for scheme in SCHEMES {
            let m = AddressMapping::new(g, scheme);
            for loc in boundary_locations(&g) {
                let addr = m.encode(loc);
                let back = m.decode(addr);
                assert_eq!(
                    back, loc,
                    "{scheme:?} rows={rows} did not round-trip at {addr:#x}"
                );
                // Line-aligned: the encoded address must sit on a line
                // boundary, or adjacent lines would alias.
                assert_eq!(
                    addr % u64::from(g.line_bytes),
                    0,
                    "{scheme:?} produced an unaligned address"
                );
            }
        }
    }
}

#[test]
fn distinct_boundary_locations_never_alias() {
    let g = Geometry::default();
    for scheme in SCHEMES {
        let m = AddressMapping::new(g, scheme);
        let locs = boundary_locations(&g);
        for (i, a) in locs.iter().enumerate() {
            for b in &locs[i + 1..] {
                assert_ne!(
                    m.encode(*a),
                    m.encode(*b),
                    "{scheme:?} aliased {a:?} and {b:?}"
                );
            }
        }
    }
}

#[test]
fn byte_offsets_within_a_line_decode_identically() {
    let g = Geometry::default();
    let m = AddressMapping::new(g, MappingScheme::RowBankRankColumn);
    let loc = Location {
        channel: 0,
        rank: 1,
        bank: 7,
        row: g.rows_per_bank - 1,
        col: 63,
    };
    let base = m.encode(loc);
    for off in [0u64, 1, 31, 63] {
        assert_eq!(m.decode(base + off), loc, "offset {off} changed the line");
    }
}

#[test]
fn non_pow2_row_counts_wrap_instead_of_overflowing() {
    // 384 Ki rows in a 19-bit (512 Ki) field: the top quarter of the
    // row field is out of range and must wrap modulo rows_per_bank, not
    // panic or leak into neighbouring fields.
    let g = Geometry::ddr3_2rank_8bank(384 * 1024);
    let m = AddressMapping::new(g, MappingScheme::RowBankRankColumn);
    let top = m.encode(Location {
        channel: 0,
        rank: 1,
        bank: 7,
        row: g.rows_per_bank - 1,
        col: 63,
    });
    // One line past the last in-range address of the channel.
    let beyond = top + u64::from(g.line_bytes);
    let loc = m.decode(beyond);
    assert!(loc.row < g.rows_per_bank, "row {} out of range", loc.row);
    assert!(u32::from(loc.bank) < g.banks_per_rank);
    assert!(u32::from(loc.rank) < g.ranks_per_channel);
}

// ---- geometry handshake (the SNIPPETS lesson) ----------------------------

#[test]
fn both_backends_reject_a_mismatched_host_geometry() {
    let g = Geometry::default();
    let timing = TimingParams::ddr3_1600();
    let rt = RefreshTiming::new(Density::Gb32, Retention::Ms64);
    for kind in [BackendKind::Primary, BackendKind::Shadow] {
        let backend = build_backend(
            kind,
            AddressMapping::new(g, MappingScheme::RowBankRankColumn),
            timing,
            rt,
            RefreshPolicyKind::AllBank,
            ControllerConfig::default(),
            ShadowConfig::default(),
        );
        let desc = backend.descriptor();
        assert_eq!(desc.kind, kind);
        assert!(desc.validate_geometry(&g).is_ok());
        let other = Geometry {
            rows_per_bank: g.rows_per_bank / 2,
            ..g
        };
        let err = desc.validate_geometry(&other).expect_err("must mismatch");
        assert!(err.contains("geometry handshake failed"), "{kind:?}: {err}");
    }
}

#[test]
fn flat_bank_ids_round_trip_at_the_edges() {
    let g = Geometry::default();
    for rank in [0, g.ranks_per_channel - 1] {
        for bank in [0, g.banks_per_rank - 1] {
            let id = BankId::new(rank as u8, bank as u8);
            let flat = id.flat(g.banks_per_rank);
            assert_eq!(BankId::from_flat(flat, g.banks_per_rank), id);
            assert!(flat < g.banks_per_channel());
        }
    }
}
