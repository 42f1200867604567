//! The one seed table for `rtbh-bgp`'s randomized suites.
//!
//! Included via `#[path]` so every seeded stream in the crate is declared
//! in one place; the hygiene check in `properties.rs` asserts no two
//! streams share a base seed. Values preserve the crate's historical
//! per-test streams (the old `0x4247_505f_5052_4f50 ^ test_index` scheme,
//! "BGP_PROP" in ASCII).

rtbh_testkit::seed_table! {
    pub static BGP_SEEDS = {
        PROP_ROUTE_SERVER_PARTITION = 0x4247_505f_5052_4f51,
        PROP_INTERVAL_RECONSTRUCTION = 0x4247_505f_5052_4f52,
        PROP_RIB_SYMMETRY = 0x4247_505f_5052_4f53,
        PROP_WIRE_ANNOUNCE = 0x4247_505f_5052_4f54,
        PROP_WIRE_LOG = 0x4247_505f_5052_4f55,
        PROP_WIRE_GARBAGE = 0x4247_505f_5052_4f56,
        PROP_INTERVAL_PRECONDITION = 0x4247_505f_5052_4f57,
    }
}
