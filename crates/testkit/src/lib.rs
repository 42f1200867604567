//! Correctness tooling for the rtbh workspace (`rtbh-testkit`).
//!
//! Every other crate asserts its behavior piecemeal; this crate is the
//! shared subsystem their test suites lean on for *adversarial* coverage.
//! Zero external dependencies, like everything else in the workspace
//! (DESIGN.md, "Dependency policy"). Four pillars:
//!
//! * [`driver`] — a deterministic fuzz driver: every case derives from a
//!   printed seed, so any failure reproduces with one command
//!   (`RTBH_FUZZ_SEED=0x… cargo test …`). Iteration counts are bounded by
//!   default (fast tier-1) and scale up under CI via `RTBH_FUZZ_ITERS`.
//! * [`mutate`] — a structure-blind byte-mutation engine (bit flips,
//!   truncations, splices, length-field corruption, interesting-value
//!   injection) for hardening the wire codecs against hostile input.
//! * [`gen`] — grammar-aware generators for the workspace's domain types:
//!   BGP updates, IPFIX-lite flow records, JSON documents, prefix sets.
//!   Where the mutation engine asks "does garbage crash the decoder?",
//!   these ask "does every *valid* value round-trip exactly?".
//! * [`oracle`] — differential oracles: encode→decode→encode equality for
//!   the wire codecs, parse→write→parse fixpoints for JSON, and
//!   `FrozenLpm`-vs-`PrefixTrie` lookup equivalence; [`offset`] keeps the
//!   naive clock-offset grid scan that the shipped vote kernel is held to,
//!   [`index`] the per-sample LPM scan the shipped index build is held to,
//!   and [`rib`] the per-router route maps the fabric's shared RIB is held
//!   to.
//!
//! Plus [`streamgen`] — interleaved update/sample event feeds with
//! adversarial orderings (bounded out-of-order arrivals, duplicates,
//! seal-boundary bursts, clock-skewed sources) for the streaming analyzer's
//! differential and fuzz suites — and two smaller utilities: [`snapshot`]
//! (golden-file assertions with a `RTBH_BLESS=1` regeneration path and a
//! readable first-divergence diff) and [`seeds`] (compile-time seed tables
//! with uniqueness assertions so no two randomized tests in a crate share
//! an `rtbh-rng` stream).
//!
//! See `TESTING.md` at the workspace root for the full suite map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod gen;
pub mod index;
pub mod mutate;
pub mod offset;
pub mod oracle;
pub mod rib;
pub mod seeds;
pub mod snapshot;
pub mod streamgen;

pub use driver::{fuzz_iters, FuzzTarget};
pub use seeds::assert_unique_seeds;
pub use snapshot::assert_snapshot;
