//! The scenario engine: a deterministic IXP digital twin.
//!
//! This crate composes the substrates — [`rtbh_bgp`] (route server, RIB),
//! [`rtbh_fabric`] (switching, sampling), [`rtbh_traffic`] (workloads) and
//! [`rtbh_peeringdb`] (AS registry) — into a full measurement period like the
//! paper's 104 days, and emits:
//!
//! * a [`Corpus`] — exactly what the paper's vantage point records: the
//!   route-server BGP update log, the sampled flow log (with the injected
//!   clock offset and internal-traffic pollution), the MAC→member mapping,
//!   and the AS registry. **The analysis pipeline consumes only this.**
//! * a [`GroundTruth`] — every planted event, policy and parameter, used by
//!   tests and EXPERIMENTS.md to score the analysis, never by the analysis
//!   itself.
//!
//! The event mix, rates and policy distributions are calibrated against the
//! paper's findings (see `DESIGN.md` §5 and the constants in [`config`]).
//! Everything is deterministic per [`ScenarioConfig::seed`]: workloads draw
//! from per-component ChaCha20 streams, so even the thread-parallel
//! generation path yields byte-identical corpora.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod members;
pub mod planner;
pub mod scoring;
pub mod truth;

pub use config::ScenarioConfig;
pub use engine::{run, SimOutput};
pub use rtbh_core::corpus::{Corpus, MemberInfo};
pub use scoring::{score, Scorecard, TruthLabel};
pub use truth::{EventKind, GroundTruth, HostProfile, PlannedEvent};
