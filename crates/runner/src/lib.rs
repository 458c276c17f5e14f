//! # runner
//!
//! The scenario-sweep engine behind the `repro` binary: a registry of every
//! experiment in the reproduction of *Abusing Cache Line Dirty States to Leak
//! Information in Commercial Processors* (HPCA 2022) plus a hand-rolled
//! work-stealing thread pool that fans sweep points out across cores.
//!
//! The crate is deliberately domain-free — it knows about experiment *shape*
//! (scenarios made of independently runnable sweep points that produce
//! [`analysis::table::Table`] rows), not about caches or covert channels.
//! The `bench` crate registers the concrete experiments.
//!
//! * [`scale`] — the [`Scale`] knob (`Quick` vs `Full`) and the
//!   single [`Sizes`] table every experiment draws its
//!   trial/sample/frame counts from.
//! * [`seed`] — SplitMix64-based seed derivation:
//!   `root_seed → scenario id → point index`, so results are reproducible
//!   and independent of execution order; plus the `--seed` grammar.
//! * [`scenario`] — the [`Scenario`] descriptor: stable
//!   id, paper cross-reference, point count, per-point run function and a
//!   deterministic assembly step.
//! * [`registry`] — the [`Registry`]: ordered scenario
//!   collection with glob-pattern selection (`repro run 'table*'`).
//! * [`pool`] — the work-stealing executor over `std::thread` (the build is
//!   offline, so no rayon); results come back in submission order regardless
//!   of thread count, panics are confined to the job that raised them, and
//!   cheap atomic counters ([`PoolStats`]) feed `repro run --verbose`.
//! * [`executor`] — runs selected scenarios on the pool and collects
//!   per-scenario wall times and output tables.
//! * [`manifest`] — renders a run into the `results/manifest.json` table.
//!
//! ## Determinism contract
//!
//! Every sweep point derives its RNG seed from
//! `(root seed, scenario id, point index)` *before* execution and assembles
//! results in point order, so a run is bit-identical at any `--threads`
//! value. The only non-deterministic field anywhere is the wall-time column
//! of the manifest.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod executor;
pub mod manifest;
pub mod pool;
pub mod registry;
pub mod scale;
pub mod scenario;
pub mod seed;

pub use executor::{execute, RunConfig, ScenarioRun};
pub use pool::PoolStats;
pub use registry::Registry;
pub use scale::{Scale, Sizes};
pub use scenario::{PointCtx, PointOutput, Scenario, Seeding};
