//! # caps-metrics — experiment harness, energy model, and reporting
//!
//! Ties the simulator, the CAPS implementation, the baseline prefetchers
//! and the workload suite together into the paper's evaluation matrix:
//!
//! * [`engine::Engine`] — the prefetcher×scheduler configurations of
//!   Fig. 10–15 (plus the Fig. 1/14 probes and ablations);
//! * [`harness`] — a deterministic, order-stable matrix runner;
//! * [`farm`] — the work-stealing run service behind the harness, with
//!   content-keyed submission dedup;
//! * [`cache`] — the persistent content-addressed result cache keyed by
//!   structural digests ([`caps_gpu_sim::digest`]) salted with a
//!   build-time source fingerprint;
//! * [`energy`] — the GPUWattch-style activity×energy model with the
//!   paper's CAPS table costs;
//! * [`report`] — ASCII renderers for the figure regenerators.

#![warn(missing_docs)]

pub mod cache;
pub mod energy;
pub mod engine;
pub mod export;
pub mod farm;
pub mod harness;
pub mod report;
pub mod sweep;

pub use cache::{job_digest, CacheCounters, CacheMode, ResultCache};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use engine::Engine;
pub use export::{
    config_from_value, config_to_value, from_json, load, opts_from_value, opts_to_value,
    record_from_value, record_to_value, save, spec_from_value, spec_to_value, to_json,
    workload_from_abbr,
};
pub use farm::{Farm, FarmJob, FarmStats, PruneSet};
pub use caps_gpu_sim::tenant::Partitioning;
pub use harness::{
    run_matrix, run_matrix_with_threads, run_one, run_one_with_fast_forward, run_one_with_opts,
    set_default_threads, RunOpts, RunRecord, RunSpec, Tenancy,
};
pub use report::{f3, geomean, mean, pct, Table};
pub use sweep::{standard_axes, sweep, sweep_jobs, sweep_result, SweepPoint, SweepResult};
