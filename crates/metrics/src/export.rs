//! Result serialization: run records round-trip through JSON so figure
//! data can be archived, diffed, and post-processed outside Rust.
//!
//! Built on the in-repo [`caps_json`] crate (the build runs with no
//! registry access): a field-list macro generates both directions of the
//! conversion, so adding a counter to [`Stats`] only requires extending
//! one list here. `u64` counters round-trip exactly; floats go through
//! shortest-roundtrip formatting and come back bit-identical.

use std::io::Write as _;
use std::path::Path;

use caps_gpu_sim::port::PortSnapshot;
use caps_gpu_sim::stats::{AdaptReport, KernelStats, LinkReport, Stats};
use caps_json::{obj, Error, Value};

use crate::energy::EnergyBreakdown;
use crate::harness::RunRecord;

/// Apply a macro to every `Stats` field (all `u64`).
macro_rules! for_each_stats_field {
    ($m:ident) => {
        $m!(
            cycles,
            warp_instructions,
            stall_cycles,
            mem_wait_cycles,
            l1d_demand_accesses,
            l1d_demand_hits,
            l1d_demand_misses,
            l1d_mshr_merges,
            l1d_reservation_fails,
            store_accesses,
            prefetch_issued,
            prefetch_dropped,
            prefetch_useful,
            prefetch_late,
            prefetch_early_evicted,
            prefetch_unused_resident,
            prefetch_distance_sum,
            prefetch_distance_count,
            prefetch_table_accesses,
            prefetch_mispredicts,
            prefetch_wakeups,
            icnt_requests,
            icnt_replies,
            icnt_stalls,
            l2_accesses,
            l2_hits,
            l2_misses,
            dram_reads,
            dram_writes,
            dram_row_hits,
            dram_row_misses,
            dram_queue_stalls,
            ctas_launched,
            ctas_completed
        )
    };
}

/// Apply a macro to every `EnergyBreakdown` field (all `f64`).
macro_rules! for_each_energy_field {
    ($m:ident) => {
        $m!(core_mj, l1_mj, l2_mj, dram_mj, icnt_mj, static_mj, caps_mj)
    };
}

fn stats_to_value(s: &Stats) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), Value::UInt(s.$f)),)*])
        };
    }
    for_each_stats_field!(emit)
}

fn stats_from_value(v: &Value) -> Result<Stats, Error> {
    let mut s = Stats::default();
    macro_rules! read {
        ($($f:ident),*) => {
            $(s.$f = v.require(stringify!($f))?.as_u64()?;)*
        };
    }
    for_each_stats_field!(read);
    Ok(s)
}

fn energy_to_value(e: &EnergyBreakdown) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), Value::Float(e.$f)),)*])
        };
    }
    for_each_energy_field!(emit)
}

fn energy_from_value(v: &Value) -> Result<EnergyBreakdown, Error> {
    let mut e = EnergyBreakdown::default();
    macro_rules! read {
        ($($f:ident),*) => {
            $(e.$f = v.require(stringify!($f))?.as_f64()?;)*
        };
    }
    for_each_energy_field!(read);
    Ok(e)
}

/// Apply a macro to every `LinkReport` subsystem (all [`PortSnapshot`]).
macro_rules! for_each_link_field {
    ($m:ident) => {
        $m!(
            req_net,
            pf_req_net,
            reply_net,
            pf_reply_net,
            sm_ports,
            partition_ports,
            dram_queues
        )
    };
}

fn snapshot_to_value(s: &PortSnapshot) -> Value {
    obj(vec![
        ("high_water", Value::UInt(s.high_water as u64)),
        ("credit_stalls", Value::UInt(s.credit_stalls)),
        ("grows", Value::UInt(s.grows)),
    ])
}

fn snapshot_from_value(v: &Value) -> Result<PortSnapshot, Error> {
    Ok(PortSnapshot {
        high_water: v.require("high_water")?.as_u64()? as usize,
        credit_stalls: v.require("credit_stalls")?.as_u64()?,
        grows: v.require("grows")?.as_u64()?,
    })
}

fn links_to_value(l: &LinkReport) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), snapshot_to_value(&l.$f)),)*])
        };
    }
    for_each_link_field!(emit)
}

fn links_from_value(v: &Value) -> Result<LinkReport, Error> {
    let mut l = LinkReport::default();
    macro_rules! read {
        ($($f:ident),*) => {
            $(l.$f = snapshot_from_value(v.require(stringify!($f))?)?;)*
        };
    }
    for_each_link_field!(read);
    Ok(l)
}

/// Apply a macro to every `KernelStats` field (all `u64`).
macro_rules! for_each_kernel_stats_field {
    ($m:ident) => {
        $m!(
            instructions,
            ctas_launched,
            ctas_completed,
            l1d_accesses,
            l1d_misses,
            l2_accesses,
            l2_hits,
            l2_misses,
            dram_reads,
            dram_writes,
            start_cycle,
            finish_cycle
        )
    };
}

fn kernel_stats_to_value(k: &KernelStats) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), Value::UInt(k.$f)),)*])
        };
    }
    for_each_kernel_stats_field!(emit)
}

fn kernel_stats_from_value(v: &Value) -> Result<KernelStats, Error> {
    let mut k = KernelStats::default();
    macro_rules! read {
        ($($f:ident),*) => {
            $(k.$f = v.require(stringify!($f))?.as_u64()?;)*
        };
    }
    for_each_kernel_stats_field!(read);
    Ok(k)
}

/// Serialize one record (shared with the result cache's entry files and
/// the simulation service's streamed `record` replies).
pub fn record_to_value(r: &RunRecord) -> Value {
    obj(vec![
        ("workload", Value::Str(r.workload.clone())),
        ("engine", Value::Str(r.engine.clone())),
        ("stats", stats_to_value(&r.stats)),
        ("energy", energy_to_value(&r.energy)),
        ("links", links_to_value(&r.links)),
        (
            "per_kernel",
            Value::Arr(r.per_kernel.iter().map(kernel_stats_to_value).collect()),
        ),
    ])
}

/// Parse one record (shared with the result cache's entry files and the
/// simulation service's streamed `record` replies).
pub fn record_from_value(v: &Value) -> Result<RunRecord, Error> {
    Ok(RunRecord {
        workload: v.require("workload")?.as_str()?.to_string(),
        engine: v.require("engine")?.as_str()?.to_string(),
        stats: stats_from_value(v.require("stats")?)?,
        energy: energy_from_value(v.require("energy")?)?,
        links: links_from_value(v.require("links")?)?,
        per_kernel: v
            .require("per_kernel")?
            .as_arr()?
            .iter()
            .map(kernel_stats_from_value)
            .collect::<Result<_, _>>()?,
        adapt: AdaptReport::default(),
    })
}

// --- job (spec + opts) wire serialization ----------------------------
//
// The simulation service ships whole jobs over its socket, so the full
// run identity — workload, engine, scale, complete `GpuConfig`,
// tenancy, and the host-execution `RunOpts` — round-trips through JSON
// here. The shapes mirror the digest impls field for field: anything
// that perturbs a job's content key must survive the wire, or a
// submitted job would silently alias a different cache entry.

use caps_gpu_sim::config::{CacheConfig, DramTiming, GpuConfig, SchedulerKind};
use caps_workloads::{Scale, Workload};

use crate::engine::Engine;
use crate::harness::{RunOpts, RunSpec, Tenancy};

/// Parse a workload abbreviation (exact match against the suite).
pub fn workload_from_abbr(abbr: &str) -> Result<Workload, Error> {
    caps_workloads::all_workloads()
        .into_iter()
        .find(|w| w.abbr() == abbr)
        .ok_or_else(|| Error::schema(format!("unknown workload {abbr:?}")))
}

fn scheduler_to_value(k: SchedulerKind) -> Value {
    Value::Str(k.name().to_string())
}

fn scheduler_from_value(v: &Value) -> Result<SchedulerKind, Error> {
    let name = v.as_str()?;
    [
        SchedulerKind::Lrr,
        SchedulerKind::Gto,
        SchedulerKind::PasGto,
        SchedulerKind::TwoLevel,
        SchedulerKind::Pas,
        SchedulerKind::PasNoWakeup,
        SchedulerKind::OrchGrouped,
    ]
    .into_iter()
    .find(|k| k.name() == name)
    .ok_or_else(|| Error::schema(format!("unknown scheduler {name:?}")))
}

/// Apply a macro to every `CacheConfig` field (all `u32`).
macro_rules! for_each_cache_config_field {
    ($m:ident) => {
        $m!(size_bytes, line_size, assoc, mshr_entries, mshr_merge, hit_latency)
    };
}

fn cache_config_to_value(c: &CacheConfig) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), Value::UInt(c.$f as u64)),)*])
        };
    }
    for_each_cache_config_field!(emit)
}

fn cache_config_from_value(v: &Value) -> Result<CacheConfig, Error> {
    let mut c = GpuConfig::fermi_gtx480().l1d;
    macro_rules! read {
        ($($f:ident),*) => {
            $(c.$f = v.require(stringify!($f))?.as_u64()? as u32;)*
        };
    }
    for_each_cache_config_field!(read);
    Ok(c)
}

/// Apply a macro to every `DramTiming` field (all `u32`).
macro_rules! for_each_dram_timing_field {
    ($m:ident) => {
        $m!(t_cl, t_rp, t_rc, t_ras, t_rcd, t_rrd, t_cdlr, t_wr, t_burst)
    };
}

fn dram_timing_to_value(t: &DramTiming) -> Value {
    macro_rules! emit {
        ($($f:ident),*) => {
            obj(vec![$((stringify!($f), Value::UInt(t.$f as u64)),)*])
        };
    }
    for_each_dram_timing_field!(emit)
}

fn dram_timing_from_value(v: &Value) -> Result<DramTiming, Error> {
    let mut t = DramTiming::gddr5();
    macro_rules! read {
        ($($f:ident),*) => {
            $(t.$f = v.require(stringify!($f))?.as_u64()? as u32;)*
        };
    }
    for_each_dram_timing_field!(read);
    Ok(t)
}

/// Apply a macro to every scalar `GpuConfig` field, tagged with its
/// type (`usize` or `u32`); the nested `scheduler`/`l1d`/`l2`/
/// `dram_timing` structures are handled explicitly.
macro_rules! for_each_gpu_config_scalar {
    ($m:ident) => {
        $m!(
            (num_sms, usize),
            (simt_width, u32),
            (max_warps_per_sm, usize),
            (max_ctas_per_sm, usize),
            (ready_queue_size, usize),
            (num_partitions, usize),
            (num_dram_channels, usize),
            (dram_banks, usize),
            (dram_queue_entries, usize),
            (core_clock_mhz, u32),
            (dram_clock_mhz, u32),
            (icnt_latency, u32),
            (icnt_bandwidth, u32),
            (icnt_queue_depth, usize),
            (issue_width, u32),
            (ldst_queue_depth, usize),
            (prefetch_queue_depth, usize),
            (prefetch_issue_per_cycle, u32),
            (prefetch_max_age, u32)
        )
    };
}

/// Serialize a full GPU configuration.
pub fn config_to_value(c: &GpuConfig) -> Value {
    let mut fields: Vec<(String, Value)> = Vec::new();
    macro_rules! emit {
        ($(($f:ident, $t:ident)),*) => {
            $(fields.push((stringify!($f).to_string(), Value::UInt(c.$f as u64)));)*
        };
    }
    for_each_gpu_config_scalar!(emit);
    fields.push(("scheduler".to_string(), scheduler_to_value(c.scheduler)));
    fields.push(("l1d".to_string(), cache_config_to_value(&c.l1d)));
    fields.push(("l2".to_string(), cache_config_to_value(&c.l2)));
    fields.push((
        "dram_timing".to_string(),
        dram_timing_to_value(&c.dram_timing),
    ));
    Value::Obj(fields)
}

/// Parse a full GPU configuration (no validation — callers that accept
/// untrusted input check the job with [`RunSpec::check`]).
pub fn config_from_value(v: &Value) -> Result<GpuConfig, Error> {
    let mut c = GpuConfig::fermi_gtx480();
    macro_rules! read {
        ($(($f:ident, $t:ident)),*) => {
            $(c.$f = v.require(stringify!($f))?.as_u64()? as $t;)*
        };
    }
    for_each_gpu_config_scalar!(read);
    c.scheduler = scheduler_from_value(v.require("scheduler")?)?;
    c.l1d = cache_config_from_value(v.require("l1d")?)?;
    c.l2 = cache_config_from_value(v.require("l2")?)?;
    c.dram_timing = dram_timing_from_value(v.require("dram_timing")?)?;
    Ok(c)
}

/// Serialize one run spec (workload, engine, scale, config, tenancy).
pub fn spec_to_value(s: &RunSpec) -> Value {
    let tenancy = match &s.tenancy {
        Tenancy::Solo => obj(vec![("kind", Value::Str("solo".to_string()))]),
        Tenancy::Co {
            partners,
            policy,
            throttle,
        } => obj(vec![
            ("kind", Value::Str("co".to_string())),
            (
                "partners",
                Value::Arr(
                    partners
                        .iter()
                        .map(|p| Value::Str(p.abbr().to_string()))
                        .collect(),
                ),
            ),
            ("policy", Value::Str(policy.name().to_string())),
            ("throttle", Value::Bool(*throttle)),
        ]),
    };
    obj(vec![
        ("workload", Value::Str(s.workload.abbr().to_string())),
        ("engine", Value::Str(s.engine.wire_name())),
        (
            "scale",
            Value::Str(
                match s.scale {
                    Scale::Full => "full",
                    Scale::Small => "small",
                }
                .to_string(),
            ),
        ),
        ("config", config_to_value(&s.base_config)),
        ("tenancy", tenancy),
    ])
}

/// Parse one run spec.
pub fn spec_from_value(v: &Value) -> Result<RunSpec, Error> {
    let workload = workload_from_abbr(v.require("workload")?.as_str()?)?;
    let engine = Engine::from_wire(v.require("engine")?.as_str()?).map_err(Error::schema)?;
    let scale = match v.require("scale")?.as_str()? {
        "full" => Scale::Full,
        "small" => Scale::Small,
        other => return Err(Error::schema(format!("unknown scale {other:?}"))),
    };
    let base_config = config_from_value(v.require("config")?)?;
    let tv = v.require("tenancy")?;
    let tenancy = match tv.require("kind")?.as_str()? {
        "solo" => Tenancy::Solo,
        "co" => Tenancy::Co {
            partners: tv
                .require("partners")?
                .as_arr()?
                .iter()
                .map(|p| workload_from_abbr(p.as_str()?))
                .collect::<Result<_, _>>()?,
            policy: tv
                .require("policy")?
                .as_str()?
                .parse()
                .map_err(Error::schema)?,
            throttle: match tv.require("throttle")? {
                Value::Bool(b) => *b,
                other => {
                    return Err(Error::schema(format!("expected bool throttle, got {other:?}")))
                }
            },
        },
        other => return Err(Error::schema(format!("unknown tenancy kind {other:?}"))),
    };
    Ok(RunSpec {
        workload,
        engine,
        base_config,
        scale,
        tenancy,
    })
}

/// Serialize run options; `None` fields are omitted, so the default
/// options encode as `{}` and old clients stay compatible when new
/// knobs appear.
pub fn opts_to_value(o: &RunOpts) -> Value {
    let mut fields: Vec<(String, Value)> = Vec::new();
    if let Some(b) = o.fast_forward {
        fields.push(("fast_forward".to_string(), Value::Bool(b)));
    }
    if let Some(n) = o.max_cycles {
        fields.push(("max_cycles".to_string(), Value::UInt(n)));
    }
    Value::Obj(fields)
}

/// Parse run options (missing fields mean "environment default"; the
/// parallel-engine knobs older clients may send are ignored).
pub fn opts_from_value(v: &Value) -> Result<RunOpts, Error> {
    Ok(RunOpts {
        fast_forward: match v.get("fast_forward") {
            None => None,
            Some(Value::Bool(b)) => Some(*b),
            Some(other) => {
                return Err(Error::schema(format!(
                    "expected bool fast_forward, got {other:?}"
                )))
            }
        },
        max_cycles: v.get("max_cycles").map(Value::as_u64).transpose()?,
    })
}

/// Serialize records to a JSON string (pretty-printed, stable field
/// order from the field-list macros above).
pub fn to_json(records: &[RunRecord]) -> String {
    Value::Arr(records.iter().map(record_to_value).collect()).pretty()
}

/// Parse records back from JSON.
pub fn from_json(s: &str) -> Result<Vec<RunRecord>, Error> {
    Value::parse(s)?.as_arr()?.iter().map(record_from_value).collect()
}

/// Write records to `path` as JSON.
pub fn save(records: &[RunRecord], path: &Path) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(records).as_bytes())
}

/// Load records from `path`.
pub fn load(path: &Path) -> std::io::Result<Vec<RunRecord>> {
    let s = std::fs::read_to_string(path)?;
    from_json(&s).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::harness::{run_one, RunSpec};
    use caps_workloads::Workload;

    #[test]
    fn records_round_trip_through_json() {
        let r = run_one(&RunSpec::small(Workload::Scn, Engine::Caps));
        let json = to_json(std::slice::from_ref(&r));
        let back = from_json(&json).expect("parses");
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].workload, r.workload);
        assert_eq!(back[0].engine, r.engine);
        assert_eq!(back[0].stats, r.stats);
        assert!((back[0].energy.total_mj() - r.energy.total_mj()).abs() < 1e-12);
    }

    #[test]
    fn save_and_load_files() {
        let r = run_one(&RunSpec::small(Workload::Scn, Engine::Baseline));
        let dir = std::env::temp_dir().join("caps-export-test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("records.json");
        save(std::slice::from_ref(&r), &path).expect("save");
        let back = load(&path).expect("load");
        assert_eq!(back[0].stats, r.stats);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn co_run_records_round_trip_per_kernel() {
        let spec = RunSpec::small(Workload::Scn, Engine::Caps)
            .co_resident(vec![Workload::Mrq], caps_gpu_sim::tenant::Partitioning::Shared);
        let r = run_one(&spec);
        assert_eq!(r.per_kernel.len(), 2);
        let back = from_json(&to_json(std::slice::from_ref(&r))).expect("parses");
        assert_eq!(back[0].per_kernel, r.per_kernel);
        assert_eq!(back[0].stats, r.stats);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(from_json("{not json").is_err());
    }

    #[test]
    fn specs_round_trip_through_json() {
        use caps_gpu_sim::tenant::Partitioning;
        let mut spec = RunSpec::paper(Workload::Mrq, Engine::InterAtDistance(5));
        spec.base_config.l1d.mshr_entries = 16;
        spec.base_config.scheduler = SchedulerKind::PasGto;
        spec.base_config.num_sms = 7;
        spec.base_config.dram_timing.t_burst = 9;
        let back = spec_from_value(&spec_to_value(&spec)).expect("parses");
        assert_eq!(back, spec);

        let co = RunSpec::small(Workload::Scn, Engine::Caps)
            .co_resident(vec![Workload::Mrq, Workload::Mm], Partitioning::SmSplit);
        let back = spec_from_value(&spec_to_value(&co)).expect("parses");
        assert_eq!(back, co);

        // The wire shape preserves the content key exactly: a spec that
        // survives the socket hits the same cache entry.
        use crate::cache::job_digest;
        let o = RunOpts::default();
        assert_eq!(job_digest(&co, &o), job_digest(&back, &o));
    }

    #[test]
    fn opts_round_trip_and_default_is_empty() {
        let d = RunOpts::default();
        assert_eq!(opts_to_value(&d), Value::Obj(vec![]));
        assert_eq!(opts_from_value(&opts_to_value(&d)).unwrap(), d);

        let full = RunOpts {
            fast_forward: Some(false),
            max_cycles: Some(12345),
        };
        assert_eq!(opts_from_value(&opts_to_value(&full)).unwrap(), full);

        // Options from clients of the parallel engine still parse.
        let legacy = obj(vec![
            ("sim_threads", Value::UInt(3)),
            ("adaptive", Value::Bool(true)),
            ("max_cycles", Value::UInt(7)),
        ]);
        assert_eq!(
            opts_from_value(&legacy).unwrap(),
            RunOpts {
                max_cycles: Some(7),
                ..RunOpts::default()
            }
        );
    }

    #[test]
    fn bad_spec_fields_are_schema_errors() {
        let spec = RunSpec::small(Workload::Scn, Engine::Caps);
        let good = spec_to_value(&spec);
        for (field, bad) in [
            ("workload", Value::Str("NOPE".into())),
            ("engine", Value::Str("CPAS".into())),
            ("scale", Value::Str("medium".into())),
            ("config", Value::UInt(3)),
            ("tenancy", obj(vec![("kind", Value::Str("duo".into()))])),
        ] {
            let mut v = good.clone();
            if let Value::Obj(fields) = &mut v {
                for (k, slot) in fields.iter_mut() {
                    if k == field {
                        *slot = bad.clone();
                    }
                }
            }
            assert!(spec_from_value(&v).is_err(), "bad {field} must not parse");
        }
    }

    #[test]
    fn missing_stats_field_is_an_error() {
        let r = run_one(&RunSpec::small(Workload::Scn, Engine::Baseline));
        let json = to_json(std::slice::from_ref(&r)).replace("\"cycles\"", "\"cycels\"");
        assert!(from_json(&json).is_err());
        // `links` and `per_kernel` are required, like `stats`.
        for block in ["links", "per_kernel"] {
            let mut v = record_to_value(&r);
            if let Value::Obj(fields) = &mut v {
                fields.retain(|(k, _)| k != block);
            }
            assert!(record_from_value(&v).is_err(), "record without {block}");
        }
    }
}
