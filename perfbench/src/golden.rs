//! Reference outputs the benchmark checks every run against.
//!
//! * `results/fig10_records.json` — the committed Figure 10 grid, read
//!   with [`caps_metrics::load`]; every `fig10-grid` record's `Stats`
//!   must equal it counter for counter.
//! * `TENANTS_corun.json` — the committed co-run table; every
//!   `corun-served` record's cycle count and per-tenant counters must
//!   equal it.
//!
//! Mismatches are returned as messages naming the job and the counter,
//! so a failing run says what moved.

use std::collections::HashMap;
use std::path::Path;

use caps_json::Value;
use caps_metrics::{record_to_value, RunRecord};

/// Committed Figure 10 grid, relative to the repository root.
pub const FIG10_RECORDS: &str = "results/fig10_records.json";
/// Committed co-run table, relative to the repository root.
pub const TENANTS_CORUN: &str = "TENANTS_corun.json";

/// Every counter of two `Stats` blocks that differs, as
/// `name: got X, want Y`.
pub fn stats_diff(got: &RunRecord, want: &RunRecord) -> Vec<String> {
    let (g, w) = (record_to_value(got), record_to_value(want));
    let (Some(Value::Obj(g)), Some(Value::Obj(w))) = (g.get("stats"), w.get("stats")) else {
        return vec!["stats block missing from the record encoding".to_string()];
    };
    let want: HashMap<&str, &Value> = w.iter().map(|(k, v)| (k.as_str(), v)).collect();
    let mut out: Vec<String> = g
        .iter()
        .filter(|(k, v)| want.get(k.as_str()) != Some(&v))
        .map(|(k, v)| match want.get(k.as_str()) {
            Some(wv) => format!("{k}: got {}, want {}", v.compact(), wv.compact()),
            None => format!("{k}: not in the reference"),
        })
        .collect();
    if g.len() != w.len() {
        out.push(format!(
            "stats has {} counters, reference {}",
            g.len(),
            w.len()
        ));
    }
    out
}

/// The committed Figure 10 records, keyed by `(workload, engine)` label.
pub struct Fig10Golden {
    by_key: HashMap<(String, String), RunRecord>,
}

impl Fig10Golden {
    /// Load [`FIG10_RECORDS`] under `root`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join(FIG10_RECORDS);
        let records = caps_metrics::load(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let by_key = records
            .into_iter()
            .map(|r| ((r.workload.clone(), r.engine.clone()), r))
            .collect();
        Ok(Fig10Golden { by_key })
    }

    /// Mismatches of `rec` against its reference record.
    pub fn check(&self, rec: &RunRecord) -> Vec<String> {
        let label = format!("{}/{}", rec.workload, rec.engine);
        match self.by_key.get(&(rec.workload.clone(), rec.engine.clone())) {
            None => vec![format!("{label}: no reference record")],
            Some(want) => stats_diff(rec, want)
                .into_iter()
                .map(|d| format!("{label}: {d}"))
                .collect(),
        }
    }

    /// The reference record for `(workload, engine)`.
    #[cfg(test)]
    pub fn get(&self, workload: &str, engine: &str) -> Option<&RunRecord> {
        self.by_key.get(&(workload.to_string(), engine.to_string()))
    }
}

/// One tenant row of `TENANTS_corun.json`.
#[derive(Debug, Clone)]
pub struct TenantRow {
    /// Tenant workload abbreviation.
    pub workload: String,
    /// IPC of the same workload and engine running alone.
    pub solo_ipc: f64,
    /// `(field, value)` of every per-tenant counter the table records.
    pub counters: Vec<(&'static str, u64)>,
}

/// Per-tenant counters recorded in the co-run table.
const TENANT_COUNTERS: [&str; 6] = [
    "instructions",
    "ctas_completed",
    "l2_misses",
    "dram_reads",
    "start_cycle",
    "finish_cycle",
];

fn tenant_counter(k: &caps_gpu_sim::stats::KernelStats, field: &str) -> u64 {
    match field {
        "instructions" => k.instructions,
        "ctas_completed" => k.ctas_completed,
        "l2_misses" => k.l2_misses,
        "dram_reads" => k.dram_reads,
        "start_cycle" => k.start_cycle,
        "finish_cycle" => k.finish_cycle,
        other => unreachable!("unknown tenant counter {other}"),
    }
}

/// One co-run entry: machine cycles plus its tenants.
#[derive(Debug, Clone)]
pub struct CorunEntry {
    /// Co-run cycle count.
    pub cycles: u64,
    /// Tenants, tenant 0 first.
    pub tenants: Vec<TenantRow>,
}

/// The committed co-run table keyed by `(pairing, policy, engine)`,
/// e.g. `("SCN+MRQ", "shared", "CAPS")`.
pub struct CorunGolden {
    by_key: HashMap<(String, String, String), CorunEntry>,
}

impl CorunGolden {
    /// Load [`TENANTS_CORUN`] under `root`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join(TENANTS_CORUN);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    fn parse(text: &str) -> Result<Self, String> {
        let doc = Value::parse(text).map_err(|e| e.to_string())?;
        let str_of = |v: &Value, k: &str| -> Result<String, String> {
            Ok(v.require(k)
                .and_then(Value::as_str)
                .map_err(|e| e.to_string())?
                .to_string())
        };
        let u64_of = |v: &Value, k: &str| {
            v.require(k)
                .and_then(Value::as_u64)
                .map_err(|e| e.to_string())
        };
        let mut by_key = HashMap::new();
        for e in doc
            .require("entries")
            .and_then(Value::as_arr)
            .map_err(|e| e.to_string())?
        {
            let mut tenants = Vec::new();
            for t in e
                .require("tenants")
                .and_then(Value::as_arr)
                .map_err(|e| e.to_string())?
            {
                let mut counters = Vec::new();
                for field in TENANT_COUNTERS {
                    counters.push((field, u64_of(t, field)?));
                }
                tenants.push(TenantRow {
                    workload: str_of(t, "workload")?,
                    solo_ipc: t
                        .require("solo_ipc")
                        .and_then(Value::as_f64)
                        .map_err(|e| e.to_string())?,
                    counters,
                });
            }
            let key = (
                str_of(e, "pairing")?,
                str_of(e, "policy")?,
                str_of(e, "engine")?,
            );
            let entry = CorunEntry {
                cycles: u64_of(e, "cycles")?,
                tenants,
            };
            by_key.insert(key, entry);
        }
        Ok(CorunGolden { by_key })
    }

    /// The entry for `(pairing, policy, engine)`.
    pub fn get(&self, pairing: &str, policy: &str, engine: &str) -> Option<&CorunEntry> {
        self.by_key
            .get(&(pairing.to_string(), policy.to_string(), engine.to_string()))
    }

    /// Mismatches of a co-run record against its entry.
    pub fn check(&self, pairing: &str, policy: &str, rec: &RunRecord) -> Vec<String> {
        let label = format!("{pairing}/{policy}/{}", rec.engine);
        let Some(want) = self.get(pairing, policy, &rec.engine) else {
            return vec![format!("{label}: no reference entry")];
        };
        let mut out = Vec::new();
        if rec.stats.cycles != want.cycles {
            out.push(format!(
                "{label}: cycles: got {}, want {}",
                rec.stats.cycles, want.cycles
            ));
        }
        if rec.per_kernel.len() != want.tenants.len() {
            out.push(format!(
                "{label}: {} tenants, reference {}",
                rec.per_kernel.len(),
                want.tenants.len()
            ));
        }
        for (i, (k, t)) in rec.per_kernel.iter().zip(&want.tenants).enumerate() {
            for &(field, value) in &t.counters {
                let got = tenant_counter(k, field);
                if got != value {
                    out.push(format!(
                        "{label}: tenant {i} ({}) {field}: got {got}, want {value}",
                        t.workload
                    ));
                }
            }
        }
        out
    }
}

/// Whether a cache- or socket-served record equals the record its job
/// produced cold: identity, statistics, per-tenant counters, link
/// report and energy.
pub fn same_record(a: &RunRecord, b: &RunRecord) -> bool {
    a.workload == b.workload
        && a.engine == b.engine
        && a.stats == b.stats
        && a.per_kernel == b.per_kernel
        && a.links == b.links
        && a.energy == b.energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use caps_gpu_sim::stats::KernelStats;

    fn root() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
    }

    #[test]
    fn fig10_check_passes_the_reference_and_catches_one_flipped_counter() {
        let golden = Fig10Golden::load(root()).expect("committed fig10 records");
        let want = golden.get("CNV", "CAPS").expect("CNV/CAPS present").clone();
        assert!(golden.check(&want).is_empty());

        let mut flipped = want.clone();
        flipped.stats.dram_reads += 1;
        let diff = golden.check(&flipped);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(diff[0].starts_with("CNV/CAPS: dram_reads: got"), "{diff:?}");

        let mut unknown = want;
        unknown.engine = "NOPE".to_string();
        assert_eq!(golden.check(&unknown).len(), 1);
    }

    #[test]
    fn corun_check_passes_the_reference_and_catches_one_flipped_counter() {
        let golden = CorunGolden::load(root()).expect("committed co-run table");
        let entry = golden
            .get("MM+BFS", "shared", "CAPS")
            .expect("entry")
            .clone();
        let mut rec = caps_metrics::run_one(&caps_metrics::RunSpec::small(
            caps_workloads::Workload::Jc1,
            caps_metrics::Engine::Caps,
        ));
        rec.stats.cycles = entry.cycles;
        rec.per_kernel = entry
            .tenants
            .iter()
            .map(|t| {
                let mut k = KernelStats::default();
                for &(field, v) in &t.counters {
                    match field {
                        "instructions" => k.instructions = v,
                        "ctas_completed" => k.ctas_completed = v,
                        "l2_misses" => k.l2_misses = v,
                        "dram_reads" => k.dram_reads = v,
                        "start_cycle" => k.start_cycle = v,
                        "finish_cycle" => k.finish_cycle = v,
                        _ => unreachable!(),
                    }
                }
                k
            })
            .collect();
        assert!(golden.check("MM+BFS", "shared", &rec).is_empty());

        let mut flipped = rec.clone();
        flipped.per_kernel[1].l2_misses += 1;
        let diff = golden.check("MM+BFS", "shared", &flipped);
        assert_eq!(diff.len(), 1, "{diff:?}");
        assert!(diff[0].contains("tenant 1 (BFS) l2_misses"), "{diff:?}");

        flipped = rec.clone();
        flipped.stats.cycles -= 1;
        assert_eq!(golden.check("MM+BFS", "shared", &flipped).len(), 1);
        assert_eq!(golden.check("MM+BFS", "nope", &rec).len(), 1);
    }

    #[test]
    fn same_record_compares_served_copies_exactly() {
        let rec = caps_metrics::run_one(&caps_metrics::RunSpec::small(
            caps_workloads::Workload::Jc1,
            caps_metrics::Engine::Baseline,
        ));
        let text = caps_metrics::record_to_value(&rec).pretty();
        let back = caps_metrics::record_from_value(&Value::parse(&text).unwrap()).unwrap();
        assert!(same_record(&rec, &back));
        let mut off = back;
        off.energy.static_mj += 1e-9;
        assert!(!same_record(&rec, &off));
    }
}
