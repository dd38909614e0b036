//! The metrics the benchmark reports: names, units, and the checked
//! map that the final JSON line is built from.

use caps_json::{obj, Value};

/// End-to-end metrics, reported by untraced runs (`--trace 0`).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_cycles_per_s", "cycles/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 61] = [
    ("workloads.kernel_us", "us/call"),
    ("gpu_sim.new_us", "us/job"),
    ("gpu_sim.ns_per_cycle", "ns/cycle"),
    ("gpu_sim.ns_per_stepped_cycle", "ns/cycle"),
    ("gpu_sim.self_frac", "ratio"),
    ("gpu_sim.ff_skipped_frac", "ratio"),
    ("gpu_sim.ff_jumps", "count"),
    ("gpu_sim.ring_grows", "count"),
    ("prefetch.caps.on_demand_calls", "count"),
    ("prefetch.caps.on_demand_ns", "ns/call"),
    ("prefetch.caps.on_l1_miss_calls", "count"),
    ("prefetch.caps.on_l1_miss_ns", "ns/call"),
    ("prefetch.caps.requests_out", "count"),
    ("prefetch.caps.host_frac", "ratio"),
    ("prefetch.base.on_demand_calls", "count"),
    ("prefetch.base.on_demand_ns", "ns/call"),
    ("prefetch.base.on_l1_miss_calls", "count"),
    ("prefetch.base.on_l1_miss_ns", "ns/call"),
    ("prefetch.base.requests_out", "count"),
    ("prefetch.base.host_frac", "ratio"),
    ("sim.sm.stall_frac", "ratio"),
    ("sim.sm.mem_wait_cycles", "count"),
    ("sim.l1d.miss_rate", "ratio"),
    ("sim.l1d.mshr_merges", "count"),
    ("sim.l1d.reservation_fails", "count"),
    ("sim.icnt.stalls", "count"),
    ("sim.links.credit_stalls", "count"),
    ("sim.l2.hit_rate", "ratio"),
    ("sim.dram.row_hit_rate", "ratio"),
    ("sim.dram.queue_stalls", "count"),
    ("sim.dram.reads", "count"),
    ("sim.prefetch.issued", "count"),
    ("sim.prefetch.accuracy", "ratio"),
    ("sim.prefetch.coverage", "ratio"),
    ("sim.prefetch.late", "count"),
    ("sim.prefetch.early_evicted", "count"),
    ("sim.prefetch.dropped", "count"),
    ("sim.prefetch.mispredicts", "count"),
    ("sim.prefetch.wakeups", "count"),
    ("sim.tenant.slowdown_max", "ratio"),
    ("sim.tenant.l2_misses", "count"),
    ("farm.jobs", "count"),
    ("farm.sims", "count"),
    ("farm.mem_hits", "count"),
    ("farm.disk_hits", "count"),
    ("farm.dedup", "count"),
    ("cache.digest_us", "us/job"),
    ("cache.lookup_mem_us", "us/lookup"),
    ("cache.lookup_disk_us", "us/lookup"),
    ("cache.insert_us", "us/insert"),
    ("cache.entry_bytes", "B"),
    ("cache.hit_rate", "ratio"),
    ("json.encode_us", "us/record"),
    ("json.decode_us", "us/record"),
    ("json.record_bytes", "B"),
    ("service.first_record_ms", "ms"),
    ("service.record_gap_us", "us"),
    ("service.line_bytes", "B"),
    ("service.proto_encode_us", "us/record"),
    ("service.proto_decode_us", "us/record"),
    ("trace.overhead_frac", "ratio"),
];

/// Values for exactly the metrics of one list, in list order.
pub struct Metrics {
    spec: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    /// An empty map over `spec`.
    pub fn new(spec: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            spec,
            values: vec![None; spec.len()],
        }
    }

    /// Set `name`, which must be in the list.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .spec
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the list"));
        self.values[i] = Some(value);
    }

    /// The `metrics` object: every metric as `{"value", "unit"}`. Fails
    /// on a metric left unset or a value that is not finite.
    pub fn to_value(&self) -> Result<Value, String> {
        let mut entries = Vec::new();
        for (&(name, unit), v) in self.spec.iter().zip(&self.values) {
            let v = v.ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite ({v})"));
            }
            entries.push((
                name,
                obj(vec![
                    ("value", Value::Float(v)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            ));
        }
        Ok(obj(entries))
    }
}

/// `value / total`, 0 when nothing was counted.
pub fn ratio(value: f64, total: f64) -> f64 {
    if total == 0.0 {
        0.0
    } else {
        value / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_lists_what_the_program_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Value::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.require(key)
                .unwrap()
                .as_arr()
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.require(k).unwrap().as_str().unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |spec: &[(&str, &str)]| -> Vec<(String, String)> {
            spec.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn every_metric_must_be_set_and_finite() {
        static SPEC: [(&str, &str); 2] = [("a", "s"), ("b", "count")];
        let mut m = Metrics::new(&SPEC);
        m.set("a", 1.5);
        assert!(m.to_value().unwrap_err().contains("b"));
        m.set("b", f64::NAN);
        assert!(m.to_value().is_err());
        m.set("b", 3.0);
        assert_eq!(
            m.to_value().unwrap().compact(),
            r#"{"a":{"value":1.5,"unit":"s"},"b":{"value":3.0,"unit":"count"}}"#
        );
    }
}
