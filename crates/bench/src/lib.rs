//! # caps-bench — figure and table regeneration
//!
//! One module per table/figure of the paper's evaluation (§VI), plus
//! the two extension experiments. Each exposes a `compute` function
//! returning structured rows and a `render` function printing the same
//! series the paper plots. [`OUTPUTS`] maps every file `run_all` writes
//! under `results/` to its renderer; [`cli`] is the flag parser and
//! sweep driver of the five binaries; `benches/` times the underlying
//! machinery with Criterion.

#![warn(missing_docs)]

pub mod cli;
pub mod ext_kepler;
pub mod ext_sensitivity;
pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod tables;

use caps_json::{obj, Value};
use caps_metrics::{run_matrix, Engine, RunRecord, RunSpec};
use caps_workloads::{all_workloads, Scale, Workload};

/// Host topology metadata for benchmark report headers, so numbers in
/// committed `BENCH_*.json` files can be compared across machines:
/// physical core count, logical CPUs, SMT, the CPU model string, and
/// whether `workers` threads oversubscribe the logical CPUs.
pub fn host_json(workers: usize) -> Value {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let (mut logical, mut physical, model) = parse_cpuinfo(&cpuinfo);
    if logical == 0 {
        // No procfs: a flat topology from the standard library.
        logical = std::thread::available_parallelism().map_or(1, |n| n.get());
        physical = logical;
    }
    obj(vec![
        ("physical_cores", Value::UInt(physical as u64)),
        ("logical_cpus", Value::UInt(logical as u64)),
        ("smt", Value::Bool(logical > physical)),
        ("model", Value::Str(model)),
        ("workers", Value::UInt(workers as u64)),
        ("oversubscribed", Value::Bool(workers > logical)),
    ])
}

/// Logical CPUs, distinct physical cores (`physical id`, `core id`
/// pairs; a CPU without them counts as its own core) and the first
/// `model name` of a `/proc/cpuinfo` text.
fn parse_cpuinfo(text: &str) -> (usize, usize, String) {
    let mut model = String::new();
    let mut cores = std::collections::BTreeSet::new();
    let mut logical = 0;
    for block in text.split("\n\n") {
        let field = |key: &str| {
            block.lines().find_map(|line| {
                let (k, v) = line.split_once(':')?;
                (k.trim() == key).then(|| v.trim().to_string())
            })
        };
        let Some(id) = field("processor") else { continue };
        logical += 1;
        let core = (field("physical id"), field("core id"));
        cores.insert(match core {
            (Some(pkg), Some(core)) => format!("{pkg}/{core}"),
            _ => format!("cpu{id}"),
        });
        if model.is_empty() {
            model = field("model name").unwrap_or_default();
        }
    }
    (logical, cores.len(), model)
}

/// One file `run_all` writes: the name `run_all --only` selects it by,
/// its file name under `results/`, and the function that computes and
/// renders its contents at a kernel scale.
pub type Output = (&'static str, &'static str, fn(Scale) -> String);

/// Every output `run_all` regenerates, in the order it writes them.
pub const OUTPUTS: &[Output] = &[
    ("fig01", "fig01_distance.txt", |scale| {
        fig01::render(&fig01::compute(scale))
    }),
    ("fig03", "fig03_distribution.txt", |_| {
        fig03::render(&fig03::compute())
    }),
    ("fig04", "fig04_iterations.txt", |_| {
        fig04::render(&fig04::compute())
    }),
    ("fig05", "fig05_cta_strides.txt", |_| {
        fig05::render(&fig05::compute())
    }),
    ("fig10", "fig10_ipc.txt", |scale| {
        fig10::render(&fig10::compute(scale))
    }),
    ("fig10_records", "fig10_records.json", |scale| {
        caps_metrics::to_json(&run_grid(&workloads(), &engines_with_baseline(), scale))
    }),
    ("fig11", "fig11_cta_sweep.txt", |scale| {
        fig11::render(&fig11::compute(scale))
    }),
    ("fig12", "fig12_coverage_accuracy.txt", |scale| {
        fig12::render(&fig12::compute(scale))
    }),
    ("fig13", "fig13_bandwidth.txt", |scale| {
        fig13::render(&fig13::compute(scale))
    }),
    ("fig14", "fig14_timeliness.txt", |scale| {
        fig14::render(&fig14::compute(scale))
    }),
    ("fig15", "fig15_energy.txt", |scale| {
        fig15::render(&fig15::compute(scale))
    }),
    ("table12", "table12_hardware.txt", |_| {
        tables::render_tables_1_2()
    }),
    ("table34", "table34_config.txt", |_| {
        tables::render_table_3() + &tables::render_table_4()
    }),
    ("ext_kepler", "ext_kepler.txt", |scale| {
        ext_kepler::render(&ext_kepler::compute(scale))
    }),
    ("ext_sensitivity", "ext_sensitivity.txt", |scale| {
        ext_sensitivity::render(&ext_sensitivity::compute(scale))
    }),
];

/// Look up `run_all --only` names (comma-separated). The error names
/// the offender and lists every valid name.
pub fn select_outputs(list: &str) -> Result<Vec<&'static Output>, String> {
    list.split(',')
        .map(|name| {
            OUTPUTS.iter().find(|o| o.0 == name.trim()).ok_or_else(|| {
                let names: Vec<&str> = OUTPUTS.iter().map(|o| o.0).collect();
                format!("unknown output {name:?}; valid names: {}", names.join(" "))
            })
        })
        .collect()
}

/// Run `engines × workloads` and return records in row-major
/// (workload-major) order.
pub fn run_grid(workloads: &[Workload], engines: &[Engine], scale: Scale) -> Vec<RunRecord> {
    let specs: Vec<RunSpec> = workloads
        .iter()
        .flat_map(|&w| {
            engines.iter().map(move |&e| {
                let mut s = RunSpec::paper(w, e);
                s.scale = scale;
                s
            })
        })
        .collect();
    run_matrix(&specs)
}

/// The baseline-plus-Fig.10 engine set, baseline first.
pub fn engines_with_baseline() -> Vec<Engine> {
    let mut v = vec![Engine::Baseline];
    v.extend(Engine::FIGURE10);
    v
}

/// All 16 workloads (paper order).
pub fn workloads() -> Vec<Workload> {
    all_workloads()
}

/// Parse one benchmark abbreviation (case-insensitive). The error
/// message enumerates every valid name, so a typo in `--workloads`
/// tells the user what the suite actually contains instead of just
/// rejecting the input.
pub fn parse_workload(abbr: &str) -> Result<Workload, String> {
    let abbr = abbr.trim();
    all_workloads()
        .into_iter()
        .find(|w| w.abbr().eq_ignore_ascii_case(abbr))
        .ok_or_else(|| {
            format!(
                "unknown workload {abbr:?}; valid names: {}",
                all_workloads()
                    .iter()
                    .map(|w| w.abbr())
                    .collect::<Vec<_>>()
                    .join(" ")
            )
        })
}

/// Parse a comma-separated workload list (`SCN,MRQ`). Empty items are
/// rejected with the same name-enumerating error as a typo.
pub fn parse_workload_list(list: &str) -> Result<Vec<Workload>, String> {
    list.split(',').map(parse_workload).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_workload_major() {
        let recs = run_grid(
            &[Workload::Jc1, Workload::Scn],
            &[Engine::Baseline, Engine::Caps],
            Scale::Small,
        );
        assert_eq!(recs.len(), 4);
        assert_eq!(
            (recs[0].workload.as_str(), recs[0].engine.as_str()),
            ("JC1", "BASE")
        );
        assert_eq!(
            (recs[1].workload.as_str(), recs[1].engine.as_str()),
            ("JC1", "CAPS")
        );
        assert_eq!(
            (recs[2].workload.as_str(), recs[2].engine.as_str()),
            ("SCN", "BASE")
        );
    }

    #[test]
    fn workload_parsing_is_lenient_on_case_and_loud_on_typos() {
        assert_eq!(parse_workload("scn"), Ok(Workload::Scn));
        assert_eq!(parse_workload(" MRQ "), Ok(Workload::Mrq));
        assert_eq!(
            parse_workload_list("SCN,mrq"),
            Ok(vec![Workload::Scn, Workload::Mrq])
        );
        let err = parse_workload("SNC").unwrap_err();
        assert!(err.contains("SNC"), "names the offender: {err}");
        for w in all_workloads() {
            assert!(err.contains(w.abbr()), "lists {}: {err}", w.abbr());
        }
        assert!(parse_workload_list("SCN,,MRQ").is_err());
    }

    #[test]
    fn cpuinfo_counts_smt_siblings_once() {
        let text = "\
processor\t: 0\nphysical id\t: 0\ncore id\t: 0\nmodel name\t: Xeon X\n\n\
processor\t: 1\nphysical id\t: 0\ncore id\t: 1\nmodel name\t: Xeon X\n\n\
processor\t: 2\nphysical id\t: 0\ncore id\t: 0\nmodel name\t: Xeon X\n\n\
processor\t: 3\nphysical id\t: 0\ncore id\t: 1\nmodel name\t: Xeon X\n";
        assert_eq!(parse_cpuinfo(text), (4, 2, "Xeon X".to_string()));
        assert_eq!(parse_cpuinfo(""), (0, 0, String::new()));
        let host = host_json(1);
        assert!(host.get("logical_cpus").unwrap().as_u64().unwrap() >= 1);
        assert!(host.get("physical_cores").unwrap().as_u64().unwrap() >= 1);
    }

    #[test]
    fn outputs_have_unique_names_and_files() {
        for (i, o) in OUTPUTS.iter().enumerate() {
            assert!(o.1.starts_with(o.0), "{} writes {}", o.0, o.1);
            assert!(OUTPUTS[..i].iter().all(|p| p.0 != o.0 && p.1 != o.1));
        }
        let picked = select_outputs("fig03, table34").unwrap();
        assert_eq!(picked[1].1, "table34_config.txt");
        let err = select_outputs("fig03,nosuch").unwrap_err();
        assert!(err.contains("ext_kepler"), "lists the valid names: {err}");
    }

    #[test]
    fn engine_list_is_baseline_plus_seven() {
        let e = engines_with_baseline();
        assert_eq!(e.len(), 8);
        assert_eq!(e[0], Engine::Baseline);
    }
}
