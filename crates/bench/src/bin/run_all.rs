//! Regenerate every table and figure in one go, writing the rendered
//! text to `results/` and the raw Figure-10 records to JSON.
//!
//! ```text
//! cargo run --release -p caps-bench --bin run_all [-- --small] [--threads N]
//! ```
//!
//! `--threads N` caps the harness worker count (default: one worker per
//! available core).
//!
//! After the figures, the binary runs a stepping-mode determinism smoke:
//! every workload once naive and once wake-driven — prints the
//! per-workload timing table, and **exits non-zero if any stats field or
//! link-report counter differs between the modes**, so CI catches
//! determinism drift cheaply.

use std::fs;
use std::path::Path;
use std::time::Instant;

use caps_metrics::{run_one_with_fast_forward, save, Engine, RunSpec, Table};
use caps_workloads::Scale;

fn write(dir: &Path, name: &str, contents: String) {
    let path = dir.join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
    println!("wrote {}", path.display());
}

fn main() {
    let scale = caps_bench::scale_from_args();
    caps_bench::apply_threads_from_args();
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results/");

    write(dir, "fig01_distance.txt", {
        let pts = caps_bench::fig01::compute(scale);
        format!(
            "{}\nCTA-boundary cliff: {}\n",
            caps_bench::fig01::render(&pts),
            caps_bench::fig01::shows_cta_boundary_cliff(&pts)
        )
    });
    write(
        dir,
        "fig04_iterations.txt",
        caps_bench::fig04::render(&caps_bench::fig04::compute()),
    );
    write(dir, "fig05_cta_strides.txt", {
        let d = caps_bench::fig05::compute();
        caps_bench::fig05::render(&d)
    });
    let fig10 = caps_bench::fig10::compute(scale);
    write(dir, "fig10_ipc.txt", caps_bench::fig10::render(&fig10));
    write(
        dir,
        "fig11_cta_sweep.txt",
        caps_bench::fig11::render(&caps_bench::fig11::compute(scale)),
    );
    write(
        dir,
        "fig12_coverage_accuracy.txt",
        caps_bench::fig12::render(&caps_bench::fig12::compute(scale)),
    );
    write(
        dir,
        "fig13_bandwidth.txt",
        caps_bench::fig13::render(&caps_bench::fig13::compute(scale)),
    );
    write(
        dir,
        "fig14_timeliness.txt",
        caps_bench::fig14::render(&caps_bench::fig14::compute(scale)),
    );
    write(
        dir,
        "fig15_energy.txt",
        caps_bench::fig15::render(&caps_bench::fig15::compute(scale)),
    );
    write(
        dir,
        "table12_hardware.txt",
        caps_bench::tables::render_tables_1_2(),
    );
    write(dir, "table34_config.txt", {
        format!(
            "{}{}",
            caps_bench::tables::render_table_3(),
            caps_bench::tables::render_table_4()
        )
    });

    // Raw Figure-10 matrix as JSON for external post-processing.
    let mut specs = Vec::new();
    for w in caps_bench::workloads() {
        for e in caps_bench::engines_with_baseline() {
            let mut s = RunSpec::paper(w, e);
            s.scale = scale;
            specs.push(s);
        }
    }
    let recs = caps_metrics::run_matrix(&specs);
    save(&recs, &dir.join("fig10_records.json")).expect("save JSON");
    println!("wrote {}", dir.join("fig10_records.json").display());

    // A one-line verdict for CI-style smoke checks.
    let caps_col = fig10
        .engines
        .iter()
        .position(|&e| e == "CAPS")
        .expect("CAPS");
    println!(
        "\nCAPS mean speedup (all 16 benchmarks): {:.3} — {}",
        fig10.mean_all[caps_col],
        if scale == Scale::Small {
            "small scale"
        } else {
            "paper scale"
        }
    );

    // Stepping-mode determinism smoke: every workload once naive and
    // once wake-driven. The modes must agree on every stats field and on
    // the port-layer report; timing columns double as a coarse
    // per-workload throughput report. The `q hw`/`cr stall`/`grows`
    // columns summarise the port-layer report: the deepest ring
    // high-water mark, total credit-stall events, and growth-valve
    // activations (0 = the preallocated sizing held and the memory path
    // ran allocation-free).
    println!("\nStepping-mode determinism (CAPS; naive vs wake-driven):");
    let mut table = Table::new(&[
        "bench", "cycles", "naive s", "wake s", "wake x", "q hw", "cr stall", "grows",
    ]);
    let mut drift = Vec::new();
    for w in caps_bench::workloads() {
        let mut spec = RunSpec::paper(w, Engine::Caps);
        spec.scale = scale;
        let time = |fast_forward: bool| {
            let t0 = Instant::now();
            let rec = run_one_with_fast_forward(&spec, fast_forward);
            (rec, t0.elapsed().as_secs_f64())
        };
        let (naive, naive_s) = time(false);
        let (wake, wake_s) = time(true);
        if wake.stats != naive.stats || wake.links != naive.links {
            drift.push(format!("{}: wake-driven stepping diverged from naive", naive.workload));
        }
        let ports = wake.links.total();
        table.row(vec![
            naive.workload.clone(),
            format!("{}", naive.stats.cycles),
            format!("{naive_s:.3}"),
            format!("{wake_s:.3}"),
            format!("{:.2}", naive_s / wake_s),
            format!("{}", ports.high_water),
            format!("{}", ports.credit_stalls),
            format!("{}", ports.grows),
        ]);
    }
    println!("{}", table.render());
    if !drift.is_empty() {
        for d in &drift {
            eprintln!("DETERMINISM DRIFT — {d}");
        }
        std::process::exit(1);
    }
    println!("determinism: naive and wake-driven stepping bit-identical on every workload");
}
