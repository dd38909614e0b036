//! Regenerate every table and figure in one go, writing the rendered
//! text and the raw Figure-10 records to `results/`.
//!
//! ```text
//! run_all [--small] [--jobs N] [--only NAME[,NAME..]]
//! ```
//!
//! `--jobs N` sets the harness worker count (default: one worker per
//! available core). `--only` writes just the named outputs and prints
//! them too; an unknown name exits 2 and lists the valid ones.
//!
//! After a full regeneration, the binary runs a stepping-mode
//! determinism smoke: every workload once naive and once wake-driven —
//! prints the per-workload timing table, and **exits non-zero if any
//! stats field or link-report counter differs between the modes**, so CI
//! catches determinism drift cheaply.

use std::fs;
use std::path::Path;
use std::time::Instant;

use caps_bench::cli::Args;
use caps_bench::{select_outputs, OUTPUTS};
use caps_metrics::{run_one_with_fast_forward, Engine, RunSpec, Table};

fn main() {
    let names: Vec<&str> = OUTPUTS.iter().map(|o| o.0).collect();
    let usage = format!(
        "usage: run_all [--small] [--jobs N] [--only NAME[,NAME..]]\n\
         NAME: {}",
        names.join(" ")
    );
    let args = Args::parse(&usage, &["--small"], &["--jobs", "--only"]);
    args.positional(0);
    let only = args
        .value("--only")
        .map(|list| select_outputs(list).unwrap_or_else(|e| args.fail(e)));
    let scale = args.scale();
    caps_metrics::set_default_threads(args.jobs());

    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results/");
    for &(_, file, render) in only.clone().unwrap_or_else(|| OUTPUTS.iter().collect()) {
        let contents = render(scale);
        if only.is_some() {
            print!("{contents}");
        }
        let path = dir.join(file);
        fs::write(&path, contents).unwrap_or_else(|e| panic!("write {path:?}: {e}"));
        println!("wrote {}", path.display());
    }
    if only.is_some() {
        return;
    }

    // Stepping-mode determinism smoke: every workload once naive and
    // once wake-driven. The modes must agree on every stats field and on
    // the port-layer report; timing columns double as a coarse
    // per-workload throughput report. The `q hw`/`cr stall`/`grows`
    // columns summarise the port-layer report: the deepest ring
    // high-water mark, total credit-stall events, and growth-valve
    // activations past a ring's reserved bound (0 = the architectural
    // sizing held everywhere).
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
