//! One-off probe: print the per-subsystem LinkReport for a workload.
use caps_metrics::{run_one, Engine, RunSpec};
use caps_workloads::{all_workloads, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let w = all_workloads()
        .into_iter()
        .find(|w| w.abbr().eq_ignore_ascii_case(&args[0]))
        .unwrap();
    let engine = if args[1] == "caps" { Engine::Caps } else { Engine::Baseline };
    let mut spec = RunSpec::paper(w, engine);
    spec.scale = Scale::Full;
    let r = run_one(&spec);
    println!("{:#?}", r.links);
}
