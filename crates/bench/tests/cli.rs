//! Command-line misuse of the binaries: each case must exit 2 and name
//! the problem before it simulates or writes anything.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run `bin` with `args` in a fresh directory; assert it exits 2 and
/// leaves the directory empty, and return its stderr.
fn refused(bin: &str, args: &[&str]) -> String {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let case = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("caps-cli-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let written = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(written, 0, "{args:?} wrote into its directory");
    std::fs::remove_dir_all(&dir).unwrap();
    stderr
}

#[test]
fn out_without_a_value_writes_nothing() {
    let run = env!("CARGO_BIN_EXE_run");
    let bench = [
        "--bench-throughput",
        "--small",
        "--workloads",
        "SCN",
        "--out",
    ];
    assert!(refused(run, &bench).contains("--out requires a value"));
    // A following flag is not a value either.
    let tenants = ["--tenants", "SCN+MRQ", "--out", "--small"];
    assert!(refused(run, &tenants).contains("--out requires a value"));
}

#[test]
fn ctas_that_validation_refuses_exit_with_usage() {
    let run = env!("CARGO_BIN_EXE_run");
    for ctas in ["0", "100"] {
        let err = refused(run, &["JC1", "base", "--small", "--ctas", ctas]);
        assert!(err.contains(&format!("--ctas {ctas}:")), "{err}");
        assert!(err.contains("usage: run"), "{err}");
    }
}

#[test]
fn removed_and_unknown_flags_are_refused() {
    let run = env!("CARGO_BIN_EXE_run");
    let err = refused(run, &["JC1", "base", "--threads", "2"]);
    assert!(err.contains("unknown flag --threads"), "{err}");
    let err = refused(env!("CARGO_BIN_EXE_run_all"), &["--only", "fig03,nosuch"]);
    assert!(err.contains("\"nosuch\""), "{err}");
    assert!(
        err.contains("ext_sensitivity"),
        "lists the valid names: {err}"
    );
}
