//! Runs every workload in both modes on tiny inputs through the real
//! binary; `--smoke` checks each result line (correct, `ok_ratio` 1,
//! every declared metric present with its unit) and fails otherwise.

use std::process::Command;

#[test]
fn every_workload_reports_every_metric() {
    let out = Command::new(env!("CARGO_BIN_EXE_graphner-perfbench"))
        .arg("--smoke")
        .output()
        .expect("run the benchmark binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke failed:\n{stdout}");
    assert_eq!(stdout.lines().filter(|l| l.ends_with(": ok")).count(), 6, "{stdout}");
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope", "--seed", "1"][..],
        &["--seed", "1"],
        &["--workload", "transductive", "--seed", "x"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_graphner-perfbench"))
            .args(args)
            .output()
            .expect("run the benchmark binary");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
