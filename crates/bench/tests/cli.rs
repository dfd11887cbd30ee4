//! The `reproduce` binary's command line, run as a child process.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

/// Only the first argument names a subcommand: an `--out` path that happens
/// to spell one is still just a path.
#[test]
fn a_subcommand_name_after_the_first_argument_is_an_option_value() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_out_named_like_a_subcommand");
    // A fresh directory, so the file checked below can only come from this run.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the test's working directory can be created");

    let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["generate-trace", "--sample", "--out", "at-scale"])
        .current_dir(&dir)
        .output()
        .expect("the reproduce binary starts");
    assert!(
        output.status.success(),
        "generate-trace exited with {}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );

    let written = std::fs::read(dir.join("at-scale")).expect("the trace went to the --out path");
    let sample = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/azure_trace_sample.csv");
    let sample = std::fs::read(sample).expect("the checked-in sample trace is readable");
    assert!(
        written == sample,
        "`--sample` regenerates the checked-in sample"
    );
}

/// A reader that closes the pipe early ends the run quietly: no panic and
/// no panic status, whichever line the closed pipe interrupts. Each round
/// reads one line of Table 1 (a few milliseconds of output) and drops the
/// pipe while the rest may still be on its way, so the rounds together
/// close it at different points of the output.
#[test]
fn a_reader_that_closes_early_ends_the_run_quietly() {
    for round in 0..20 {
        let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .arg("table1")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("the reproduce binary starts");
        let mut first = String::new();
        BufReader::new(child.stdout.take().expect("stdout is piped"))
            .read_line(&mut first)
            .expect("the first line arrives");
        let output = child.wait_with_output().expect("the child is reaped");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_ne!(
            output.status.code(),
            Some(101),
            "round {round}: panic status; stderr: {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "round {round}: stderr: {stderr}"
        );
    }
}

/// `reproduce <experiment>` takes one experiment name and `--full`, and
/// rejects anything else with status 2 and a usage line before it runs.
#[test]
fn unknown_options_and_a_second_experiment_exit_2_before_running() {
    for args in [&["table1", "--bogus", "table2"][..], &["table1", "table2"]] {
        let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .output()
            .expect("the reproduce binary starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
        assert!(
            output.stdout.is_empty(),
            "{args:?} ran before rejecting its arguments"
        );
    }
}
