//! The `reproduce` binary's command line, run as a child process.

use std::path::Path;
use std::process::Command;

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
