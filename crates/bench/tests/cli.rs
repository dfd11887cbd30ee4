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
        .args(["generate-trace", "--out", "at-scale"])
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
        "`generate-trace` regenerates the checked-in sample"
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

/// Each form of `generate-trace` takes only its own options, and `at-scale`
/// takes one `--scale` at most and no size aliases: a flag the chosen form
/// would ignore or does not know exits 2 with the usage line before
/// anything runs or is written.
#[test]
fn options_the_chosen_form_would_ignore_exit_2_before_running() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_ignored_options");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the test's working directory can be created");
    let sample = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/azure_trace_sample.csv");
    let sample = sample.to_str().expect("the sample's path is UTF-8");
    let cases: [&[&str]; 10] = [
        &["generate-trace", "--sample"],
        &["generate-trace", "--day", "3"],
        &["generate-trace", "--from", sample, "--seed", "9"],
        &["generate-trace", "--from", sample, "--scale", "large"],
        &["generate-trace", "--from", sample, "--sample"],
        &["at-scale", "--quick", "--smoke"],
        &["at-scale", "--smoke", "--full"],
        &["at-scale", "--full", "--scale", "smoke"],
        &["at-scale", "--scale", "smoke", "--quick"],
        &["at-scale", "--scale", "smoke", "--scale", "quick"],
    ];
    for args in cases {
        let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(args)
            .args(["--out", "out"])
            .current_dir(&dir)
            .output()
            .expect("the reproduce binary starts");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("usage: reproduce {}", args[0])),
            "{args:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} ran before rejecting");
        assert!(!dir.join("out").exists(), "{args:?} wrote its output");
    }
}

/// Starts `reproduce at-scale` with `args` in `dir`, reads the sweep's
/// header and stops the run: the header prints before any cell runs.
fn sweep_header(dir: &Path, args: &[&str]) -> String {
    std::fs::create_dir_all(dir).expect("the test's working directory can be created");
    let mut child = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("at-scale")
        .args(args)
        .args(["--out", "out.json"])
        .current_dir(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("the reproduce binary starts");
    let header = BufReader::new(child.stdout.take().expect("stdout is piped"))
        .lines()
        .map(|line| line.expect("stdout is UTF-8"))
        .find(|line| line.contains("At-scale policy sweep"));
    let _ = child.kill();
    child.wait().expect("the child is reaped");
    header.expect("the sweep prints its header")
}

/// `--scale smoke` and `--scale quick` shard over 2 racks, as the quick and
/// modality pins assume.
#[test]
fn smoke_and_quick_scales_sweep_two_racks() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_scale_racks");
    for scale in ["smoke", "quick"] {
        let header = sweep_header(&dir, &["--scale", scale]);
        assert!(
            header.contains(&format!("({scale}, 2 racks,")),
            "--scale {scale}: {header}"
        );
    }
}

/// The header names the balancer axis the sweep runs, as the report's
/// `"balancer"` key does: the large preset restricts it to round-robin.
#[test]
fn the_large_preset_header_names_its_round_robin_axis() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_large_balancer");
    let header = sweep_header(&dir, &["--scale", "large-smoke", "--racks", "4"]);
    assert!(header.contains(", round-robin balancer,"), "{header}");
}

/// A trace file that is not one day file's layout exits 1 naming the file,
/// with no panic and no output written: a second header (two concatenated
/// day files), a memory-percentile header column, a byte that is not UTF-8,
/// and a signed count or minute label, whose sign a re-emit would drop. The
/// same sample behind a byte-order mark and a blank line re-emits the
/// sample's own bytes.
#[test]
fn generate_trace_from_names_the_file_it_cannot_ingest() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_bad_trace_files");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the test's working directory can be created");
    let sample = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data/azure_trace_sample.csv");
    let sample = std::fs::read(sample).expect("the checked-in sample trace is readable");
    let ingest = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).expect("the test file can be written");
        let out = format!("{name}.out");
        let output = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .args(["generate-trace", "--from", name, "--out", &out])
            .current_dir(&dir)
            .output()
            .expect("the reproduce binary starts");
        (output, std::fs::read(dir.join(out)).ok())
    };

    let memory_column = b"HashOwner,HashApp,HashFunction,Trigger,1,AverageAllocatedMb_pct99\n\
                          o1,a1,f1,http,1,128\n";
    let not_utf8 = b"o1,a1,f1,http,1\no2,a2,f2,http,\xff\n";
    for (name, bytes) in [
        ("twice.csv", [&sample[..], &sample[..]].concat()),
        ("memory.csv", memory_column.to_vec()),
        ("bytes.csv", not_utf8.to_vec()),
        ("count.csv", b"o1,a1,f1,http,+5,1\n".to_vec()),
        (
            "label.csv",
            b"HashOwner,HashApp,HashFunction,Trigger,+1\no1,a1,f1,http,1\n".to_vec(),
        ),
    ] {
        let (output, written) = ingest(name, &bytes);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(name), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
        assert!(written.is_none(), "{name}: wrote an output");
    }

    let (output, written) = ingest("bom.csv", &[&b"\xef\xbb\xbf\n"[..], &sample].concat());
    assert!(output.status.success(), "bom.csv: {output:?}");
    assert!(
        written.as_deref() == Some(&sample[..]),
        "a byte-order mark and a blank line change nothing"
    );
}
