//! The CLI exit-code contract, pinned end-to-end on the real binary:
//!
//! - `2` — malformed invocation (unknown command, bad flag value,
//!   unresolvable `--app` spec): the user's fault, nothing ran.
//! - `1` — the run itself failed (failed cells, diverged oracle,
//!   missing perfgate baseline): correct invocation, bad outcome.
//! - `0` — everything ran and passed.
//!
//! Scripts and CI gate on these; a regression here silently turns a
//! red pipeline green (or the reverse). Failure injection uses
//! `LIMITLESS_MAX_EVENTS` on the *child* process — the one place the
//! env var can be set without racing other threads.

use std::io::Write;
use std::process::{Command, Stdio};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_limitless-bench"))
}

fn run_with_stdin(cmd: &mut Command, input: &str) -> std::process::Output {
    cmd.stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn limitless-bench");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    child.wait_with_output().unwrap()
}

#[track_caller]
fn assert_code(out: &std::process::Output, want: i32) {
    assert_eq!(
        out.status.code(),
        Some(want),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn malformed_invocations_exit_2() {
    // No command at all.
    let out = bin().output().unwrap();
    assert_code(&out, 2);

    // Unknown experiment name.
    let out = bin().arg("no-such-experiment").output().unwrap();
    assert_code(&out, 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));

    // A flag with a missing/garbage value.
    let out = bin().args(["sweep", "--min-of", "zero"]).output().unwrap();
    assert_code(&out, 2);

    // A machine size the configuration builder rejects, caught at
    // parse time instead of panicking inside the first cell.
    for cmd in [
        &["fig4", "--quick", "--nodes", "0"][..],
        &["check", "--quick", "--nodes", "0"],
        &["sweep", "--quick", "--nodes", "0"],
        &["fuzz", "--specs", "1", "--quick", "--nodes", "0"],
    ] {
        let out = bin().args(cmd).output().unwrap();
        assert_code(&out, 2);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("at least one node"),
            "the error must name the bad machine size"
        );
    }

    // An --app spec the registry rejects, for both sweep and check.
    for cmd in ["sweep", "check"] {
        let out = bin().args([cmd, "--app", "nosuchapp"]).output().unwrap();
        assert_code(&out, 2);
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("nosuchapp"),
            "the error must name the bad spec"
        );
    }
}

#[test]
fn sweep_reports_each_failed_cell_and_exits_1() {
    // A 10-event budget kills every cell; each must be named with its
    // (protocol, app, seed) identity rather than aborting on the first.
    let out = bin()
        .args([
            "sweep",
            "--nodes",
            "16",
            "--threads",
            "2",
            "--app",
            "worker:ws=1",
        ])
        .env("LIMITLESS_MAX_EVENTS", "10")
        .output()
        .unwrap();
    assert_code(&out, 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("sweep: 7 cell(s) failed"),
        "all spectrum cells fail under the event budget; stderr:\n{stderr}"
    );
    assert!(
        stderr.contains("seed") && stderr.contains("event limit exceeded"),
        "failures carry identity and cause; stderr:\n{stderr}"
    );
}

#[test]
fn sweep_exits_0_on_success() {
    let out = bin()
        .args([
            "sweep",
            "--nodes",
            "16",
            "--threads",
            "2",
            "--app",
            "worker:ws=1",
        ])
        .output()
        .unwrap();
    assert_code(&out, 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("== sweep =="));
}

#[test]
fn perfgate_on_a_missing_ledger_exits_1_with_a_clear_message() {
    let path = std::env::temp_dir().join("limitless_no_such_ledger.json");
    let _ = std::fs::remove_file(&path);
    let out = bin()
        .args(["perfgate", "--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_code(&out, 1);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("does not exist"),
        "a typo'd path must be called out, not treated as an empty ledger; stderr:\n{stderr}"
    );

    // --warn-only must not soften a missing baseline either.
    let out = bin()
        .args(["perfgate", "--warn-only", "--json", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert_code(&out, 1);
}

#[test]
fn serve_streams_results_and_exits_0() {
    let input = r#"{"id": "ok", "apps": ["worker:ws=1"], "protocols": ["DirnH4SNB"]}"#;
    let out = run_with_stdin(
        bin().args(["serve", "--threads", "2"]),
        &format!("{input}\n"),
    );
    assert_code(&out, 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"type\":\"cell\""), "{stdout}");
    assert!(stdout.contains("\"type\":\"job\""), "{stdout}");
    assert!(stdout.contains("\"type\":\"served\""), "{stdout}");
}

#[test]
fn serve_with_failed_cells_exits_1_but_streams_every_error() {
    let input = concat!(
        r#"{"id": "doomed", "apps": ["worker:ws=1"], "protocols": ["DirnH4SNB", "DirnHNBS-"]}"#,
        "\n"
    );
    let out = run_with_stdin(
        bin()
            .args(["serve", "--threads", "2"])
            .env("LIMITLESS_MAX_EVENTS", "10"),
        input,
    );
    assert_code(&out, 1);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Both cells fail as typed error lines with identity, the job
    // summary counts them, and the process still summarizes cleanly.
    assert_eq!(stdout.matches("\"error\":").count(), 2, "{stdout}");
    assert!(stdout.contains("\"failed\":2"), "{stdout}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("2 of 2 cells failed"),
        "stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn serve_rejects_malformed_jobs_without_dying() {
    let input = "this is not json\n\
        {\"id\": \"ok\", \"apps\": [\"worker:ws=1\"], \"protocols\": [\"DirnHNBS-\"]}\n";
    let out = run_with_stdin(bin().args(["serve", "--threads", "1"]), input);
    assert_code(&out, 0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"type\":\"reject\""), "{stdout}");
    assert!(stdout.contains("\"type\":\"cell\""), "{stdout}");
    assert!(stdout.contains("\"malformed\":1"), "{stdout}");
}

#[test]
fn serve_bad_queue_flag_exits_2() {
    let out = bin().args(["serve", "--queue", "0"]).output().unwrap();
    assert_code(&out, 2);
    assert!(String::from_utf8_lossy(&out.stderr).contains("--queue"));
}

#[test]
fn check_exits_0_on_a_clean_oracle_run() {
    let out = bin()
        .args(["check", "--app", "worker:ws=1", "--nodes", "16"])
        .output()
        .unwrap();
    assert_code(&out, 0);
    assert!(String::from_utf8_lossy(&out.stdout).contains("match ground truth"));
}
