//! Command-line contract for the `crawl` and `figures` binaries: every
//! malformed invocation exits with code 2 and prints a one-line reason
//! plus the usage line to stderr — never a panic. Runs the real binaries
//! via `CARGO_BIN_EXE_*`; every case is rejected before any crawl starts.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn assert_usage_exit(bin: &str, args: &[&str]) -> String {
    let (code, stderr) = run(bin, args);
    assert_eq!(
        code,
        Some(2),
        "{bin} {args:?}: expected exit 2, got {code:?}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{bin} {args:?}: stderr must carry the usage line:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{bin} {args:?}: must not panic:\n{stderr}"
    );
    stderr
}

const CRAWL: &str = env!("CARGO_BIN_EXE_crawl");
const FIGURES: &str = env!("CARGO_BIN_EXE_figures");

#[test]
fn crawl_rejects_malformed_invocations_with_usage() {
    let stderr = assert_usage_exit(CRAWL, &["tiny", "--out"]);
    assert!(stderr.contains("--out requires a value"), "{stderr}");
    let stderr = assert_usage_exit(CRAWL, &["--shards"]);
    assert!(stderr.contains("--shards requires a value"), "{stderr}");
    let stderr = assert_usage_exit(CRAWL, &["--shards", "x"]);
    assert!(
        stderr.contains("--shards") && stderr.contains("\"x\""),
        "{stderr}"
    );
    assert_usage_exit(CRAWL, &["--shards", "0"]);
    assert_usage_exit(CRAWL, &["--shards", "-1"]);
    let stderr = assert_usage_exit(CRAWL, &["gigantic"]);
    assert!(stderr.contains("gigantic"), "{stderr}");
    assert_usage_exit(CRAWL, &["--bogus"]);
}

#[test]
fn figures_rejects_malformed_invocations_with_usage() {
    let stderr = assert_usage_exit(FIGURES, &["tiny", "--csv"]);
    assert!(stderr.contains("--csv requires a value"), "{stderr}");
    let stderr = assert_usage_exit(FIGURES, &["gigantic"]);
    assert!(stderr.contains("gigantic"), "{stderr}");
    assert_usage_exit(FIGURES, &["--bogus"]);
}
