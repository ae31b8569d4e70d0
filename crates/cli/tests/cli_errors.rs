//! How the `fap` binary reports failures: a malformed command line gets
//! the usage text after its error line; a well-formed command that fails
//! on its input gets the error line alone.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Runs `fap` with `args`; returns its exit success and its stderr.
fn fap(args: &[&str]) -> (bool, String) {
    fap_in(Path::new("."), args)
}

/// Runs `fap` with `args` in `dir`, so that a file a command writes lands
/// where the test can look; returns its exit success and its stderr.
fn fap_in(dir: &Path, args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_fap"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("fap runs");
    (
        output.status.success(),
        String::from_utf8(output.stderr).expect("utf-8 stderr"),
    )
}

/// An empty directory of its own under the system temp dir.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fap-cli-errors-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// A metrics file whose second line nests an array, which the flat JSONL
/// reader refuses.
fn malformed_metrics(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "fap-cli-errors-{}-{name}.jsonl",
        std::process::id()
    ));
    std::fs::write(
        &path,
        "{\"t\":0,\"event\":\"iter\",\"iteration\":0}\n{\"t\":1,\"event\":\"x\",\"a\":[1]}\n",
    )
    .expect("temp dir is writable");
    path
}

#[test]
fn argument_errors_print_the_usage_text() {
    let dir = scratch_dir("usage");
    for args in [
        &[][..],
        &["report"][..],
        &["solve", "a.json", "b.json"][..],
        &["trace", "--top", "0", "m.jsonl"][..],
        &["report", "m.jsonl", "--metrics-summary"][..],
        &["bench-serve", "--help"][..],
        &["bench-drift", "--help"][..],
        &["bench-serve", "--check", "--help"][..],
        &["bench-drift", "out.json", "--help"][..],
    ] {
        let (ok, stderr) = fap_in(&dir, args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(
            stderr.contains("\n\nusage:\n  fap solve"),
            "{args:?} must print the usage: {stderr}"
        );
    }
    // A refused flag never runs the sweep, so nothing was written.
    assert!(!dir.join("--help").exists(), "a --help file appeared");
    assert!(!dir.join("out.json").exists(), "an out.json file appeared");
    std::fs::remove_dir_all(&dir).expect("remove the temp dir");
}

#[test]
fn data_errors_print_only_the_error_line() {
    for command in ["report", "trace"] {
        let path = malformed_metrics(command);
        let path_text = path.to_str().expect("utf-8 temp path");
        let (ok, stderr) = fap(&[command, path_text]);
        std::fs::remove_file(&path).expect("remove the temp file");
        assert!(!ok, "{command} must fail on a malformed file");
        assert_eq!(
            stderr,
            format!(
                "error: {path_text}: line 2, byte 23: nested arrays and objects are not allowed\n"
            ),
            "{command} must print the data error alone"
        );
    }
    let (ok, stderr) = fap(&["report", "--json", "/nonexistent/metrics.jsonl"]);
    assert!(!ok);
    assert!(
        stderr.starts_with("error: reading /nonexistent/metrics.jsonl: "),
        "{stderr}"
    );
    assert_eq!(
        stderr.lines().count(),
        1,
        "a missing file is a data error: {stderr}"
    );
}
