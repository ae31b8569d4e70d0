//! How the `fap` binary reports failures: a malformed command line gets
//! the usage text after its error line; a well-formed command that fails
//! on its input gets the error line alone.

use std::path::PathBuf;
use std::process::Command;

/// Runs `fap` with `args`; returns its exit success and its stderr.
fn fap(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_fap"))
        .args(args)
        .output()
        .expect("fap runs");
    (
        output.status.success(),
        String::from_utf8(output.stderr).expect("utf-8 stderr"),
    )
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
    for args in [
        &[][..],
        &["report"][..],
        &["solve", "a.json", "b.json"][..],
        &["trace", "--top", "0", "m.jsonl"][..],
        &["report", "m.jsonl", "--metrics-summary"][..],
    ] {
        let (ok, stderr) = fap(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(
            stderr.contains("\n\nusage:\n  fap solve"),
            "{args:?} must print the usage: {stderr}"
        );
    }
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
