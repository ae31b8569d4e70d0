//! The `{"cmd":"drift", ...}` command: the online-reallocation tracking
//! loop ([`DriftRun`]) run in-session, answered with a one-line regret
//! summary.
//!
//! Optional fields: `scenario` (label, default `diurnal`), `nodes`,
//! `epochs` (default [`DEFAULT_EPOCHS`]), `seed`, `hysteresis`,
//! `smoothing` and `migration_bandwidth`. A field of the wrong type is
//! refused, and [`DriftRun::new`] prices the run before building it, so
//! an oversized line costs an `error` line, not the daemon.

use std::fmt::Write as _;

use fap_obs::jsonl::{push_json_f64, push_json_str};
use fap_obs::Recorder;
use fap_runtime::{DriftConfig, DriftReport, DriftRun, DriftScenario};
use serde::Value;

/// Epochs a drift command runs when the line names none — fewer than
/// `fap track`'s default so an interactive session answers fast.
const DEFAULT_EPOCHS: usize = 24;

/// Runs the drift command `line` describes, recording `track.*` telemetry
/// into `recorder`, and returns its summary line.
///
/// # Errors
///
/// Returns the refusal message for a wrong-typed field, an unknown
/// scenario, an invalid or oversized configuration, or a failed epoch.
pub(crate) fn respond(line: &Value, recorder: &mut dyn Recorder) -> Result<String, String> {
    let mut config = DriftConfig { epochs: DEFAULT_EPOCHS, ..DriftConfig::default() };
    let label = match line.get("scenario") {
        Some(Value::Str(label)) => label.as_str(),
        None => "diurnal",
        Some(_) => return Err("scenario must be a string label".into()),
    };
    // Counts past `usize` saturate; `DriftConfig::validate` refuses them.
    let count = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
    if let Some(nodes) = uint_field(line, "nodes")? {
        config.nodes = count(nodes);
    }
    if let Some(epochs) = uint_field(line, "epochs")? {
        config.epochs = count(epochs);
    }
    if let Some(seed) = uint_field(line, "seed")? {
        config.seed = seed;
    }
    for (name, slot) in [
        ("hysteresis", &mut config.hysteresis),
        ("smoothing", &mut config.smoothing),
        ("migration_bandwidth", &mut config.migration_bandwidth),
    ] {
        if let Some(value) = float_field(line, name)? {
            *slot = value;
        }
    }
    config.scenario = DriftScenario::preset(label, config.epochs)
        .ok_or_else(|| format!("unknown scenario '{label}'"))?;
    let run = DriftRun::new(config).map_err(|e| e.to_string())?;
    let report = run.run(recorder).map_err(|e| e.to_string())?;
    Ok(summary_line(run.config().nodes, &report))
}

/// A non-negative integer field, if present.
fn uint_field(line: &Value, name: &str) -> Result<Option<u64>, String> {
    match line.get(name) {
        None => Ok(None),
        Some(Value::UInt(u)) => Ok(Some(*u)),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(_) => Err(format!("'{name}' must be a non-negative integer")),
    }
}

/// A numeric field, if present.
fn float_field(line: &Value, name: &str) -> Result<Option<f64>, String> {
    match line.get(name) {
        None => Ok(None),
        Some(Value::Float(f)) => Ok(Some(*f)),
        Some(Value::Int(i)) => Ok(Some(*i as f64)),
        Some(Value::UInt(u)) => Ok(Some(*u as f64)),
        Some(_) => Err(format!("'{name}' must be a number")),
    }
}

/// The deterministic one-line JSON summary of a drift run.
fn summary_line(nodes: usize, report: &DriftReport) -> String {
    let mut out = String::from("{\"kind\":\"drift\",\"scenario\":");
    push_json_str(&mut out, &report.scenario);
    let _ = write!(out, ",\"nodes\":{nodes},\"epochs\":{}", report.epochs.len());
    for (key, value) in [
        ("tracked_regret", report.tracked_regret),
        ("static_regret", report.static_regret),
        ("regret_ratio", report.regret_ratio()),
        ("total_movement", report.total_movement),
    ] {
        out.push(',');
        push_json_str(&mut out, key);
        out.push(':');
        push_json_f64(&mut out, value);
    }
    let _ = write!(
        out,
        ",\"total_copies\":{},\"total_rounds\":{}}}",
        report.total_copies, report.total_rounds
    );
    out
}
