//! `fap track`: the workload-drift control loop at the command line.
//!
//! `fap track` generates a seeded λ-trajectory from a scenario preset and
//! drives the `fap-runtime` tracking loop along it on a ring, printing a
//! per-epoch table and the regret summary (tracked vs clairvoyant vs
//! static). The daemon runs the same loop for a `{"cmd":"drift", ...}`
//! line (see `fap-served`).

use std::fmt::Write as _;

use fap_obs::Recorder;
use fap_runtime::{DriftConfig, DriftReport, DriftRun, DriftScenario};

/// Parsed `fap track` invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrackOptions {
    /// The full control-loop configuration, ring size included.
    pub config: DriftConfig,
    /// Print the raw [`DriftReport`] as JSON instead of the table.
    pub json: bool,
}

/// Reads a non-negative finite float flag value.
fn numeric_flag(
    iter: &mut std::slice::Iter<'_, String>,
    name: &str,
) -> Result<f64, String> {
    let v = iter.next().ok_or_else(|| format!("{name} requires a value"))?;
    let v: f64 = v.parse().map_err(|e| format!("bad {name} '{v}': {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{name} must be non-negative and finite"));
    }
    Ok(v)
}

/// Parses the arguments after `fap track`.
///
/// # Errors
///
/// Returns a message naming the first bad flag or value.
pub fn parse_track_args(rest: &[String]) -> Result<TrackOptions, String> {
    let mut options = TrackOptions::default();
    let mut label = "diurnal".to_string();
    let mut iter = rest.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--drift-scenario" => {
                let l = iter
                    .next()
                    .ok_or("--drift-scenario requires diurnal|flash-crowd|step|node-churn")?;
                label = l.clone();
            }
            "--nodes" => {
                let n = iter.next().ok_or("--nodes requires a count")?;
                let n: usize = n.parse().map_err(|e| format!("bad node count '{n}': {e}"))?;
                if n < 2 {
                    return Err("--nodes must be at least 2".into());
                }
                options.config.nodes = n;
            }
            "--epochs" => {
                let n = iter.next().ok_or("--epochs requires a count")?;
                let n: usize = n.parse().map_err(|e| format!("bad epoch count '{n}': {e}"))?;
                if n == 0 {
                    return Err("--epochs must be at least 1".into());
                }
                options.config.epochs = n;
            }
            "--seed" => {
                let s = iter.next().ok_or("--seed requires a value")?;
                options.config.seed =
                    s.parse().map_err(|e| format!("bad seed '{s}': {e}"))?;
            }
            "--hysteresis" => {
                options.config.hysteresis = numeric_flag(&mut iter, "--hysteresis")?;
            }
            "--smoothing" => {
                options.config.smoothing = numeric_flag(&mut iter, "--smoothing")?;
            }
            "--migration-bandwidth" => {
                options.config.migration_bandwidth =
                    numeric_flag(&mut iter, "--migration-bandwidth")?;
            }
            "--json" => options.json = true,
            other => return Err(format!("unexpected argument '{other}'")),
        }
    }
    options.config.scenario = DriftScenario::preset(&label, options.config.epochs)
        .ok_or_else(|| {
            format!("unknown drift scenario '{label}' (expected diurnal|flash-crowd|step|node-churn)")
        })?;
    Ok(options)
}

/// Runs the tracking loop the options describe, recording `track.*`
/// telemetry into `recorder`.
///
/// # Errors
///
/// Returns a message for an invalid configuration or a failed epoch.
pub fn run_track(
    options: &TrackOptions,
    recorder: &mut dyn Recorder,
) -> Result<DriftReport, String> {
    let run = DriftRun::new(options.config.clone()).map_err(|e| e.to_string())?;
    run.run(recorder).map_err(|e| e.to_string())
}

/// Renders the per-epoch table and regret summary `fap track` prints.
pub fn render_track(options: &TrackOptions, report: &DriftReport) -> String {
    let mut out = String::new();
    let c = &options.config;
    let _ = writeln!(
        out,
        "scenario {} on a {}-node ring: {} epochs, seed {}, eta {}, bandwidth {}",
        report.scenario, c.nodes, c.epochs, c.seed, c.hysteresis, c.migration_bandwidth
    );
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>12} {:>12} {:>12} {:>9} {:>7} {:>6}",
        "epoch", "rate", "tracked", "clairvoyant", "static", "movement", "iters", "rounds"
    );
    for e in &report.epochs {
        let _ = writeln!(
            out,
            "{:>5} {:>10.4} {:>12.6} {:>12.6} {:>12.6} {:>9.4} {:>7} {:>6}",
            e.epoch,
            e.total_rate,
            e.tracked_utility,
            e.clairvoyant_utility,
            e.static_utility,
            e.movement,
            e.iterations,
            e.migration_rounds
        );
    }
    let _ = writeln!(
        out,
        "regret:    tracked {:.6}, static {:.6} (ratio {:.4})",
        report.tracked_regret,
        report.static_regret,
        report.regret_ratio()
    );
    let _ = writeln!(
        out,
        "migration: {:.4} mass moved in {} copies over {} rounds",
        report.total_movement, report.total_copies, report.total_rounds
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fap_obs::NoopRecorder;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parsing_covers_every_flag() {
        let options = parse_track_args(&args(&[
            "--drift-scenario",
            "step",
            "--nodes",
            "6",
            "--epochs",
            "18",
            "--seed",
            "11",
            "--hysteresis",
            "0.01",
            "--smoothing",
            "0.005",
            "--migration-bandwidth",
            "0.5",
            "--json",
        ]))
        .unwrap();
        assert_eq!(options.config.nodes, 6);
        assert_eq!(options.config.epochs, 18);
        assert_eq!(options.config.seed, 11);
        assert_eq!(options.config.hysteresis, 0.01);
        assert_eq!(options.config.smoothing, 0.005);
        assert_eq!(options.config.migration_bandwidth, 0.5);
        assert!(options.json);
        assert_eq!(options.config.scenario.label(), "step");
    }

    #[test]
    fn bad_flags_are_rejected_with_messages() {
        assert!(parse_track_args(&args(&["--drift-scenario", "teleport"]))
            .unwrap_err()
            .contains("unknown drift scenario"));
        assert!(parse_track_args(&args(&["--nodes", "1"])).unwrap_err().contains("at least 2"));
        assert!(parse_track_args(&args(&["--epochs", "0"])).unwrap_err().contains("at least 1"));
        assert!(parse_track_args(&args(&["--hysteresis", "-1"]))
            .unwrap_err()
            .contains("non-negative"));
        assert!(parse_track_args(&args(&["--frobnicate"])).unwrap_err().contains("unexpected"));
        assert!(parse_track_args(&args(&["--threads", "2"])).unwrap_err().contains("unexpected"));
    }

    #[test]
    fn the_default_run_tracks_and_renders() {
        let options = parse_track_args(&args(&["--epochs", "10", "--nodes", "5"])).unwrap();
        let report = run_track(&options, &mut NoopRecorder).unwrap();
        assert_eq!(report.epochs.len(), 10);
        let rendered = render_track(&options, &report);
        assert!(rendered.contains("scenario diurnal on a 5-node ring"));
        assert!(rendered.contains("regret:"), "{rendered}");
        assert!(rendered.contains("migration:"), "{rendered}");
        assert_eq!(rendered.lines().count(), 2 + 10 + 2, "header, table, summary");
    }
}
