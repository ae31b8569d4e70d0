//! `fap report`: summarizing an exported metrics JSONL file.
//!
//! The input is the stream written by `fap run --metrics-out` or
//! `fap sim --metrics-out` (events first, then the registry snapshot — see
//! `fap_obs::jsonl`). The summary answers the three questions the ISSUE
//! poses of a run: how many iterations/rounds until convergence, how many
//! faults of each type were injected, and what the round-trip report
//! latency distribution looked like (exact p50/p99 over the per-delivery
//! latencies, falling back to the histogram snapshot when the event stream
//! was truncated).

use std::fmt::Write as _;

use fap_obs::jsonl::{parse_line, Scalar};

/// The digested content of one metrics JSONL file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReportSummary {
    /// Iterations (solver) or rounds (simulator) until the run ended, from
    /// the final `run_end` event.
    pub iterations: Option<u64>,
    /// Whether the run converged, from the final `run_end` event.
    pub converged: Option<bool>,
    /// Every `sim.*` counter in file order — the per-fault-type counts plus
    /// the traffic totals.
    pub fault_counts: Vec<(String, u64)>,
    /// Every counter in file order, whatever its namespace (`econ.*`,
    /// `serve.*`, `cache.*`, `sim.*`, …) — the basis of `fap report --diff`.
    pub counters: Vec<(String, u64)>,
    /// Every gauge in file order — the tracking section's regret and
    /// utility readings live here.
    pub gauges: Vec<(String, f64)>,
    /// Exact median report latency in rounds, over `delivery` events.
    pub latency_p50: Option<f64>,
    /// Exact 99th-percentile report latency in rounds.
    pub latency_p99: Option<f64>,
    /// Number of completed deliveries the latency quantiles are over.
    pub deliveries: usize,
    /// Total event lines in the file.
    pub events: usize,
    /// Total lines in the file.
    pub lines: usize,
}

fn field<'a>(fields: &'a [(String, Scalar)], name: &str) -> Option<&'a Scalar> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

/// Nearest-rank quantile over an ascending-sorted slice; `None` when the
/// slice is empty (the previous `sorted.len() - 1` underflowed on `[]`).
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let index = (last as f64 * q).round() as usize;
    Some(sorted[index])
}

/// Parses and digests a metrics JSONL stream.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn summarize(text: &str) -> Result<ReportSummary, String> {
    let mut summary = ReportSummary::default();
    let mut latencies: Vec<f64> = Vec::new();
    let mut histogram_fallback: Option<(f64, f64)> = None;
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        summary.lines += 1;
        let fields = parse_line(line).map_err(|e| format!("line {}, {e}", number + 1))?;
        if let Some(Scalar::Str(event)) = field(&fields, "event") {
            summary.events += 1;
            match event.as_str() {
                "run_end" => {
                    // The simulator reports rounds, the solvers iterations.
                    summary.iterations = field(&fields, "rounds")
                        .or_else(|| field(&fields, "iterations"))
                        .and_then(Scalar::as_i64)
                        .map(|v| v as u64);
                    summary.converged = match field(&fields, "converged") {
                        Some(Scalar::Bool(b)) => Some(*b),
                        _ => None,
                    };
                }
                "delivery" => {
                    if let Some(latency) = field(&fields, "latency").and_then(Scalar::as_f64) {
                        latencies.push(latency);
                    }
                }
                _ => {}
            }
        } else if let Some(Scalar::Str(name)) = field(&fields, "counter") {
            let value =
                field(&fields, "value").and_then(Scalar::as_i64).unwrap_or(0) as u64;
            if name.starts_with("sim.") {
                summary.fault_counts.push((name.clone(), value));
            }
            summary.counters.push((name.clone(), value));
        } else if let Some(Scalar::Str(name)) = field(&fields, "gauge") {
            if let Some(value) = field(&fields, "value").and_then(Scalar::as_f64) {
                summary.gauges.push((name.clone(), value));
            }
        } else if let Some(Scalar::Str(name)) = field(&fields, "hist") {
            if name == "sim.report_latency_rounds" {
                let p50 = field(&fields, "p50").and_then(Scalar::as_f64);
                let p99 = field(&fields, "p99").and_then(Scalar::as_f64);
                if let (Some(p50), Some(p99)) = (p50, p99) {
                    histogram_fallback = Some((p50, p99));
                }
            }
        }
    }
    if latencies.is_empty() {
        if let Some((p50, p99)) = histogram_fallback {
            summary.latency_p50 = Some(p50);
            summary.latency_p99 = Some(p99);
        }
    } else {
        latencies.sort_by(f64::total_cmp);
        summary.deliveries = latencies.len();
        summary.latency_p50 = quantile(&latencies, 0.50);
        summary.latency_p99 = quantile(&latencies, 0.99);
    }
    Ok(summary)
}

/// Renders a summary the way `fap report` prints it.
pub fn render(summary: &ReportSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} lines, {} events", summary.lines, summary.events);
    match (summary.iterations, summary.converged) {
        (Some(n), Some(true)) => {
            let _ = writeln!(out, "run:      converged after {n} iterations");
        }
        (Some(n), Some(false)) => {
            let _ = writeln!(out, "run:      stopped without converging after {n} iterations");
        }
        (Some(n), None) => {
            let _ = writeln!(out, "run:      ended after {n} iterations");
        }
        _ => {
            let _ = writeln!(out, "run:      no run_end event found");
        }
    }
    if summary.fault_counts.is_empty() {
        let _ = writeln!(out, "faults:   no sim.* counters found");
    } else {
        let _ = writeln!(out, "faults:");
        let width =
            summary.fault_counts.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
        for (name, value) in &summary.fault_counts {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
    }
    // The cost-substrate counters: landmark-oracle row traffic
    // (`net.landmark_*`), hierarchical refinement (`hier.*`) and substrate
    // cache activity (`cache.*`).
    let substrate: Vec<&(String, u64)> = summary
        .counters
        .iter()
        .filter(|(name, _)| {
            name.starts_with("net.landmark_")
                || name.starts_with("hier.")
                || name.starts_with("cache.")
        })
        .collect();
    if !substrate.is_empty() {
        let _ = writeln!(out, "substrate:");
        let width = substrate.iter().map(|(name, _)| name.len()).max().unwrap_or(0);
        for (name, value) in substrate {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
    }
    // The drift-tracking plane: `track.*` counters (epochs, copies,
    // rounds) and gauges (the final regret and utility readings).
    let track_counters: Vec<(&str, String)> = summary
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("track."))
        .map(|(name, value)| (name.as_str(), value.to_string()))
        .collect();
    let track_gauges: Vec<(&str, String)> = summary
        .gauges
        .iter()
        .filter(|(name, _)| name.starts_with("track."))
        .map(|(name, value)| (name.as_str(), format!("{value}")))
        .collect();
    if !track_counters.is_empty() || !track_gauges.is_empty() {
        let _ = writeln!(out, "tracking:");
        let width = track_counters
            .iter()
            .chain(&track_gauges)
            .map(|(name, _)| name.len())
            .max()
            .unwrap_or(0);
        for (name, value) in track_counters.iter().chain(&track_gauges) {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
    }
    match (summary.latency_p50, summary.latency_p99) {
        (Some(p50), Some(p99)) if summary.deliveries > 0 => {
            let _ = writeln!(
                out,
                "latency:  p50 {p50} rounds, p99 {p99} rounds ({} deliveries)",
                summary.deliveries
            );
        }
        (Some(p50), Some(p99)) => {
            let _ = writeln!(
                out,
                "latency:  p50 {p50} rounds, p99 {p99} rounds (histogram buckets)"
            );
        }
        _ => {
            let _ = writeln!(out, "latency:  no delivery data found");
        }
    }
    out
}

/// Renders two summaries side by side (`fap report --diff a b`): every
/// counter appearing in either file, first file's order first, with the
/// signed delta, then the latency quantiles. Useful for before/after
/// comparisons — a cold serve export against a warm one, a faulty sim
/// against a clean one.
pub fn render_diff(label_a: &str, a: &ReportSummary, label_b: &str, b: &ReportSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "A: {label_a}  ({} lines, {} events)", a.lines, a.events);
    let _ = writeln!(out, "B: {label_b}  ({} lines, {} events)", b.lines, b.events);

    let run_of = |s: &ReportSummary| match (s.iterations, s.converged) {
        (Some(n), Some(true)) => format!("converged after {n}"),
        (Some(n), Some(false)) => format!("stopped after {n}"),
        (Some(n), None) => format!("ended after {n}"),
        _ => "no run_end".into(),
    };
    let _ = writeln!(out, "run:      A {}, B {}", run_of(a), run_of(b));

    // The union of counter names, in A's file order with B-only names
    // appended in B's order, each compared by value.
    let mut names: Vec<&str> = a.counters.iter().map(|(n, _)| n.as_str()).collect();
    for (name, _) in &b.counters {
        if !names.contains(&name.as_str()) {
            names.push(name);
        }
    }
    if names.is_empty() {
        let _ = writeln!(out, "counters: none in either file");
    } else {
        let value_of = |s: &ReportSummary, name: &str| {
            s.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
        };
        let width = names.iter().map(|n| n.len()).max().unwrap_or(0);
        let _ = writeln!(out, "counters:");
        let _ = writeln!(out, "  {:<width$}  {:>12}  {:>12}  {:>13}", "name", "A", "B", "delta");
        for name in names {
            let va = value_of(a, name);
            let vb = value_of(b, name);
            let show = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
            let delta = match (va, vb) {
                (Some(va), Some(vb)) => format!("{:+}", vb as i128 - va as i128),
                _ => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {name:<width$}  {:>12}  {:>12}  {:>13}",
                show(va),
                show(vb),
                delta
            );
        }
    }

    let quantile_row = |label: &str, qa: Option<f64>, qb: Option<f64>| {
        let show = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v}"));
        let delta = match (qa, qb) {
            (Some(qa), Some(qb)) => format!("{:+}", qb - qa),
            _ => "-".to_string(),
        };
        format!("  {label:<8}  {:>12}  {:>12}  {:>13}", show(qa), show(qb), delta)
    };
    let _ = writeln!(out, "latency (rounds):");
    let _ = writeln!(out, "{}", quantile_row("p50", a.latency_p50, b.latency_p50));
    let _ = writeln!(out, "{}", quantile_row("p99", a.latency_p99, b.latency_p99));
    out
}

/// Renders a summary as one machine-readable JSON object
/// (`fap report --json`): the run outcome, every counter, the `sim.*`
/// fault counts, the substrate section and the latency quantiles. Field
/// order is fixed and numbers use the same formatting as the JSONL
/// writer, so the output is byte-deterministic and scripts can diff it.
pub fn render_json(summary: &ReportSummary) -> String {
    use fap_obs::jsonl::{push_json_f64, push_json_str};

    fn push_counters(out: &mut String, key: &str, entries: &[(&String, &u64)]) {
        use fap_obs::jsonl::push_json_str;
        out.push(',');
        push_json_str(out, key);
        out.push_str(":{");
        for (i, (name, value)) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, name);
            let _ = write!(out, ":{value}");
        }
        out.push('}');
    }

    let mut out = String::new();
    let _ = write!(out, "{{\"lines\":{},\"events\":{}", summary.lines, summary.events);
    out.push_str(",\"run\":{\"iterations\":");
    match summary.iterations {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"converged\":");
    match summary.converged {
        Some(b) => {
            let _ = write!(out, "{b}");
        }
        None => out.push_str("null"),
    }
    out.push('}');
    push_counters(
        &mut out,
        "counters",
        &summary.counters.iter().map(|(n, v)| (n, v)).collect::<Vec<_>>(),
    );
    push_counters(
        &mut out,
        "faults",
        &summary.fault_counts.iter().map(|(n, v)| (n, v)).collect::<Vec<_>>(),
    );
    // The same substrate slice `render` prints as its own section.
    let substrate: Vec<(&String, &u64)> = summary
        .counters
        .iter()
        .filter(|(name, _)| {
            name.starts_with("net.landmark_")
                || name.starts_with("hier.")
                || name.starts_with("cache.")
        })
        .map(|(n, v)| (n, v))
        .collect();
    push_counters(&mut out, "substrate", &substrate);
    // The tracking section: `track.*` counters as integers, then the
    // `track.*` gauges as floats, both in file order.
    out.push_str(",\"tracking\":{");
    let mut first = true;
    for (name, value) in summary.counters.iter().filter(|(n, _)| n.starts_with("track.")) {
        if !first {
            out.push(',');
        }
        first = false;
        push_json_str(&mut out, name);
        let _ = write!(out, ":{value}");
    }
    for (name, value) in summary.gauges.iter().filter(|(n, _)| n.starts_with("track.")) {
        if !first {
            out.push(',');
        }
        first = false;
        push_json_str(&mut out, name);
        out.push(':');
        push_json_f64(&mut out, *value);
    }
    out.push('}');
    out.push_str(",\"latency\":{");
    for (i, (key, value)) in
        [("p50", summary.latency_p50), ("p99", summary.latency_p99)].iter().enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, key);
        out.push(':');
        match value {
            Some(v) => push_json_f64(&mut out, *v),
            None => out.push_str("null"),
        }
    }
    let _ = write!(out, ",\"deliveries\":{}}}", summary.deliveries);
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::chaos_sim;
    use crate::Scenario;
    use fap_obs::Telemetry;
    use fap_runtime::ChaosPlan;

    fn sim_jsonl(seed: u64) -> String {
        let scenario = Scenario::example();
        let plan = ChaosPlan::new(seed)
            .with_drop(0.2)
            .with_delay(0.2, 3)
            .with_staleness_bound(2)
            .with_retries(1);
        let mut telemetry = Telemetry::manual();
        chaos_sim(&scenario, plan, &mut telemetry).unwrap();
        telemetry.to_jsonl()
    }

    #[test]
    fn summarizes_a_recorded_sim_run() {
        let jsonl = sim_jsonl(11);
        let summary = summarize(&jsonl).unwrap();
        assert!(summary.iterations.is_some(), "run_end must be found");
        assert_eq!(summary.converged, Some(true));
        assert!(summary.deliveries > 0);
        let p50 = summary.latency_p50.unwrap();
        let p99 = summary.latency_p99.unwrap();
        assert!(p50 <= p99);
        let dropped = summary
            .fault_counts
            .iter()
            .find(|(name, _)| name == "sim.dropped")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(dropped > 0, "the drop-heavy plan must record drops");

        let rendered = render(&summary);
        assert!(rendered.contains("converged after"));
        assert!(rendered.contains("sim.dropped"));
        assert!(rendered.contains("p99"));
    }

    #[test]
    fn falls_back_to_the_histogram_when_events_are_absent() {
        let jsonl = sim_jsonl(11);
        // Keep only the registry snapshot (counter/gauge/hist lines).
        let registry_only: String = jsonl
            .lines()
            .filter(|l| !l.contains("\"event\""))
            .map(|l| format!("{l}\n"))
            .collect();
        let summary = summarize(&registry_only).unwrap();
        assert_eq!(summary.deliveries, 0);
        assert!(summary.latency_p50.is_some(), "histogram fallback must kick in");
        assert!(summary.iterations.is_none());
    }

    #[test]
    fn rejects_malformed_lines_with_a_line_number_byte_and_reason() {
        let err = summarize("{\"counter\":\"sim.sent\",\"value\":1}\nnot json\n").unwrap_err();
        assert_eq!(err, "line 2, byte 0: expected '{'");
        let err = summarize("{\"counter\":\"sim.sent\",\"value\":[1]}\n").unwrap_err();
        assert_eq!(err, "line 1, byte 30: nested arrays and objects are not allowed");
    }

    #[test]
    fn empty_quantile_is_none_not_a_panic() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[2.5], 0.99), Some(2.5));
    }

    #[test]
    fn empty_file_reports_no_latencies() {
        let summary = summarize("").unwrap();
        assert_eq!(summary, ReportSummary::default());
        assert_eq!(summary.latency_p50, None);
        assert_eq!(summary.latency_p99, None);
        let rendered = render(&summary);
        assert!(rendered.contains("no run_end event found"));
        assert!(rendered.contains("no delivery data found"));
    }

    #[test]
    fn event_free_file_reports_none_latencies() {
        // A registry-only export with no sim histogram and no deliveries —
        // e.g. a solve run that recorded only counters.
        let text = "{\"counter\":\"econ.iterations\",\"value\":12}\n\
                    {\"gauge\":\"econ.alpha\",\"value\":0.1}\n";
        let summary = summarize(text).unwrap();
        assert_eq!(summary.events, 0);
        assert_eq!(summary.deliveries, 0);
        assert_eq!(summary.latency_p50, None);
        assert_eq!(summary.latency_p99, None);
        assert!(render(&summary).contains("no delivery data found"));
    }

    #[test]
    fn ring_runs_report_real_iteration_counts() {
        // The §7 solver is wired through the recorder now; its exported
        // stream must show the true iteration count, not zero.
        let ring = fap_ring::VirtualRing::new(
            vec![4.0, 1.0, 1.0, 1.0],
            vec![0.25; 4],
            vec![1.5; 4],
            2.0,
            1.0,
        )
        .unwrap();
        let mut telemetry = Telemetry::manual();
        let solution = fap_ring::RingSolver::new(0.1)
            .with_max_iterations(3_000)
            .solve(&ring, &[2.0, 0.0, 0.0, 0.0], &mut telemetry)
            .unwrap();
        assert!(solution.iterations > 0);
        let summary = summarize(&telemetry.to_jsonl()).unwrap();
        assert_eq!(summary.iterations, Some(solution.iterations as u64));
        assert_eq!(summary.converged, Some(solution.converged));
        assert!(render(&summary).contains(&format!("after {} iterations", solution.iterations)));
    }

    #[test]
    fn tracking_runs_render_their_own_section() {
        let config = fap_runtime::DriftConfig {
            nodes: 5,
            epochs: 6,
            max_iterations: 60_000,
            ..fap_runtime::DriftConfig::default()
        };
        let run = fap_runtime::DriftRun::new(config).unwrap();
        let mut telemetry = Telemetry::manual();
        let report = run.run(&mut telemetry).unwrap();
        let summary = summarize(&telemetry.to_jsonl()).unwrap();
        assert!(summary
            .counters
            .iter()
            .any(|(n, v)| n == "track.epochs" && *v == report.epochs.len() as u64));
        assert!(summary.gauges.iter().any(|(n, _)| n == "track.regret"));

        let rendered = render(&summary);
        assert!(rendered.contains("tracking:"), "{rendered}");
        assert!(rendered.contains("track.epochs"), "{rendered}");
        assert!(rendered.contains("track.regret"), "{rendered}");

        let json = render_json(&summary);
        assert!(json.contains("\"tracking\":{"), "{json}");
        assert!(json.contains("\"track.epochs\":6"), "{json}");
        assert!(json.contains("\"track.regret\":"), "{json}");
        // Non-tracking files keep an empty section, not a missing key.
        let empty = render_json(&ReportSummary::default());
        assert!(empty.contains("\"tracking\":{}"));
    }

    #[test]
    fn every_counter_is_captured_for_diffing() {
        let text = "{\"counter\":\"econ.iterations\",\"value\":12}\n\
                    {\"counter\":\"serve.requests\",\"value\":3}\n\
                    {\"counter\":\"cache.hit\",\"value\":2}\n";
        let summary = summarize(text).unwrap();
        assert_eq!(
            summary.counters,
            vec![
                ("econ.iterations".to_string(), 12),
                ("serve.requests".to_string(), 3),
                ("cache.hit".to_string(), 2),
            ]
        );
        assert!(summary.fault_counts.is_empty(), "non-sim counters are not faults");
    }

    #[test]
    fn diff_shows_deltas_and_one_sided_counters() {
        let a = summarize(
            "{\"counter\":\"econ.iterations\",\"value\":100}\n\
             {\"counter\":\"serve.requests\",\"value\":6}\n",
        )
        .unwrap();
        let b = summarize(
            "{\"counter\":\"econ.iterations\",\"value\":40}\n\
             {\"counter\":\"serve.requests\",\"value\":6}\n\
             {\"counter\":\"serve.warm_starts\",\"value\":5}\n",
        )
        .unwrap();
        let rendered = render_diff("cold.jsonl", &a, "warm.jsonl", &b);
        assert!(rendered.contains("A: cold.jsonl"));
        assert!(rendered.contains("B: warm.jsonl"));
        assert!(rendered.contains("-60"), "econ.iterations delta: {rendered}");
        assert!(rendered.contains("+0"), "unchanged counters show +0: {rendered}");
        // A counter only one side has renders a dash, not a bogus delta.
        let warm_line = rendered
            .lines()
            .find(|l| l.contains("serve.warm_starts"))
            .expect("B-only counter must appear");
        assert!(warm_line.contains('-'), "{warm_line}");
        assert!(warm_line.contains('5'), "{warm_line}");
    }

    #[test]
    fn diffing_real_sim_runs_is_well_formed() {
        let a = summarize(&sim_jsonl(11)).unwrap();
        let b = summarize(&sim_jsonl(12)).unwrap();
        let rendered = render_diff("a", &a, "b", &b);
        assert!(rendered.contains("sim.dropped"));
        assert!(rendered.contains("p99"));
        // Same file diffed against itself: every delta is +0.
        let same = render_diff("a", &a, "a", &a);
        assert!(!same.lines().any(|l| l.contains("+1") || l.contains("-1")), "{same}");
    }

    #[test]
    fn json_output_is_machine_readable_and_deterministic() {
        let jsonl = sim_jsonl(11);
        let summary = summarize(&jsonl).unwrap();
        let json = render_json(&summary);
        // One flat-enough object the JSONL parser itself cannot read (it
        // nests), but whose shape scripts can rely on byte-for-byte.
        assert!(json.starts_with("{\"lines\":"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"run\":{\"iterations\":"));
        assert!(json.contains("\"converged\":true"));
        assert!(json.contains("\"counters\":{"));
        assert!(json.contains("\"sim.dropped\":"));
        assert!(json.contains("\"substrate\":{"));
        assert!(json.contains("\"latency\":{\"p50\":"));
        assert_eq!(json, render_json(&summarize(&jsonl).unwrap()));

        // Absent fields render as null, not as made-up numbers.
        let empty = render_json(&ReportSummary::default());
        assert!(empty.contains("\"iterations\":null"));
        assert!(empty.contains("\"p50\":null"));
        assert!(empty.contains("\"deliveries\":0"));
    }

    #[test]
    fn quantiles_are_exact_over_the_deliveries() {
        let mut jsonl = String::new();
        for latency in [0, 0, 0, 1, 4] {
            jsonl.push_str(&format!(
                "{{\"t\":1,\"event\":\"delivery\",\"round\":1,\"from\":0,\"latency\":{latency}}}\n"
            ));
        }
        let summary = summarize(&jsonl).unwrap();
        assert_eq!(summary.deliveries, 5);
        assert_eq!(summary.latency_p50, Some(0.0));
        assert_eq!(summary.latency_p99, Some(4.0));
    }
}
