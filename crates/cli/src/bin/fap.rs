//! The `fap` command-line tool.
//!
//! ```text
//! fap solve <scenario.json>              solve and print the allocation
//! fap run <scenario.json>                alias for solve
//! fap simulate <scenario.json>           solve, then measure with the DES
//! fap sim <scenario.json> [chaos.json]   run the protocol under faults
//! fap serve <requests.json> [--shards N] [--warm-start] [--oracle-update]
//!                                        serve a request list as one daemon
//!                                        batch; print its JSON batch line
//! fap served [--servers C] [--warm MODE] [--admission-bound W] ...
//!                                        persistent daemon (JSONL on stdin,
//!                                        or --socket <path> on Unix; a
//!                                        {"cmd":"drift"} line runs the
//!                                        tracking loop in-session)
//! fap track [--drift-scenario S] ...     online reallocation under drift:
//!                                        per-epoch regret vs clairvoyant
//!                                        and static baselines
//! fap serve-example                      print a template request list
//! fap report <metrics.jsonl>             summarize an exported metrics file
//! fap report --json <metrics.jsonl>      the summary as one JSON object
//! fap report --diff <a.jsonl> <b.jsonl>  compare two metrics files
//! fap trace <metrics.jsonl> [--top k]    span trees, critical paths, self time
//! fap trace --folded <metrics.jsonl>     folded stacks for flamegraph.pl
//! fap trace --diff <a.jsonl> <b.jsonl>   per-layer self-time deltas
//! fap sweep-k <scenario.json> <k,k,...>  the §8.2 k trade-off
//! fap bench-scale [out.json]             dense and sparse scaling sweep
//! fap bench-scale --check [committed]    re-run and verify determinism
//! fap bench-serve [out.json]             sequential-vs-sharded serving sweep
//! fap bench-serve --check [committed]    re-run and verify determinism
//! fap bench-drift [out.json]             drift-tracking regret sweep
//! fap bench-drift --check [committed]    re-run and verify the regret gate
//! fap example                            print a template scenario
//! fap chaos-example                      print a template fault plan
//! ```
//!
//! `solve`, `run`, `sim`, `serve`, `served` and `track` accept
//! `--metrics-out <path.jsonl>`
//! to export the run's telemetry and `--metrics-summary` to print the
//! metrics table. Every such command records through one streaming
//! `JsonlSink`: each event is written as it happens (to the file, or
//! discarded when no file is given), so memory stays flat however long
//! the run. Telemetry runs on virtual time (iterations/rounds), so two
//! runs of the same seeded scenario export byte-identical JSONL.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::process::ExitCode;

use fap_cli::{chaos_sim, simulate, solve, summarize, sweep_k, Scenario};
use fap_obs::JsonlSink;
use fap_runtime::ChaosPlan;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(message)) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Run(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Why a command failed.
#[derive(Debug)]
enum Failure {
    /// The command line is malformed: the message comes with the usage
    /// text. Argument parsing reports its `String` errors through `?`.
    Usage(String),
    /// A well-formed command failed on its input files or while running:
    /// the message alone, so that it is not buried under the usage text.
    Run(String),
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Usage(message)
    }
}

impl From<&str> for Failure {
    fn from(message: &str) -> Self {
        Failure::Usage(message.to_owned())
    }
}

/// A failure of a well-formed command.
fn failed(message: impl std::fmt::Display) -> Failure {
    Failure::Run(message.to_string())
}

/// Parses the `[--check] [file.json]` arguments of `bench-serve` and
/// `bench-drift`: whether `--check` was given, and the file (`default`
/// when none is named). Any other `--` argument, or a second file, is a
/// usage error, so that a typo never runs the sweep and writes over a file.
fn check_and_path<'a>(args: &'a [String], default: &'a str) -> Result<(bool, &'a str), Failure> {
    let mut check = false;
    let mut path = None;
    for arg in args {
        match arg.as_str() {
            "--check" => check = true,
            _ if path.is_none() && !arg.starts_with("--") => path = Some(arg.as_str()),
            other => return Err(format!("unexpected argument '{other}'").into()),
        }
    }
    Ok((check, path.unwrap_or(default)))
}

const USAGE: &str = "usage:
  fap solve <scenario.json> [--metrics-out <path.jsonl>] [--metrics-summary]
  fap run   <scenario.json> [--metrics-out <path.jsonl>] [--metrics-summary]
  fap simulate <scenario.json>
  fap sim <scenario.json> [chaos.json] [--metrics-out <path.jsonl>] [--metrics-summary]
  fap serve <requests.json> [--shards <n>] [--warm-start] [--oracle-update] [--metrics-out <path.jsonl>] [--metrics-summary]
  fap served [--shards <n>] [--servers <c>] [--warm off|batch|session]
             [--admission-bound <ticks>] [--warmup <n>] [--admission-window <n>]
             [--cache-bytes <n>] [--wall-clock] [--oracle-update]
             [--socket <path>] [metrics flags]
  fap track [--drift-scenario diurnal|flash-crowd|step|node-churn] [--nodes <n>]
            [--epochs <n>] [--seed <s>] [--hysteresis <eta>] [--smoothing <mu>]
            [--migration-bandwidth <b>] [--json] [metrics flags]
  fap serve-example
  fap report <metrics.jsonl>
  fap report --json <metrics.jsonl>
  fap report --diff <a.jsonl> <b.jsonl>
  fap trace <metrics.jsonl> [--top <k>]
  fap trace --folded <metrics.jsonl>
  fap trace --diff <a.jsonl> <b.jsonl>
  fap sweep-k <scenario.json> <k1,k2,...>
  fap bench-scale [out.json] [--sparse-max-n <n>]
  fap bench-scale --check [committed.json] [--sparse-max-n <n>]
  fap bench-serve [out.json]
  fap bench-serve --check [committed.json]
  fap bench-drift [out.json]
  fap bench-drift --check [committed.json]
  fap example
  fap chaos-example

metrics flags: --metrics-out <path.jsonl> streams the run's telemetry to a
file as it happens; --metrics-summary prints the metrics table

serve runs the list as one batch through the daemon that served runs and
prints its JSON batch line

solve, run, sim and serve also accept cost-substrate flags:
  --cost-backend dense|landmark   exact n^2 matrix (default) or the sparse
                                  landmark oracle (scales past the dense
                                  element budget)
  --landmarks <k>                 landmark count K (implies landmark backend)
  --landmark-seed <s>             farthest-point selection seed

serve and served also accept --oracle-update: repair cached landmark
oracles across small topology edits (edge re-price, node join/leave)
instead of rebuilding them

served --cache-bytes <n> bounds the whole substrate cache, dense matrices
and landmark oracles together, evicting the oldest entries first";

/// Telemetry flags shared by `solve`/`run`/`sim`/`serve`/`served`/`track`.
#[derive(Debug, Default)]
struct MetricsOptions {
    out: Option<String>,
    summary: bool,
}

/// The sink every command records through: the `--metrics-out` file, or
/// nowhere when no file is given.
type MetricsSink = JsonlSink<Box<dyn Write>>;

impl MetricsOptions {
    fn requested(&self) -> bool {
        self.out.is_some() || self.summary
    }

    /// Opens the sink. The output file is created up front, so a bad path
    /// fails before the run starts.
    fn sink(&self) -> Result<MetricsSink, Failure> {
        let writer: Box<dyn Write> = match &self.out {
            Some(path) => {
                let file = File::create(path).map_err(|e| failed(format!("creating {path}: {e}")))?;
                Box::new(BufWriter::new(file))
            }
            None => Box::new(io::sink()),
        };
        Ok(JsonlSink::new(writer))
    }

    /// Prints the summary if asked, then appends the registry trailer and
    /// flushes the export (reporting any write error deferred during the
    /// run).
    fn finish(&self, sink: MetricsSink) -> Result<(), Failure> {
        if self.summary {
            print!("{}", sink.summary());
        }
        let path = self.out.as_deref().unwrap_or_default();
        sink.finish().map_err(|e| failed(format!("writing {path}: {e}")))?;
        Ok(())
    }
}

/// Splits `--cost-backend` / `--landmarks` / `--landmark-seed` out of the
/// raw argument list. `--landmarks`/`--landmark-seed` imply the landmark
/// backend; combining them with an explicit `--cost-backend dense` is an
/// error.
fn extract_backend_flags(
    args: &[String],
) -> Result<(Vec<String>, Option<fap_cache::CostBackend>), String> {
    let mut positional = Vec::new();
    let mut kind: Option<String> = None;
    let mut landmarks: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--cost-backend" => {
                let k = iter.next().ok_or("--cost-backend requires dense|landmark")?;
                kind = Some(k.clone());
            }
            "--landmarks" => {
                let k = iter.next().ok_or("--landmarks requires a count")?;
                let k: usize =
                    k.parse().map_err(|e| format!("bad landmark count '{k}': {e}"))?;
                if k == 0 {
                    return Err("--landmarks must be at least 1".into());
                }
                landmarks = Some(k);
            }
            "--landmark-seed" => {
                let s = iter.next().ok_or("--landmark-seed requires a seed")?;
                seed = Some(s.parse().map_err(|e| format!("bad landmark seed '{s}': {e}"))?);
            }
            _ => positional.push(arg.clone()),
        }
    }
    let sparse = || fap_cache::CostBackend::Landmark {
        landmarks: landmarks.unwrap_or(fap_cache::DEFAULT_LANDMARKS),
        seed: seed.unwrap_or(fap_cache::DEFAULT_LANDMARK_SEED),
    };
    let backend = match kind.as_deref() {
        None if landmarks.is_some() || seed.is_some() => Some(sparse()),
        None => None,
        Some("landmark") => Some(sparse()),
        Some("dense") => {
            if landmarks.is_some() || seed.is_some() {
                return Err("--landmarks/--landmark-seed require the landmark backend".into());
            }
            Some(fap_cache::CostBackend::Dense)
        }
        Some(other) => {
            return Err(format!("unknown cost backend '{other}' (expected dense|landmark)"))
        }
    };
    Ok((positional, backend))
}

/// Splits `--metrics-out <path>` / `--metrics-summary` out of the raw
/// argument list, leaving the positional arguments.
fn extract_metrics_flags(args: &[String]) -> Result<(Vec<String>, MetricsOptions), String> {
    let mut positional = Vec::new();
    let mut options = MetricsOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--metrics-out" => {
                let path = iter.next().ok_or("--metrics-out requires a path")?;
                options.out = Some(path.clone());
            }
            "--metrics-summary" => options.summary = true,
            _ => positional.push(arg.clone()),
        }
    }
    Ok((positional, options))
}

fn run(args: &[String]) -> Result<(), Failure> {
    let (args, metrics) = extract_metrics_flags(args)?;
    if metrics.requested()
        && !matches!(
            args.first().map(String::as_str),
            Some("solve" | "run" | "sim" | "serve" | "served" | "track")
        )
    {
        return Err(
            "--metrics-out/--metrics-summary only apply to solve, run, sim, serve, served and track"
                .into(),
        );
    }
    let (args, backend) = extract_backend_flags(&args)?;
    if backend.is_some()
        && !matches!(
            args.first().map(String::as_str),
            Some("solve" | "run" | "sim" | "serve")
        )
    {
        return Err(
            "--cost-backend/--landmarks/--landmark-seed only apply to solve, run, sim and serve"
                .into(),
        );
    }
    match &args[..] {
        [] => Err("no command given".into()),
        [cmd, rest @ ..] => match (cmd.as_str(), rest) {
            ("example", []) => {
                println!("{}", Scenario::example().to_json());
                Ok(())
            }
            ("solve" | "run", [path]) => {
                let mut scenario = Scenario::load(Path::new(path)).map_err(failed)?;
                if let Some(backend) = backend {
                    scenario.cost_backend = backend;
                }
                let mut sink = metrics.sink()?;
                let output = solve(&scenario, &mut sink).map_err(failed)?;
                metrics.finish(sink)?;
                println!("converged:  {} ({} iterations)", output.converged, output.iterations);
                println!("cost:       {:.6}", output.cost);
                println!("reference:  {:.6} (gap {:.2e})", output.reference_cost, output.reference_gap);
                println!("allocation:");
                for (i, x) in output.allocation.iter().enumerate() {
                    println!("  node {i:>3}: {x:.6}");
                }
                Ok(())
            }
            ("simulate", [path]) => {
                let scenario = Scenario::load(Path::new(path)).map_err(failed)?;
                let (output, report) = simulate(&scenario).map_err(failed)?;
                println!("model cost:     {:.6}", output.cost);
                println!(
                    "measured cost:  {:.6} over {} accesses",
                    report.mean_total_cost(scenario.k),
                    report.accesses_measured
                );
                println!(
                    "mean response:  {:.6} ± {:.6}",
                    report.response.mean(),
                    report.response.ci95_half_width()
                );
                println!("mean comm cost: {:.6}", report.comm_cost.mean());
                println!("utilization per node:");
                for (i, rho) in report.per_node_utilization.iter().enumerate() {
                    println!("  node {i:>3}: {rho:.4}");
                }
                Ok(())
            }
            ("chaos-example", []) => {
                let plan = ChaosPlan::new(42)
                    .with_drop(0.1)
                    .with_delay(0.2, 2)
                    .with_staleness_bound(2)
                    .with_retries(1);
                let json = serde_json::to_string_pretty(&plan)
                    .map_err(failed)?;
                println!("{json}");
                Ok(())
            }
            ("sim", [path, rest @ ..]) if rest.len() <= 1 => {
                let mut scenario = Scenario::load(Path::new(path)).map_err(failed)?;
                if let Some(backend) = backend {
                    scenario.cost_backend = backend;
                }
                let plan = match rest {
                    [chaos_path] => {
                        let text = std::fs::read_to_string(chaos_path)
                            .map_err(|e| failed(format!("reading {chaos_path}: {e}")))?;
                        serde_json::from_str::<ChaosPlan>(&text)
                            .map_err(|e| failed(format!("parsing {chaos_path}: {e}")))?
                    }
                    _ => ChaosPlan::new(0),
                };
                let mut sink = metrics.sink()?;
                let report = chaos_sim(&scenario, plan, &mut sink)
                    .map_err(failed)?;
                metrics.finish(sink)?;
                let json = serde_json::to_string_pretty(&report)
                    .map_err(failed)?;
                println!("{json}");
                Ok(())
            }
            ("serve", rest) => {
                let mut path: Option<&String> = None;
                let mut shards = fap_batch::Parallelism::Auto;
                let mut warm_start = false;
                let mut oracle_update = false;
                let mut iter = rest.iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--shards" => {
                            let n = iter.next().ok_or("--shards requires a count")?;
                            let n: usize = n
                                .parse()
                                .map_err(|e| format!("bad shard count '{n}': {e}"))?;
                            if n == 0 {
                                return Err("--shards must be at least 1".into());
                            }
                            shards = fap_batch::Parallelism::Fixed(n);
                        }
                        "--warm-start" => warm_start = true,
                        "--oracle-update" => oracle_update = true,
                        _ if path.is_none() => path = Some(arg),
                        other => return Err(format!("unexpected argument '{other}'").into()),
                    }
                }
                let path = path.ok_or("serve requires a request-list file")?;
                let mut specs =
                    fap_cli::load_specs(Path::new(path)).map_err(failed)?;
                if let Some(backend) = backend {
                    for spec in &mut specs {
                        spec.set_cost_backend(backend);
                    }
                }
                let mut sink = metrics.sink()?;
                let line =
                    fap_cli::serve_once(&specs, shards, warm_start, oracle_update, &mut sink)
                        .map_err(failed)?;
                println!("{line}");
                metrics.finish(sink)?;
                Ok(())
            }
            ("served", rest) => {
                let mut config = fap_served::DaemonConfig::default();
                let mut socket: Option<String> = None;
                let mut iter = rest.iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--shards" => {
                            let n = iter.next().ok_or("--shards requires a count")?;
                            let n: usize = n
                                .parse()
                                .map_err(|e| format!("bad shard count '{n}': {e}"))?;
                            if n == 0 {
                                return Err("--shards must be at least 1".into());
                            }
                            config.shards = fap_batch::Parallelism::Fixed(n);
                        }
                        "--servers" => {
                            let c = iter.next().ok_or("--servers requires a count")?;
                            let c: u32 = c
                                .parse()
                                .map_err(|e| format!("bad server count '{c}': {e}"))?;
                            config.servers = c;
                        }
                        "--warm" => {
                            let mode = iter.next().ok_or("--warm requires off|batch|session")?;
                            config.warm = fap_served::WarmMode::parse(mode)?;
                        }
                        "--admission-bound" => {
                            let w = iter.next().ok_or("--admission-bound requires a tick count")?;
                            let w: f64 = w
                                .parse()
                                .map_err(|e| format!("bad admission bound '{w}': {e}"))?;
                            if w.is_nan() || w < 0.0 {
                                return Err("--admission-bound must be non-negative".into());
                            }
                            config.admission_bound = Some(w);
                        }
                        "--warmup" => {
                            let n = iter.next().ok_or("--warmup requires a sample count")?;
                            config.admission_warmup = n
                                .parse()
                                .map_err(|e| format!("bad warmup '{n}': {e}"))?;
                        }
                        "--admission-window" => {
                            let n =
                                iter.next().ok_or("--admission-window requires a sample count")?;
                            let n: usize = n
                                .parse()
                                .map_err(|e| format!("bad admission window '{n}': {e}"))?;
                            if n == 0 {
                                return Err("--admission-window must be at least 1".into());
                            }
                            config.admission_window = n;
                        }
                        "--cache-bytes" => {
                            let n = iter.next().ok_or("--cache-bytes requires a byte count")?;
                            let n: u64 = n
                                .parse()
                                .map_err(|e| format!("bad cache budget '{n}': {e}"))?;
                            config.cache_bytes = Some(n);
                        }
                        "--wall-clock" => config.wall_clock = true,
                        "--oracle-update" => config.oracle_update = true,
                        "--socket" => {
                            let path = iter.next().ok_or("--socket requires a path")?;
                            socket = Some(path.clone());
                        }
                        other => return Err(format!("unexpected argument '{other}'").into()),
                    }
                }
                let mut sink = metrics.sink()?;
                match socket {
                    Some(path) => {
                        #[cfg(unix)]
                        {
                            fap_cli::served::run_socket(
                                Path::new(&path),
                                &config,
                                &mut sink,
                            )
                            .map_err(failed)?;
                        }
                        #[cfg(not(unix))]
                        {
                            let _ = path;
                            return Err("--socket requires a Unix platform".into());
                        }
                    }
                    None => {
                        let stdin = std::io::stdin();
                        let stdout = std::io::stdout();
                        let mut out = BufWriter::new(stdout.lock());
                        fap_cli::run_daemon(
                            stdin.lock(),
                            &mut out,
                            &config,
                            &mut sink,
                        )
                        .map_err(failed)?;
                        out.flush().map_err(failed)?;
                    }
                }
                metrics.finish(sink)?;
                Ok(())
            }
            ("track", rest) => {
                let options = fap_cli::parse_track_args(rest)?;
                let mut sink = metrics.sink()?;
                let report = fap_cli::run_track(&options, &mut sink).map_err(failed)?;
                if options.json {
                    let json =
                        serde_json::to_string_pretty(&report).map_err(failed)?;
                    println!("{json}");
                } else {
                    print!("{}", fap_cli::render_track(&options, &report));
                }
                metrics.finish(sink)?;
                Ok(())
            }
            ("serve-example", []) => {
                println!("{}", fap_cli::serve::example_specs_json());
                Ok(())
            }
            ("report", [path]) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| failed(format!("reading {path}: {e}")))?;
                let summary = summarize(&text).map_err(|e| failed(format!("{path}: {e}")))?;
                print!("{}", fap_cli::render(&summary));
                Ok(())
            }
            ("report", [flag, path]) if flag == "--json" => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| failed(format!("reading {path}: {e}")))?;
                let summary = summarize(&text).map_err(|e| failed(format!("{path}: {e}")))?;
                print!("{}", fap_cli::render_json(&summary));
                Ok(())
            }
            ("report", [flag, path_a, path_b]) if flag == "--diff" => {
                let load = |path: &String| -> Result<fap_cli::ReportSummary, Failure> {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| failed(format!("reading {path}: {e}")))?;
                    summarize(&text).map_err(|e| failed(format!("{path}: {e}")))
                };
                let (a, b) = (load(path_a)?, load(path_b)?);
                print!("{}", fap_cli::render_diff(path_a, &a, path_b, &b));
                Ok(())
            }
            ("trace", rest) if !rest.is_empty() => {
                let mut paths: Vec<&String> = Vec::new();
                let mut folded = false;
                let mut diff = false;
                let mut top = 3usize;
                let mut iter = rest.iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--folded" => folded = true,
                        "--diff" => diff = true,
                        "--top" => {
                            let n = iter.next().ok_or("--top requires a count")?;
                            top = n.parse().map_err(|e| format!("bad top count '{n}': {e}"))?;
                            if top == 0 {
                                return Err("--top must be at least 1".into());
                            }
                        }
                        other if other.starts_with("--") => {
                            return Err(format!("unexpected argument '{other}'").into())
                        }
                        _ => paths.push(arg),
                    }
                }
                let load = |path: &String| -> Result<fap_cli::TraceReport, Failure> {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| failed(format!("reading {path}: {e}")))?;
                    fap_cli::trace::analyze(&text).map_err(|e| failed(format!("{path}: {e}")))
                };
                match (diff, folded, &paths[..]) {
                    (true, false, [a, b]) => {
                        print!("{}", fap_cli::trace::render_diff(a, &load(a)?, b, &load(b)?));
                    }
                    (true, _, _) => {
                        return Err("trace --diff takes exactly two metrics files".into())
                    }
                    (false, true, [path]) => {
                        print!("{}", fap_cli::trace::render_folded(&load(path)?));
                    }
                    (false, false, [path]) => {
                        print!("{}", fap_cli::trace::render(&load(path)?, top));
                    }
                    _ => return Err("trace takes exactly one metrics file".into()),
                }
                Ok(())
            }
            ("bench-scale", rest) => {
                let mut check = false;
                let mut sparse_max_n: Option<usize> = None;
                let mut path: Option<&String> = None;
                let mut iter = rest.iter();
                while let Some(arg) = iter.next() {
                    match arg.as_str() {
                        "--check" => check = true,
                        "--sparse-max-n" => {
                            let n =
                                iter.next().ok_or("--sparse-max-n requires a node count")?;
                            sparse_max_n = Some(
                                n.parse().map_err(|e| format!("bad node count '{n}': {e}"))?,
                            );
                        }
                        _ if path.is_none() && !arg.starts_with("--") => path = Some(arg),
                        other => return Err(format!("unexpected argument '{other}'").into()),
                    }
                }
                if check {
                    let path = path.map_or("BENCH_scale.json", String::as_str);
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| failed(format!("reading {path}: {e}")))?;
                    let mut committed: fap_bench::scale::ScaleReport = serde_json::from_str(
                        &text,
                    )
                    .map_err(|e| failed(format!("parsing {path}: {e}")))?;
                    // A smoke check bounds the rerun's wall clock by
                    // truncating the sparse sweep; the compared prefix
                    // keeps its full hard gates.
                    if let Some(cap) = sparse_max_n {
                        committed.sparse_ns.retain(|&n| n <= cap);
                        committed.sparse_points.retain(|p| p.n <= cap);
                    }
                    let fresh = fap_bench::scale::bench_scale(
                        &committed.ns,
                        &committed.ms,
                        &committed.sparse_ns,
                        committed.iterations,
                        fap_batch::Parallelism::Auto,
                    );
                    let outcome = fap_bench::scale::check_against(&committed, &fresh);
                    for advisory in &outcome.advisories {
                        println!("advisory: {advisory}");
                    }
                    return if outcome.is_pass() {
                        println!(
                            "bench-scale check passed: {} dense + {} sparse points verified against {path}",
                            committed.points.len(),
                            committed.sparse_points.len()
                        );
                        Ok(())
                    } else {
                        Err(failed(format!(
                            "bench-scale check failed:\n  {}",
                            outcome.hard_failures.join("\n  ")
                        )))
                    };
                }
                let out = path.map_or("BENCH_scale.json", String::as_str);
                let mut sparse_ns: Vec<usize> =
                    vec![64, 256, 1024, 4096, 16384, 65536, 131072, 262144, 524288, 1048576];
                if let Some(cap) = sparse_max_n {
                    sparse_ns.retain(|&n| n <= cap);
                }
                let report = fap_bench::scale::bench_scale(
                    &[64, 256, 1024],
                    &[1, 16, 128],
                    &sparse_ns,
                    25,
                    fap_batch::Parallelism::Auto,
                );
                let json =
                    serde_json::to_string_pretty(&report).map_err(failed)?;
                std::fs::write(out, format!("{json}\n"))
                    .map_err(|e| failed(format!("writing {out}: {e}")))?;
                println!(
                    "{} host CPUs, {} workers; wrote {} dense + {} sparse points to {out}",
                    report.host_threads,
                    report.threads,
                    report.points.len(),
                    report.sparse_points.len()
                );
                for p in &report.points {
                    let parallel = match (p.parallel_ms, p.speedup) {
                        (Some(ms), Some(speedup)) => {
                            format!("  par {ms:>9.2} ms  speedup {speedup:>5.2}x")
                        }
                        _ => String::new(),
                    };
                    println!(
                        "  {:<10} N={:<5} M={:<4} seq {:>9.2} ms{parallel}",
                        p.kind, p.n, p.m, p.sequential_ms
                    );
                }
                for p in &report.sparse_points {
                    let gap = p.gap.map_or("      n/a".into(), |g| format!("{:>8.4}%", g * 100.0));
                    let update = 100.0 * p.update_work as f64 / p.rebuild_work.max(1) as f64;
                    println!(
                        "  sparse     N={:<7} K={:<3} L={} build {:>9.2} ms  solve {:>9.2} ms  gap {gap}  {:>6.1} MiB  upd {:>6.3}% of rebuild",
                        p.n, p.landmarks, p.levels, p.build_ms, p.solve_ms,
                        p.provider_bytes as f64 / (1 << 20) as f64, update
                    );
                }
                Ok(())
            }
            ("bench-serve", rest) => {
                let (check, path) = check_and_path(rest, "BENCH_serve.json")?;
                if check {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| failed(format!("reading {path}: {e}")))?;
                    let committed: fap_bench::serve::ServeReport =
                        serde_json::from_str(&text)
                            .map_err(|e| failed(format!("parsing {path}: {e}")))?;
                    let fresh = fap_bench::serve::bench_serve(
                        &committed.batch_sizes,
                        &committed.shard_counts,
                    );
                    let outcome = fap_bench::serve::check_against(&committed, &fresh);
                    for advisory in &outcome.advisories {
                        println!("advisory: {advisory}");
                    }
                    return if outcome.is_pass() {
                        println!(
                            "bench-serve check passed: {} points bit-identical to {path}",
                            committed.points.len()
                        );
                        Ok(())
                    } else {
                        Err(failed(format!(
                            "bench-serve check failed:\n  {}",
                            outcome.hard_failures.join("\n  ")
                        )))
                    };
                }
                let report = fap_bench::serve::bench_serve(&[12, 48, 192], &[1, 2, 4, 8]);
                let json =
                    serde_json::to_string_pretty(&report).map_err(failed)?;
                std::fs::write(path, format!("{json}\n"))
                    .map_err(|e| failed(format!("writing {path}: {e}")))?;
                println!(
                    "{} threads; wrote {} points to {path}",
                    report.threads,
                    report.points.len()
                );
                for p in &report.points {
                    println!(
                        "  requests={:<5} shards={:<3} seq {:>9.2} ms  sharded {:>9.2} ms  speedup {:>5.2}x",
                        p.requests, p.shards, p.sequential_ms, p.sharded_ms, p.speedup
                    );
                }
                println!("cost-matrix cache (off vs on):");
                for c in &report.cache_points {
                    println!(
                        "  requests={:<5} cold {:>8.3} ms  cached {:>8.3} ms  speedup {:>5.2}x  {} hits / {} misses",
                        c.requests, c.build_cold_ms, c.build_cached_ms, c.speedup, c.hits, c.misses
                    );
                }
                println!("warm starts (perturbed workload):");
                for w in &report.warm_points {
                    println!(
                        "  requests={:<5} cold {:>8} iters  warm {:>8} iters  {} seeded, {} iters saved",
                        w.requests, w.cold_iterations, w.warm_iterations, w.warm_starts, w.iters_saved
                    );
                }
                Ok(())
            }
            ("bench-drift", rest) => {
                let (check, path) = check_and_path(rest, "BENCH_drift.json")?;
                if check {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| failed(format!("reading {path}: {e}")))?;
                    let committed: fap_bench::drift::DriftBenchReport =
                        serde_json::from_str(&text)
                            .map_err(|e| failed(format!("parsing {path}: {e}")))?;
                    let fresh = fap_bench::drift::bench_drift(
                        &committed.scenarios,
                        committed.nodes,
                        committed.epochs,
                        committed.seed,
                    );
                    let outcome = fap_bench::drift::check_against(&committed, &fresh);
                    for advisory in &outcome.advisories {
                        println!("advisory: {advisory}");
                    }
                    return if outcome.is_pass() {
                        println!(
                            "bench-drift check passed: {} scenarios bit-identical to {path}, \
                             diurnal regret gate held",
                            committed.points.len()
                        );
                        Ok(())
                    } else {
                        Err(failed(format!(
                            "bench-drift check failed:\n  {}",
                            outcome.hard_failures.join("\n  ")
                        )))
                    };
                }
                let report = fap_bench::drift::bench_drift(
                    &fap_bench::drift::default_scenarios(),
                    8,
                    24,
                    7,
                );
                let json =
                    serde_json::to_string_pretty(&report).map_err(failed)?;
                std::fs::write(path, format!("{json}\n"))
                    .map_err(|e| failed(format!("writing {path}: {e}")))?;
                println!(
                    "{} host CPUs; wrote {} scenario points ({} nodes, {} epochs) to {path}",
                    report.host_threads,
                    report.points.len(),
                    report.nodes,
                    report.epochs
                );
                for p in &report.points {
                    println!(
                        "  {:<12} regret {:>10.6} vs static {:>10.6} (ratio {:>7.4})  \
                         moved {:>7.4} in {:>3} copies / {:>3} rounds  {:>8.2} ms",
                        p.scenario,
                        p.tracked_regret,
                        p.static_regret,
                        p.regret_ratio,
                        p.total_movement,
                        p.total_copies,
                        p.total_rounds,
                        p.run_ms
                    );
                }
                Ok(())
            }
            ("sweep-k", [path, list]) => {
                let scenario = Scenario::load(Path::new(path)).map_err(failed)?;
                let candidates: Vec<f64> = list
                    .split(',')
                    .map(|s| s.trim().parse::<f64>().map_err(|e| format!("bad k '{s}': {e}")))
                    .collect::<Result<_, _>>()?;
                let sweep = sweep_k(&scenario, &candidates).map_err(failed)?;
                println!("{:>10} {:>14} {:>12} {:>10}", "k", "communication", "mean delay", "spread");
                for point in sweep {
                    println!(
                        "{:>10.4} {:>14.6} {:>12.6} {:>10.6}",
                        point.k, point.communication, point.mean_delay, point.allocation_spread
                    );
                }
                Ok(())
            }
            (cmd, _) => Err(format!("unknown or malformed command '{cmd}'").into()),
        },
    }
}
