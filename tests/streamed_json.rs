//! Streamed serialization against the value tree, on the workspace's own
//! types.
//!
//! `serde_json::to_string` writes a value's events straight into text; the
//! same events can instead assemble a `serde::Value` tree. For every
//! top-level type the CLI and the daemon print, both routes must give the
//! same compact and pretty text, and parsing that text must give back the
//! tree — so streaming changed no output byte.

use fap::batch::Parallelism;
use fap::cache::SubstrateCache;
use fap::obs::NoopRecorder;
use fap::runtime::ChaosPlan;
use fap::serve::{BatchServer, ServeRequest, ServeResponse, WarmMode};
use fap_cli::serve::example_specs;
use fap_cli::{chaos_sim, Scenario};
use serde::Serialize;

/// Asserts that `value` streams to the text of its own tree.
fn assert_streams_as_its_tree<T: Serialize + ?Sized>(value: &T) {
    let tree = value.serialize_value();
    let text = serde_json::to_string(value).expect("finite floats");
    assert_eq!(text, serde_json::to_string(&tree).expect("finite floats"));
    assert_eq!(
        serde_json::to_string_pretty(value).expect("finite floats"),
        serde_json::to_string_pretty(&tree).expect("finite floats")
    );
    assert_eq!(serde_json::parse_value(&text).expect("streamed text parses"), tree);
}

#[test]
fn specs_and_scenarios_stream_as_their_trees() {
    assert_streams_as_its_tree(&example_specs());
    assert_streams_as_its_tree(&Scenario::example());
}

#[test]
fn every_serve_response_family_streams_as_its_tree() {
    let mut cache = SubstrateCache::new();
    let requests: Vec<ServeRequest> = example_specs()
        .iter()
        .map(|spec| spec.to_request_cached_with(&mut cache, false, &mut NoopRecorder))
        .collect::<Result<_, _>>()
        .expect("example specs build");
    let responses: Vec<ServeResponse> = BatchServer::new(Parallelism::Sequential, WarmMode::Batch)
        .serve(&requests, &mut NoopRecorder)
        .into_iter()
        .map(|r| r.expect("example specs solve"))
        .collect();
    assert!(matches!(
        responses.as_slice(),
        [ServeResponse::SingleFile(_), ServeResponse::MultiFile(_), ServeResponse::Ring(_)]
    ));
    for response in &responses {
        assert_streams_as_its_tree(response);
    }
    assert_streams_as_its_tree(&responses);
}

#[test]
fn chaos_plans_and_reports_stream_as_their_trees() {
    let plan = ChaosPlan::new(42)
        .with_drop(0.1)
        .with_delay(0.2, 2)
        .with_link_delay(0, 1, 0.5, 3)
        .with_staleness_bound(2)
        .with_retries(1);
    assert_streams_as_its_tree(&plan);
    let report =
        chaos_sim(&Scenario::example(), plan, &mut NoopRecorder).expect("example scenario runs");
    assert_streams_as_its_tree(&report);
}
