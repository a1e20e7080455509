//! Self-tests of the benchmark's own code, at tiny horizons.

use std::path::PathBuf;

use sda_perfbench::digest::{Digest, References};
use sda_perfbench::workloads::{
    input_seed, per_layer, replicate, replication_config, run, Options, Size, Tracer, END_TO_END,
    WORKLOADS,
};
use sda_sim::{Runner, StopRule};

fn scratch() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-selftest")
}

#[test]
fn model_wrapper_leaves_the_digest_unchanged() {
    for workload in ["fig5_6node", "nodes_600"] {
        let cfg = replication_config(workload, Size::Tiny);
        let seed = input_seed(3);
        let plain = replicate(&cfg, seed, None).expect("plain replication");
        let mut tracer = Tracer::new(&cfg);
        let traced = replicate(&cfg, seed, Some(&mut tracer)).expect("traced replication");
        let library = Runner::new(cfg)
            .with_seeds(vec![seed])
            .jobs(1)
            .stop(StopRule::FixedReps(1))
            .execute()
            .expect("valid config");

        let digest = Digest::of_run(&plain.result);
        assert_eq!(
            Digest::of_run(&traced.result),
            digest,
            "{workload}: wrapper changed the run"
        );
        assert_eq!(
            Digest::of_run(&library.runs()[0]),
            digest,
            "{workload}: the benchmark's drive loop differs from Runner's"
        );
        assert!(tracer.handle.events > 0 && tracer.replay.stats.queue_ops > 0);
        assert_eq!(
            tracer.replay.stats.queue_mismatches, 0,
            "{workload}: queue replay diverged"
        );
    }
}

#[test]
fn digest_check_rejects_a_perturbed_counter() {
    let cfg = replication_config("fig5_6node", Size::Tiny);
    let rep = replicate(&cfg, input_seed(0), None).expect("replication");
    let line = Digest::of_run(&rep.result).to_line();
    let reference = References::parse(&format!("fig5_6node 0 {line}")).expect("parses");
    let want = reference.get("fig5_6node", 0).expect("recorded");
    assert!(Digest::of_run(&rep.result).mismatches(want).is_empty());

    // One more local task missed: an exact counter.
    let missed = rep.result.metrics.local_md.missed();
    let perturbed = line.replace(
        &format!("local_missed={missed} "),
        &format!("local_missed={} ", missed + 1),
    );
    assert_ne!(perturbed, line);
    let got = Digest::parse_tokens(perturbed.split_whitespace()).expect("parses");
    let mismatches = got.mismatches(want);
    assert_eq!(mismatches.len(), 1, "{mismatches:?}");
    assert!(mismatches[0].starts_with("local_missed"));

    // Float statistics pass within 1e-9 relative and fail beyond it.
    let mean = rep.result.metrics.local_response.mean();
    for (factor, passes) in [(1.0 + 1e-12, true), (1.0 + 1e-6, false)] {
        let shifted = line.replace(
            &format!("local_response_mean=~{mean:?}"),
            &format!("local_response_mean=~{:?}", mean * factor),
        );
        let got = Digest::parse_tokens(shifted.split_whitespace()).expect("parses");
        assert_eq!(got.mismatches(want).is_empty(), passes, "factor {factor}");
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Every `"name": "..."` value in the `BENCHMARK.json` section `key`.
fn benchmark_json_names(json: &str, key: &str) -> Vec<String> {
    let start = json.find(&format!("\"{key}\"")).expect("section present");
    let section = &json[start..];
    let section = &section[..section.find(']').expect("section closes")];
    section
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn dry_run_emits_every_named_metric_for_every_workload() {
    let expected_e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    let expected_layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    for workload in WORKLOADS {
        for trace in [false, true] {
            let opts = Options {
                workload: workload.to_string(),
                seed: 5,
                seconds: 0.0,
                trace,
                size: Size::Tiny,
                scratch: scratch(),
            };
            let out = run(&opts, None).expect("known workload");
            assert_eq!(
                out.failed, 0,
                "{workload} trace={trace}: {:?}",
                out.problems
            );
            assert!(out.attempted > 0);
            let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
            let expected = if trace {
                &expected_layers
            } else {
                &expected_e2e
            };
            assert_eq!(&names, expected, "{workload} trace={trace}");
            for m in &out.metrics {
                assert!(valid_name(&m.name), "bad metric name {}", m.name);
                assert!(m.value.is_finite(), "{workload}: {} = {}", m.name, m.value);
            }
            if !trace {
                assert!(
                    out.metrics.iter().all(|m| m.value > 0.0),
                    "{:?}",
                    out.metrics
                );
            }
        }
    }
    assert!(WORKLOADS.iter().all(|w| valid_name(w)));

    // The benchmark's declaration lists exactly these names.
    let declared = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    if let Ok(json) = std::fs::read_to_string(declared) {
        assert_eq!(benchmark_json_names(&json, "workloads"), WORKLOADS);
        assert_eq!(benchmark_json_names(&json, "end_to_end"), expected_e2e);
        assert_eq!(benchmark_json_names(&json, "per_layer"), expected_layers);
    }
}
