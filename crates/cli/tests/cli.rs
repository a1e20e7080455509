//! End-to-end tests of the `sda` binary, driving it as a subprocess.

use std::process::Command;

fn sda(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sda"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_prints_usage() {
    let out = sda(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sda run"));
    assert!(text.contains("sda compare"));
    assert!(text.contains("decompose"));
    assert!(text.contains("sda repro"));
}

#[test]
fn help_config_lists_keys() {
    let out = sda(&["help", "config"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for key in ["frac_local", "strategy", "abort", "service_shape"] {
        assert!(text.contains(key), "missing {key}");
    }
}

#[test]
fn run_with_overrides_produces_a_report() {
    let out = sda(&[
        "run",
        "duration=3000",
        "warmup=50",
        "load=0.5",
        "--reps",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MD_global"));
    assert!(text.contains("utilization"));
}

#[test]
fn run_from_config_file() {
    let dir = std::env::temp_dir().join("sda-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.conf");
    std::fs::write(
        &path,
        "load = 0.4\nstrategy = UD-DIV1\nduration = 2000\nwarmup = 20\n",
    )
    .unwrap();
    let out = sda(&["run", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("load=0.4"));
    assert!(text.contains("UD-DIV1"));
}

#[test]
fn compare_lists_each_strategy() {
    let out = sda(&[
        "compare",
        "duration=2000",
        "warmup=20",
        "UD-UD",
        "UD-GF",
        "--reps",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UD-UD"));
    assert!(text.contains("UD-GF"));
}

#[test]
fn sweep_emits_one_row_per_value() {
    let out = sda(&[
        "sweep",
        "load=0.2..0.6:0.2",
        "duration=2000",
        "warmup=20",
        "--reps",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Header + 3 data rows.
    assert_eq!(text.lines().count(), 4, "{text}");
}

#[test]
fn decompose_prints_virtual_deadlines() {
    let out = sda(&[
        "decompose",
        "[a [b || c] d]",
        "12",
        "EQF-DIV1",
        "--pex",
        "1,2,2,1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("T1 released"));
    assert!(text.contains("virtual deadline"));
    // Last stage carries the real deadline.
    assert!(text.contains("12.000"));
}

#[test]
fn bad_input_fails_with_a_message() {
    let out = sda(&["run", "load=2.0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("load"), "{err}");

    let out = sda(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = sda(&["decompose", "[a ||]", "5", "UD-UD"]);
    assert!(!out.status.success());
}

#[test]
fn usage_errors_exit_2_and_name_the_setting() {
    let dir = std::env::temp_dir().join("sda-cli-badconf-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text, needle) in [
        (
            "truncated.conf",
            "fault_straggler = 0.05\n",
            "fault_straggler",
        ),
        ("crash.conf", "fault_crash = explode\n", "fault_crash"),
        ("mttf.conf", "fault_mttf = -3\nduration = 1000\n", "mttf"),
        ("syntax.conf", "load 0.5\n", "line 1"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = sda(&["run", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}: usage errors exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{name}: {err}");
    }
    // Bad flag values take the same path.
    let out = sda(&["run", "--seed", "soon"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("seed"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn faulty_run_produces_a_report() {
    let out = sda(&[
        "run",
        "duration=3000",
        "warmup=50",
        "fault_mttf=400",
        "fault_mttr=20",
        "fault_crash=requeue",
        "fault_straggler=0.05,4",
        "fault_comm=0.05,0.5",
        "--reps",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MD_global"));
}

#[test]
fn trace_out_writes_jobs_invariant_jsonl() {
    let dir = std::env::temp_dir().join("sda-cli-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let seq = dir.join("trace-seq.jsonl");
    let par = dir.join("trace-par.jsonl");
    for (path, jobs) in [(&seq, "1"), (&par, "4")] {
        let out = sda(&[
            "run",
            "duration=500",
            "warmup=0",
            "--seed",
            "5",
            "--reps",
            "3",
            "--jobs",
            jobs,
            "--trace-out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("trace written"));
    }
    let a = std::fs::read(&seq).unwrap();
    let b = std::fs::read(&par).unwrap();
    assert!(!a.is_empty(), "trace file has content");
    assert_eq!(a, b, "trace bytes must not depend on --jobs");
    // Every line is a structured record the trace parser accepts.
    let text = String::from_utf8(a).unwrap();
    let records = sda_sim::parse_jsonl(&text);
    assert_eq!(records.len(), text.lines().count());
    assert!(records.iter().any(|r| r.event.kind() == "service_started"));
}

#[test]
fn trace_out_is_run_only() {
    let out = sda(&[
        "compare",
        "duration=500",
        "warmup=0",
        "UD-UD",
        "--reps",
        "1",
        "--trace-out",
        "unused.jsonl",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("error: `sda compare` does not take --trace-out"),
        "{err}"
    );
}

#[test]
fn flags_a_command_does_not_take_exit_2() {
    for args in [
        &[
            "decompose",
            "[a [b || c] d]",
            "12",
            "EQF-DIV1",
            "--jobs",
            "2",
        ][..],
        &["decompose", "[a b]", "12", "UD-UD", "--seed", "5"],
        &["repro", "--seed", "5"],
        &["repro", "--no-cache"],
        &["run", "duration=500", "--no-cache"],
        &["sweep", "load=0.2..0.4:0.2", "--plot"],
    ] {
        let out = sda(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
        let err = String::from_utf8_lossy(&out.stderr);
        let flag = args.iter().find(|a| a.starts_with("--")).unwrap();
        assert!(err.starts_with("error: ") && err.contains(flag), "{err}");
    }
}

#[test]
fn invalid_sda_jobs_exits_2_before_anything_runs() {
    for args in [
        &["run", "duration=500", "warmup=0"][..],
        &["sweep", "load=0.2..0.4:0.2", "duration=500", "warmup=0"],
        &["repro", "--scale", "quick", "--only", "table1"],
        &["repro", "--only", "table1", "--jobs", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sda"))
            .args(args)
            .env("SDA_JOBS", "abc")
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: nothing runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(r#"SDA_JOBS: invalid value "abc""#), "{err}");
    }
}

#[test]
fn jobs_flag_and_sda_jobs_give_identical_results() {
    let dir = std::env::temp_dir().join(format!("sda-cli-jobs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outputs = Vec::new();
    for (env, flag) in [("1", None), ("1", Some("3")), ("3", Some("1")), ("", None)] {
        let stats = dir.join(format!("stats-{env}-{}.json", flag.unwrap_or("none")));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_sda"));
        cmd.args(["run", "duration=1000", "warmup=10", "--reps", "3"])
            .args(["--stats-out", stats.to_str().unwrap()])
            .env("SDA_JOBS", env);
        if let Some(jobs) = flag {
            cmd.args(["--jobs", jobs]);
        }
        let out = cmd.output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        outputs.push((out.stdout, std::fs::read(&stats).unwrap()));
    }
    for other in &outputs[1..] {
        assert_eq!(&outputs[0], other);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repro_renders_the_selection_in_registry_order() {
    let out = sda(&["repro", "--scale", "quick", "--only", "table2,table1"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("# SDA reproduction report (scale: quick"));
    let table1 = text.find("## Table 1").expect("table1 rendered");
    let table2 = text.find("## Table 2").expect("table2 rendered");
    assert!(table1 < table2, "registry order: {text}");
    assert!(!text.contains("## Figure"), "only the selection: {text}");
}

#[test]
fn repro_bare_scale_name_sets_the_scale() {
    for (args, scale) in [
        (&["repro", "quick", "--only", "table1"][..], "quick"),
        (
            &["repro", "paper", "--scale", "quick", "--only", "table1"],
            "quick",
        ),
    ] {
        let out = sda(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        let header = format!("# SDA reproduction report (scale: {scale} (");
        assert!(text.starts_with(&header), "{args:?}: {text}");
    }
    let out = sda(&["repro", "galactic"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unrecognized argument \"galactic\""), "{err}");
}

#[test]
fn repro_unknown_artifact_lists_the_names() {
    let out = sda(&["repro", "--only", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("\"nope\""), "{err}");
    for name in ["table1", "fig15", "a10_burstiness", "f1_faults", "claims"] {
        assert!(err.contains(name), "{name} missing from {err}");
    }
}
