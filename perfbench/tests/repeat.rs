//! The benchmark's own checks: every workload passes its correctness
//! checks on a small input, work counters repeat exactly from run to run
//! and with tracing on, and the traced run's self times account for its
//! jobs' wall time.

use std::process::Command;

use p4all_perfbench::metrics::{END_TO_END, PER_LAYER};
use p4all_perfbench::run::{run, Config, Outcome};
use p4all_perfbench::workload::Workload;

fn short(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let out = run(&Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        short: true,
    });
    assert_eq!(out.failed, 0, "{}: {:#?}", workload.name(), out.failures);
    assert!(
        out.failures.is_empty(),
        "{}: {:#?}",
        workload.name(),
        out.failures
    );
    out
}

/// Nodes, LPs, pivots, refactorizations, cuts, the layout and the
/// bytecode instruction count repeat exactly, traced or not.
fn assert_repeats(workload: Workload) {
    let a = short(workload, 7, false);
    let b = short(workload, 7, false);
    let traced = short(workload, 7, true);
    assert_eq!(
        a.fingerprint,
        b.fingerprint,
        "{}: second run differs",
        workload.name()
    );
    assert_eq!(
        a.fingerprint,
        traced.fingerprint,
        "{}: traced run differs",
        workload.name()
    );
    assert!(
        a.fingerprint.instructions > 0,
        "{}: no bytecode instructions counted",
        workload.name()
    );
}

#[test]
fn phv_pressure_counters_repeat_exactly() {
    assert_repeats(Workload::PhvPressure);
}

#[test]
fn joint_xl_counters_repeat_exactly() {
    assert_repeats(Workload::JointXl);
}

#[test]
fn netcache_counters_repeat_exactly() {
    assert_repeats(Workload::NetcacheReplay);
    assert_repeats(Workload::NetcacheSharded);
}

#[test]
fn traced_run_reports_every_layer_and_accounts_for_its_time() {
    let out = short(Workload::NetcacheSharded, 3, true);
    let native = p4all_sim::rustc_available();
    for m in PER_LAYER {
        let native_only = m.name.starts_with("sim.native");
        if native || !native_only {
            assert!(
                out.per_layer.contains_key(m.name),
                "per-layer metric {} missing",
                m.name
            );
        }
    }
    let names: Vec<&str> = out.tracer.spans().iter().map(|s| s.name.as_str()).collect();
    for call in [
        "p4all_lang::parse",
        "CompileCtx::compile",
        "solve",
        "Switch::build",
        "Switch::run_trace",
    ] {
        assert!(names.contains(&call), "no span for {call}");
    }
    // Every span nests inside its parent, so the per-layer self times
    // add up to the traced jobs' wall time.
    let spans = out.tracer.spans();
    for s in spans {
        if let Some(p) = s.parent {
            assert!(
                spans[p].start <= s.start && s.end <= spans[p].end,
                "{} escapes {}",
                s.name,
                spans[p].name
            );
        }
    }
    let (layers, roots) = out.tracer.layer_self_times();
    assert_eq!(layers.values().sum::<std::time::Duration>(), roots);
    let shares: f64 = [
        "self.lang_pct",
        "self.core_pct",
        "self.ilp_pct",
        "self.sim_pct",
        "self.bench_pct",
    ]
    .iter()
    .map(|k| out.per_layer[k])
    .sum();
    assert!(
        (shares - 100.0).abs() < 1e-6,
        "layer shares sum to {shares}%"
    );
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let out = short(Workload::NetcacheReplay, 5, false);
    for m in END_TO_END {
        if m.name != "replay_native_mpps" || p4all_sim::rustc_available() {
            let v = out.end_to_end.get(m.name).copied();
            assert!(
                v.is_some_and(|v| v > 0.0),
                "end-to-end metric {} = {v:?}",
                m.name
            );
        }
    }
}

#[test]
fn short_mode_of_the_command_passes_every_workload() {
    let out = Command::new(env!("CARGO_BIN_EXE_p4all-perfbench"))
        .arg("--short")
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<&str> = stdout
        .lines()
        .filter(|l| l.contains("\"correct\""))
        .collect();
    assert_eq!(results.len(), Workload::ALL.len(), "{stdout}");
    for (line, w) in results.iter().zip(Workload::ALL) {
        assert!(
            line.contains(&format!("\"workload\": \"{}\"", w.name())),
            "{line}"
        );
        assert!(
            line.contains("\"correct\": true") && line.contains("\"failed\": 0"),
            "{line}"
        );
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "1"],
        &["--workload", "joint-xl", "--trace", "2"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_p4all-perfbench"))
            .args(args)
            .current_dir(env!("CARGO_TARGET_TMPDIR"))
            .output()
            .expect("benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
