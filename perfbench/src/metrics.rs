//! Every metric the benchmark reports: name, unit, direction, and — for a
//! per-layer metric — the end-to-end metric and workload it should move,
//! and where it should not move. `BENCHMARK.json` is rendered from these
//! tables ([`benchmark_json`]) and a test keeps the committed file equal
//! to it.

use std::fmt::Write as _;

use crate::workload::Workload;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// What it measures and, for a per-layer metric, which end-to-end
    /// metric on which workload it should move (and where it should not).
    pub doc: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower: bool,
    bound: f64,
    doc: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound,
        doc,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower: bool, doc: &'static str) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better: lower,
        bound: 0.0,
        doc,
    }
}

/// Measured with tracing off. Every workload reports every one.
pub const END_TO_END: &[Metric] = &[
    e2e("compile_s", "s", true, 0.25,
        "source to layout: parse (or tenant merge) plus CompileCtx::compile / compile_joint at 1 solver thread; 90th percentile (nearest rank) of the run's compile jobs"),
    e2e("replay_mpps", "Mpps", false, 0.25,
        "default bytecode engine (Backend::Compiled, scalar) after a warm-up pass; 10th percentile of the run's replay passes; at 2 shards on netcache-sharded"),
    e2e("replay_native_mpps", "Mpps", false, 0.25,
        "native engine (generated Rust built by rustc), 1 thread, after a warm-up pass; 10th percentile of the run's replay passes"),
    e2e("setup_s", "s", true, 0.25,
        "one-time set-up before the first replay pass: Switch::build plus native codegen, rustc and load, median of the run's set-ups"),
    e2e("peak_rss_mb", "MB", true, 0.1,
        "peak resident memory of the benchmark process (VmHWM)"),
];

/// Measured by the traced run (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    layer("lang.parse_merge_s", "s", true,
        "p4all-lang: p4all_lang::parse, or merge_tenants on joint-xl (the tenant parses and the merge); moves compile_s on joint-xl, a small share"),
    layer("core.front_s", "s", true,
        "p4all-core passes parse..depgraph from CompileTrace; moves compile_s on netcache-replay"),
    layer("core.encode_s", "s", true,
        "p4all-core ILP encode pass; moves compile_s on netcache-replay"),
    layer("core.backend_s", "s", true,
        "p4all-core extract plus codegen passes; moves compile_s on netcache-replay"),
    layer("core.unroll_instances", "count", true,
        "instances after unrolling; moves compile_s on netcache-replay"),
    layer("core.ilp_rows", "count", true,
        "ILP constraint rows; moves compile_s on netcache-replay"),
    layer("core.ilp_vars", "count", true,
        "ILP variables; moves compile_s on netcache-replay"),
    layer("ilp.solve_s", "s", true,
        "solve pass wall time; moves compile_s and peak_rss_mb on phv-pressure"),
    layer("ilp.proof_s", "s", true,
        "solve time after the last incumbent; moves compile_s on phv-pressure"),
    layer("ilp.lp_solves", "count", true,
        "LP relaxations solved; moves compile_s on phv-pressure"),
    layer("ilp.pivots", "count", true,
        "simplex pivots; moves compile_s on phv-pressure"),
    layer("ilp.refactorizations", "count", true,
        "basis refactorizations; moves compile_s and peak_rss_mb on phv-pressure"),
    layer("ilp.s_per_lp", "s", true,
        "solve seconds per LP; moves compile_s on phv-pressure"),
    layer("ilp.nodes", "count", true,
        "branch-and-bound nodes; moves compile_s on joint-xl, no change on netcache-*"),
    layer("ilp.strong_branch_lps", "count", true,
        "strong-branching LPs at the root; moves compile_s on joint-xl, no change on netcache-*"),
    layer("ilp.cuts_separated", "count", true,
        "cuts separated; moves compile_s on joint-xl, no change on netcache-*"),
    layer("ilp.cuts_applied", "count", true,
        "cuts applied to the LP; moves compile_s on joint-xl, no change on netcache-*"),
    layer("ilp.cut_yield", "ratio", false,
        "cuts applied / separated (0 when none); moves compile_s on joint-xl, no change on netcache-*"),
    layer("ilp.warm_solves", "count", false,
        "LPs solved on the warm dual path; moves compile_s on joint-xl, no change on netcache-*"),
    layer("ilp.cold_fallbacks", "count", true,
        "warm attempts that fell back to a cold solve; moves compile_s on joint-xl, no change on netcache-*"),
    layer("ilp.warm_ratio", "ratio", false,
        "warm / (warm + fallbacks) (0 when none); moves compile_s on joint-xl, no change on netcache-*"),
    layer("sim.build_s", "s", true,
        "Switch::build; moves setup_s on netcache-replay"),
    layer("sim.native_gen_s", "s", true,
        "native codegen (NativeReport); moves setup_s on netcache-replay"),
    layer("sim.native_rustc_s", "s", true,
        "rustc build of the native cdylib (NativeReport); moves setup_s on netcache-replay"),
    layer("sim.native_src_bytes", "bytes", true,
        "generated native source size; moves setup_s on netcache-replay"),
    layer("sim.exec_s", "s", true,
        "bytecode run_trace seconds per replay pass; moves replay_mpps on netcache-replay, no change on phv-pressure and joint-xl"),
    layer("sim.native_exec_s", "s", true,
        "native run_trace seconds per replay pass; moves replay_native_mpps on netcache-replay, no change on phv-pressure and joint-xl"),
    layer("sim.instr_per_pkt", "instr/pkt", true,
        "bytecode instructions per packet (SimStats stage_cost / packets, exact); moves replay_mpps on netcache-replay, no change on phv-pressure and joint-xl"),
    layer("sim.ns_per_instr", "ns", true,
        "bytecode ns per instruction; moves replay_mpps on netcache-replay, no change on phv-pressure and joint-xl"),
    layer("sim.shards", "count", false,
        "shards the measured bytecode replay ran; moves replay_mpps on netcache-sharded"),
    layer("sim.occupancy", "ratio", false,
        "replay worker busy time / wall time; moves replay_mpps on netcache-sharded"),
    layer("sim.shard_scaling", "ratio", false,
        "measured bytecode replay / 1-thread bytecode in the same run; moves replay_mpps on netcache-sharded"),
    layer("sim.dropped", "count", true,
        "packets dropped over every replay pass; any drop fails the job (counted in failed/attempted) on every workload"),
    layer("self.lang_pct", "%", true,
        "p4all-lang self time, share of the traced jobs' wall time"),
    layer("self.core_pct", "%", true,
        "p4all-core self time, share of the traced jobs' wall time"),
    layer("self.ilp_pct", "%", true,
        "ilp self time, share of the traced jobs' wall time"),
    layer("self.sim_pct", "%", true,
        "pisa-sim self time, share of the traced jobs' wall time"),
    layer("self.bench_pct", "%", true,
        "benchmark glue (checks, job bookkeeping) self time, share of the traced jobs' wall time"),
    layer("trace.overhead_compile_pct", "%", true,
        "traced vs untraced compile job wall time in the same run (median over each)"),
    layer("trace.overhead_replay_pct", "%", true,
        "traced vs untraced bytecode replay pass wall time in the same run (median over each)"),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json` as it must be committed.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"-q\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
            w.name(),
            w.why()
        );
        s.push_str(if i + 1 < Workload::ALL.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            m.unit,
            better(m),
            m.bound
        );
        s.push_str(if i + 1 < END_TO_END.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
            m.name,
            m.unit,
            better(m)
        );
        s.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

fn better(m: &Metric) -> &'static str {
    if m.lower_is_better {
        "lower"
    } else {
        "higher"
    }
}

/// Median of `v` (mean of the middle pair for even lengths); `None` when
/// empty.
/// Nearest-rank `q`-quantile of `v` (`0 < q <= 1`); `None` when empty.
pub(crate) fn percentile(v: &[f64], q: f64) -> Option<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s.get(rank.max(1) - 1).copied()
}

pub(crate) fn median(v: &[f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `--benchmark-json`"
        );
    }

    #[test]
    fn metric_names_are_unique_and_valid() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(
            names.len(),
            before,
            "metric and workload names must be unique"
        );
        for w in Workload::ALL {
            assert!(w.why().len() <= 200, "{} why too long", w.name());
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.1), Some(2.0));
        assert_eq!(percentile(&v, 0.9), Some(18.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.9), Some(5.0));
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.1), Some(1.0));
        assert_eq!(percentile(&[], 0.5), None);
    }
}
