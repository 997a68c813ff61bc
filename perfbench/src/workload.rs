//! The four workloads: what each compiles, on which target, what its
//! answer must be, and how its replay trace is generated.
//!
//! Every expected answer here is pinned by hand from the program and the
//! target, never taken from the compiler under test.

use std::collections::BTreeMap;

use p4all_core::{CompileOptions, TenantProgram};
use p4all_elastic::apps::{lpm, netcache, vlan};
use p4all_lang::Tenant;
use p4all_pisa::{presets, TargetSpec};
use p4all_sim::{Phv, SimError, Switch};

/// Which job a run performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PhvPressure,
    JointXl,
    NetcacheReplay,
    NetcacheSharded,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PhvPressure,
        Workload::JointXl,
        Workload::NetcacheReplay,
        Workload::NetcacheSharded,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PhvPressure => "phv-pressure",
            Workload::JointXl => "joint-xl",
            Workload::NetcacheReplay => "netcache-replay",
            Workload::NetcacheSharded => "netcache-sharded",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (also its `why` in
    /// `BENCHMARK.json`).
    pub(crate) fn why(self) -> &'static str {
        match self {
            Workload::PhvPressure => {
                "1344x1054 PHV-bound model, 0 nodes: dense refactorization in ilp::simplex dominates the compile; replay is a small share"
            }
            Workload::JointXl => {
                "3-tenant joint model: tree search over many small warm-started LPs (352 nodes), plus the tenant merge"
            }
            Workload::NetcacheReplay => {
                "small NetCache compile, then 1-thread bytecode and native replay of a Zipf trace: simulator-bound"
            }
            Workload::NetcacheSharded => {
                "same program and trace replayed at 2 shards: flow-hash gather, channels and delta merge"
            }
        }
    }

    pub(crate) fn spec(self) -> Spec {
        match self {
            Workload::PhvPressure => phv_pressure(),
            Workload::JointXl => joint_xl(),
            Workload::NetcacheReplay => netcache_spec(1),
            Workload::NetcacheSharded => netcache_spec(2),
        }
    }
}

/// What one workload compiles.
pub(crate) enum Source {
    /// One program, compiled with `CompileCtx::compile`.
    Single(String),
    /// Tenant programs, merged and compiled with `CompileCtx::compile_joint`.
    Joint(Vec<TenantProgram>),
}

/// Everything a run needs to know about its workload.
pub(crate) struct Spec {
    pub(crate) source: Source,
    pub(crate) target: TargetSpec,
    pub(crate) options: CompileOptions,
    /// Pinned optimum of the ILP objective.
    pub(crate) objective: f64,
    /// Pinned symbolic values (by the layout's names); empty when only
    /// the objective is pinned.
    pub(crate) symbols: BTreeMap<String, u64>,
    /// Header field that carries the Zipf key; every other header field
    /// is derived from the key, so each key is one flow.
    pub(crate) key_field: &'static str,
    /// Shards requested for the measured bytecode replay (capped at
    /// `available_parallelism`).
    pub(crate) shards: usize,
    /// Share of the measurement window spent on compile jobs; replay gets
    /// the rest.
    pub(crate) compile_share: f64,
}

/// Zipf skew and key count of every replay trace.
const ZIPF_ALPHA: f64 = 1.1;
const ZIPF_KEYS: u64 = 20_000;

/// `phv_pressure_limits_iterations` from the language-feature tests, with
/// the paper-eval target's own 512 fixed PHV bits kept: 1200 − 512 = 688
/// usable bits, 32 for `hdr.key`, and each iteration needs 4 × 128 = 512
/// bits of metadata, so exactly one iteration fits. `n` has no upper
/// bound, so it unrolls to the 64-instance cap.
const PHV_PRESSURE_SRC: &str = r#"
    symbolic int n;
    assume n >= 1;
    optimize n;
    header pkt { bit<32> key; }
    struct metadata { bit<128>[n] blob_a; bit<128>[n] blob_b;
                      bit<128>[n] blob_c; bit<128>[n] blob_d; }
    register<bit<32>>[16][n] regs;
    action touch()[int i] {
        meta.blob_a[i] = hash(hdr.key, 16);
        regs[i][0] = regs[i][0] + 1;
    }
    control Main() { apply { for (i < n) { touch()[i]; } } }
"#;

fn one_thread() -> CompileOptions {
    CompileOptions::default().with_threads(1)
}

fn phv_pressure() -> Spec {
    let mut target = presets::paper_eval(1 << 14);
    target.phv_bits = 1200;
    Spec {
        source: Source::Single(PHV_PRESSURE_SRC.to_string()),
        target,
        options: one_thread(),
        objective: 1.0,
        symbols: BTreeMap::from([("n".to_string(), 1)]),
        key_field: "key",
        shards: 1,
        compile_share: 0.8,
    }
}

/// ilpbench's `joint-3tenant-xl`: NetCache at weight 2 (CMS up to 4 rows,
/// KVS up to 4 slices) with the VLAN filter and LPM routes at 8192 cells,
/// on paper-eval at 128 Kb/stage. The optimum is pinned as a number,
/// 34816 = 2 × (0.4 × 4 × 4096 + 0.6 × 1 × 1024) + 2 × 4096 + 3 × 4096
/// (cache CMS and KVS, filter banks × cells, routes levels × cells).
/// Symbol values are not pinned: an exact solve promises the optimum, not
/// which of the optimal layouts it returns.
fn joint_xl() -> Spec {
    let mut nc = netcache::NetCacheOptions::default();
    nc.cms.max_rows = 4;
    nc.kvs.max_slices = Some(4);
    let vlan_opts = vlan::VlanOptions {
        max_cells: Some(8192),
        ..Default::default()
    };
    let lpm_opts = lpm::LpmOptions {
        max_cells: Some(8192),
        ..Default::default()
    };
    let tenant = |name: &str, weight: f64, src: String| {
        TenantProgram::new(Tenant::new(name, weight).expect("valid tenant name"), src)
    };
    Spec {
        source: Source::Joint(vec![
            tenant("cache", 2.0, netcache::source(&nc)),
            tenant("filter", 1.0, vlan::source(&vlan_opts)),
            tenant("routes", 1.0, lpm::source(&lpm_opts)),
        ]),
        target: presets::paper_eval(1 << 17),
        options: one_thread(),
        objective: 34816.0,
        symbols: BTreeMap::new(),
        key_field: "cache::key",
        shards: 1,
        compile_share: 0.8,
    }
}

/// The bench NetCache (CMS up to 3 rows, KVS up to 4 slices) on
/// paper-eval at 32 Kb/stage. Every row fills one stage's 32 Kb: 3 CMS
/// rows of 1024 32-bit counters and 4 KVS slices of 256 128-bit values,
/// so the utility is 0.4 × 3 × 1024 + 0.6 × 4 × 256 = 1843.2.
fn netcache_spec(shards: usize) -> Spec {
    let mut opts = netcache::NetCacheOptions::default();
    opts.cms.max_rows = 3;
    opts.kvs.max_slices = Some(4);
    Spec {
        source: Source::Single(netcache::source(&opts)),
        target: presets::paper_eval(1 << 15),
        options: one_thread(),
        objective: 1843.2,
        symbols: BTreeMap::from([
            ("cms_rows".to_string(), 3),
            ("cms_cols".to_string(), 1024),
            ("kv_slices".to_string(), 4),
            ("kv_cols".to_string(), 256),
        ]),
        key_field: "key",
        shards,
        compile_share: 0.15,
    }
}

/// Stateless 64-bit mix (splitmix64 finalizer).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Replay inputs for `sw`: `packets` Zipf keys drawn from `seed` in
/// `key_field`; every other header field is a fixed function of the key.
pub(crate) fn make_trace(
    sw: &Switch,
    key_field: &str,
    packets: usize,
    seed: u64,
) -> Result<Vec<Phv>, SimError> {
    let fields = sw.header_fields();
    let trace = p4all_workloads::zipf_trace(ZIPF_KEYS, ZIPF_ALPHA, packets, seed);
    trace
        .packets
        .iter()
        .map(|p| {
            let values: Vec<(&str, u64)> = fields
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let v = if f == key_field {
                        p.key
                    } else {
                        mix(p.key ^ ((i as u64) << 56))
                    };
                    (f.as_str(), v)
                })
                .collect();
            sw.make_packet(&values)
        })
        .collect()
}
