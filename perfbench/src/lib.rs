//! # p4all-perfbench — the compile-and-replay job, end to end and per layer
//!
//! One run performs one workload as a user would: parse (or merge tenant
//! programs), compile to a layout with the ILP solver at one thread, build
//! the switch, prepare the native engine, and replay a seeded Zipf trace.
//! The benchmark times each public call from outside, checks every output
//! against answers pinned by hand and against the interpreter oracle, and
//! prints one JSON result line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload netcache-replay --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --short
//! ```
//!
//! `--trace 1` reports the per-layer metrics instead of the end-to-end
//! ones and writes the run's spans as Chrome trace-event JSON under
//! `.bench_out/`.

pub mod metrics;
pub mod run;
pub mod spans;
pub mod workload;
