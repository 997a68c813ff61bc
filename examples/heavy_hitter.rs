//! Heavy-hitter monitoring with the elastic PRECISION-style tracker:
//! compile, simulate a skewed flow trace, and score the reported heavy
//! hitters against ground truth.
//!
//! ```sh
//! cargo run --example heavy_hitter --release
//! ```

use p4all_core::Compiler;
use p4all_elastic::apps::precision::{self, PrecisionOptions};
use p4all_pisa::presets;
use p4all_sim::Switch;
use p4all_workloads::{precision_recall, top_k, zipf_trace};

fn main() {
    let opts = PrecisionOptions { max_stages: 3, min_slots: 64 };
    let src = precision::source(&opts);
    let target = presets::paper_eval(1 << 15);
    let c = Compiler::new(target).compile(&src).expect("compiles");
    let stages = c.layout.symbol_values["prec_stages"];
    let slots = c.layout.symbol_values["prec_slots"];
    println!("tracker stretched to {stages} stages x {slots} slots\n");

    let program = p4all_lang::parse(&src).expect("parses");
    let mut sw = Switch::build(&c.concrete, &program).expect("sim builds");

    // Skewed flow trace; keys are offset by 1 because 0 marks empty slots.
    // Whole-trace replay through the bytecode backend: build the input PHVs
    // once, then push the whole trace through the pipeline.
    let trace = zipf_trace(5_000, 1.1, 100_000, 21);
    let packets: Vec<_> = trace
        .packets
        .iter()
        .map(|p| sw.make_packet(&[("key", p.key + 1)]).unwrap())
        .collect();
    let stats = sw.run_trace(&packets, 1);
    assert_eq!(stats.dropped, 0);
    println!(
        "replayed {} packets at {:.0} pkts/sec ({:?} backend)",
        stats.packets,
        stats.pkts_per_sec(),
        sw.backend()
    );

    // Report: all tracked keys with counts, from the key/count registers.
    let mut reported: Vec<(u64, u64)> = Vec::new();
    for inst in 0..sw.register_instances("prec_keys") {
        let cells = sw.register_cells("prec_keys", inst).unwrap();
        for cell in 0..cells {
            let key = sw.read_register("prec_keys", inst, cell).unwrap();
            if key != 0 {
                let count = sw.read_register("prec_counts", inst, cell).unwrap();
                reported.push((key - 1, count));
            }
        }
    }
    reported.sort_by_key(|&(_, count)| std::cmp::Reverse(count));

    let k = 20;
    let truth = top_k(&trace, k);
    let truth_keys: Vec<u64> = truth.iter().map(|&(key, _)| key).collect();
    let reported_topk: Vec<u64> = reported.iter().take(k).map(|&(key, _)| key).collect();
    let (p, r) = precision_recall(&reported_topk, &truth_keys);

    println!("top-{k} heavy hitters:  precision {:.2}  recall {:.2}", p, r);
    println!("\n   key   reported   true");
    let true_counts = trace.true_counts();
    for &(key, cnt) in reported.iter().take(10) {
        println!("{key:>6}  {cnt:>9}  {:>5}", true_counts.get(&key).copied().unwrap_or(0));
    }
}
