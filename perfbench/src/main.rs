use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use p4all_perfbench::metrics::{benchmark_json, Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use p4all_perfbench::run::{run, Config, Outcome};
use p4all_perfbench::spans::escape;
use p4all_perfbench::workload::Workload;

const USAGE: &str =
    "usage: p4all-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       (workloads: phv-pressure, joint-xl, netcache-replay, netcache-sharded)
       p4all-perfbench --short          (every workload, small input, all checks)
       p4all-perfbench --benchmark-json (print BENCHMARK.json)";

/// Where traces and the native engine's scratch crates go, relative to
/// the directory the benchmark runs in.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        short: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--short" => a.short = true,
            "--benchmark-json" => {
                print!("{}", benchmark_json());
                return Ok(None);
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if !a.short && a.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(Some(a))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("p4all-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The native engine builds its cdylibs under the temp dir: keep them
    // inside the directory the benchmark runs in.
    let tmp = PathBuf::from(OUT_DIR).join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("p4all-perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let tmp = std::fs::canonicalize(&tmp).unwrap_or(tmp);
    // Set before any thread exists.
    std::env::set_var("TMPDIR", &tmp);

    let ok = if args.short {
        let mut ok = true;
        for w in Workload::ALL {
            let out = run(&Config {
                workload: w,
                seed: args.seed,
                seconds: 0.0,
                trace: args.trace,
                short: true,
            });
            ok &= report(&out, args.trace, Some(w));
        }
        ok
    } else {
        let w = args.workload.expect("checked in parse_args");
        let out = run(&Config {
            workload: w,
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            short: false,
        });
        if args.trace {
            write_trace(&out, w, args.seed);
        }
        report(&out, args.trace, None)
    };
    let _ = std::fs::remove_dir_all(&tmp);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Log the run to stderr and print its record and result lines to
/// stdout. Returns whether every check passed and every metric was
/// measured.
fn report(out: &Outcome, trace: bool, short: Option<Workload>) -> bool {
    let (defs, values): (&[Metric], _) = if trace {
        (PER_LAYER, &out.per_layer)
    } else {
        (END_TO_END, &out.end_to_end)
    };
    for f in &out.failures {
        eprintln!("FAILED {f}");
    }
    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    eprintln!(
        "jobs: {} attempted, {} failed, error rate {error_rate}",
        out.attempted, out.failed
    );
    let mut missing = Vec::new();
    let mut metrics = String::new();
    for m in defs {
        match values.get(m.name).filter(|v| v.is_finite()) {
            Some(v) => {
                eprintln!(
                    "  {:<28} {:>16} {:<9} {}",
                    m.name,
                    format!("{v:.6}"),
                    m.unit,
                    m.doc
                );
                if !metrics.is_empty() {
                    metrics.push_str(", ");
                }
                let _ = write!(
                    metrics,
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, v, m.unit
                );
            }
            None => missing.push(m.name),
        }
    }
    if !missing.is_empty() {
        eprintln!("not measured: {}", missing.join(", "));
    }
    let mut info = String::new();
    for (k, v) in out
        .info
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .chain([("error_rate", error_rate.to_string())])
    {
        if !info.is_empty() {
            info.push_str(", ");
        }
        let _ = write!(info, "\"{k}\": \"{}\"", escape(&v));
    }
    println!("{{\"info\": {{{info}}}}}");
    let correct = out.failed == 0 && out.failures.is_empty() && missing.is_empty();
    let workload = short.map_or_else(String::new, |w| format!("\"workload\": \"{}\", ", w.name()));
    println!(
        "{{{workload}\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted, out.failed
    );
    correct
}

fn write_trace(out: &Outcome, w: Workload, seed: u64) {
    let path = PathBuf::from(OUT_DIR).join(format!("trace-{}-seed{seed}.json", w.name()));
    let json = out.tracer.chrome_json(&out.info);
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!(
            "trace: {} ({} spans)",
            path.display(),
            out.tracer.spans().len()
        ),
        Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
    }
}
