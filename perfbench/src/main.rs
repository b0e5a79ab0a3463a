//! One workload of the WattDB benchmark, in one process.
//!
//! ```text
//! wattdb-perfbench --workload <name> --seed <n> --trace <0|1> [--out <dir>]
//! wattdb-perfbench --workload <name> --seed <n> --setups <count>
//! ```
//!
//! The first form sets the workload up once and runs its fixed sim-time
//! horizon. Human-readable lines go first; the last line is one JSON report
//! that `run.py` turns into the benchmark result. `--trace 1` records spans
//! and writes them, and the counters at every slice boundary, to
//! `<out>/{spans,slices}-<workload>-<seed>.jsonl`.
//!
//! The second form only sets the workload up `<count>` times, dropping each
//! deployment, and prints the host time of each set-up as one JSON line.
//! `run.py` times such batches before and after the measured run, each in
//! a fresh process, and reports `setup_s` as the median over all of them.

mod host;
mod latency;
mod measure;
mod spans;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use measure::{metric, Metric, Run, RunResult};
use spans::Spans;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    setups: Option<u32>,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut trace = None;
    let mut setups = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--setups" => match value.parse::<u32>() {
                Ok(n) if n > 0 => setups = Some(n),
                _ => return Err("--setups takes a positive count".into()),
            },
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if setups.is_some() == trace.is_some() {
        return Err("give exactly one of --trace and --setups".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        trace: trace.unwrap_or(false),
        setups,
        out,
    })
}

/// Set the workload up (build + start_*), drop it, and return the host
/// time of the set-up.
fn time_setup(wl: Workload, seed: u64) -> f64 {
    let t = host::cpu_s();
    let mut db = wl.build(seed);
    wl.start(&mut db);
    let secs = host::cpu_s() - t;
    drop(db);
    secs
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wattdb-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wl = args.workload;

    if let Some(n) = args.setups {
        let times: Vec<String> = (0..n)
            .map(|_| format!("{:?}", time_setup(wl, args.seed)))
            .collect();
        println!("{{\"setups\": [{}]}}", times.join(", "));
        return ExitCode::SUCCESS;
    }

    let (mut run, mut db) = Run::setup(Spans::new(args.trace), wl, args.seed);
    wl.drive(&mut db, &mut run);
    let (mut result, spans) = run.finish(&db, wl);
    drop(db);

    if args.trace {
        if let Some(dir) = &args.out {
            for (kind, text) in [
                ("spans", spans.to_jsonl()),
                ("slices", std::mem::take(&mut result.slices_jsonl)),
            ] {
                let path = format!("{dir}/{kind}-{}-{}.jsonl", wl.name(), args.seed);
                if let Err(e) =
                    std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text))
                {
                    eprintln!("wattdb-perfbench: writing {path}: {e}");
                    return ExitCode::from(1);
                }
                println!("{kind} written to {path}");
            }
        }
        for (name, ms) in spans.self_ms() {
            result
                .layers
                .push(metric(format!("self_ms.{name}"), ms, "ms"));
        }
        result
            .layers
            .push(metric("trace.spans", spans.len() as f64, "count"));
        let wall_per_sim_s = result
            .e2e
            .iter()
            .find(|m| m.name == "wall_per_sim_s")
            .map_or(0.0, |m| m.value);
        result
            .layers
            .push(metric("trace.wall_per_sim_s", wall_per_sim_s, "s/s"));
    }

    println!(
        "{} seed {} trace {}",
        wl.name(),
        args.seed,
        u8::from(args.trace)
    );
    for m in &result.e2e {
        let note = match m.name.as_str() {
            "resp_p50_ms" | "resp_p99_ms" | "resp_mean_ms" => {
                format!("  (n = {} physical txns)", result.samples)
            }
            _ => String::new(),
        };
        println!("  {:<22} {:>16.6} {}{note}", m.name, m.value, m.unit);
    }
    if args.trace {
        for m in &result.layers {
            println!("  {:<38} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
    let f = result.fingerprint;
    println!(
        "  fingerprint: events {} commits {} timeline {:016x}",
        f.events, f.commits, f.timeline_fnv64
    );
    for c in &result.checks {
        println!(
            "  check {:<24} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }

    println!("{}", report(&args, &result));
    ExitCode::SUCCESS
}

fn metrics_json(list: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in list.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i > 0 { ", " } else { "" };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("write to String");
    }
    s.push('}');
    s
}

/// The machine-readable report: last line of standard output.
fn report(args: &Args, r: &RunResult) -> String {
    let f = r.fingerprint;
    let fingerprint = format!(
        "{{\"events\": {}, \"commits\": {}, \"timeline_fnv64\": \"{:016x}\"}}",
        f.events, f.commits, f.timeline_fnv64
    );
    let mut checks = String::from("[");
    for (i, c) in r.checks.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let detail = c.detail.replace('\\', "\\\\").replace('"', "\\\"");
        write!(
            checks,
            "{sep}{{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{detail}\"}}",
            c.name, c.ok
        )
        .expect("write to String");
    }
    checks.push(']');
    let nonfinite: Vec<&str> = r
        .e2e
        .iter()
        .chain(&r.layers)
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name.as_str())
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"attempted\": {}, \"failed\": {}, \
         \"nonfinite\": {:?}, \"e2e\": {}, \"layers\": {}, \"fingerprint\": {fingerprint}, \"checks\": {checks}}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        r.attempted,
        r.failed,
        nonfinite,
        metrics_json(&r.e2e),
        metrics_json(&r.layers),
    )
}
