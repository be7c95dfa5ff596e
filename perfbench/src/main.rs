//! Command-line entry point; see the crate docs and `README.md`.

use perfbench::e2e;
use perfbench::trace::{self, TraceOutcome};
use perfbench::workload::{Instance, Workload, DEFAULT_SEED};
use perfbench::{result_line, BenchResult, Reported};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload fleet_reference|fleet_xl_turbo|campaign_mixed \
                     [--seed N] [--seconds S] [--trace 0|1] [--spans PATH]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::FleetReference,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn print_checks(checks: &[(String, bool)]) {
    for (what, ok) in checks {
        println!("check {} {what}", if *ok { "ok  " } else { "FAIL" });
    }
}

fn run_untraced(args: &Args) -> BenchResult<()> {
    let inst = Instance::full(args.workload, args.seed);
    println!(
        "perfbench {} seed {} (untraced)",
        args.workload.name(),
        args.seed
    );
    println!("knobs {}", inst.knobs());
    let out = e2e::run(inst, args.seconds)?;
    let Some(sim) = out.simulated else {
        print_checks(&out.checks);
        return Err("no engine call succeeded".into());
    };
    let rate = out.device_s_per_wall_s();
    let setup = out.setup_median_s();
    let walls: Vec<String> = out
        .reps
        .iter()
        .map(|r| format!("{:.3}", r.wall_s))
        .collect();
    println!(
        "digest {} = {:#018x} over {} calls (walls s: {})",
        args.workload.digest_name(),
        out.digest.unwrap_or_default(),
        out.reps.len(),
        walls.join(" ")
    );
    let note = if args.workload == Workload::CampaignMixed {
        format!(
            " [timed call is run_campaign, which enrolls its own victim pool: \
             about {:.0}% of the call at this size, going by setup_s]",
            100.0 * setup * rate / out.device_s.max(f64::MIN_POSITIVE)
        )
    } else {
        String::new()
    };
    println!(
        "metric device_s_per_wall_s = {rate} device-s/s (median of {} timed calls after one \
         warm-up, {} device-s each){note}",
        out.reps.len().saturating_sub(1),
        out.device_s
    );
    let setups: Vec<String> = out.setup_s.iter().map(|s| format!("{s:.4}")).collect();
    println!(
        "metric setup_s = {setup} s (median of {} set-ups: {})",
        out.setup_s.len(),
        setups.join(" ")
    );
    println!("metric peak_rss_mib = {} MiB (VmHWM)", out.peak_rss_mib);
    println!(
        "metric failed_device_frac = {} ratio (base: {} devices attempted, {} failed)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted,
        out.failed
    );
    println!(
        "metric sim_cycles_per_window = {} cycles/window (base: {} windows resolved)",
        sim.cycles_per_window, sim.windows_resolved
    );
    println!(
        "metric false_alarm_permille = {} permille (base: {} genuine windows)",
        sim.false_alarm_permille, sim.genuine_windows
    );
    println!(
        "metric accuracy_permille = {} permille (base: {} scored windows)",
        sim.accuracy_permille, sim.scored_windows
    );
    println!(
        "metric window_recovery_permille = {} permille (base: {} devices)",
        sim.window_recovery_permille, out.instance.devices
    );
    if let Some(detect) = sim.detect_permille {
        println!(
            "metric detect_permille = {detect} permille (base: {} attacked windows)",
            sim.attacked_windows
        );
    }
    print_checks(&out.checks);
    println!(
        "{}",
        result_line(out.correct(), out.attempted, out.failed, &out.end_to_end())
    );
    Ok(())
}

fn run_traced(args: &Args) -> BenchResult<()> {
    let inst = Instance::sized(args.workload, args.seed, args.workload.traced_devices());
    println!(
        "perfbench {} seed {} (traced)",
        args.workload.name(),
        args.seed
    );
    println!("knobs {}", inst.knobs());
    let out: TraceOutcome = trace::run_traced(inst, args.seconds)?;
    if out.metrics.is_empty() {
        print_checks(&out.checks);
        return Err("no traced repetition completed".into());
    }
    println!(
        "traced {} devices x {} repetitions, {} spans in the last",
        out.instance.devices,
        out.reps,
        out.tracer.spans().len()
    );
    for metric in &out.metrics {
        match metric.base {
            Some((n, what)) => println!(
                "layer {} = {} {} (base: {n} {what})",
                metric.name, metric.value, metric.unit
            ),
            None => println!("layer {} = {} {}", metric.name, metric.value, metric.unit),
        }
    }
    if let Some(path) = &args.spans {
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.tracer.write_jsonl(&mut file)?;
        std::io::Write::flush(&mut file)?;
        println!("wrote spans to {path}");
    }
    print_checks(&out.checks);
    let correct = out.failed == 0 && out.checks.iter().all(|(_, ok)| *ok);
    let metrics: Vec<Reported> = out
        .metrics
        .iter()
        .map(|m| Reported {
            name: m.name,
            value: m.value,
            unit: m.unit,
        })
        .collect();
    println!(
        "{}",
        result_line(correct, out.attempted, out.failed, &metrics)
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
