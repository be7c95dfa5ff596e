//! CLI for the workspace static analyzer.
//!
//! ```text
//! cargo run -p analyzer --                 # warn-level report, exit 0/1
//! cargo run -p analyzer -- --deny warnings # CI gate: any finding fails
//! cargo run -p analyzer -- --json out.json # machine-readable findings
//! cargo run -p analyzer -- --rules         # print the rule registry
//! ```
//!
//! Exit codes: 0 clean, 1 findings at failing severity, 2 usage or I/O
//! error. The budget pass also rewrites `results/ANALYZER_footprint.json`
//! under the workspace root on every successful run.

use analyzer::rules::{Severity, RULES};
use analyzer::{analyze, find_workspace_root, report, Options};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    root: Option<PathBuf>,
    deny_warnings: bool,
    json_out: Option<PathBuf>,
    no_budget: bool,
    quiet: bool,
}

fn parse_args() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        root: None,
        deny_warnings: false,
        json_out: None,
        no_budget: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => match args.next().as_deref() {
                Some("warnings") => cli.deny_warnings = true,
                other => return Err(format!("--deny expects `warnings`, got {other:?}")),
            },
            "--root" => match args.next() {
                Some(p) => cli.root = Some(PathBuf::from(p)),
                None => return Err("--root expects a path".to_string()),
            },
            "--json" => match args.next() {
                Some(p) => cli.json_out = Some(PathBuf::from(p)),
                None => return Err("--json expects a path".to_string()),
            },
            "--no-budget" => cli.no_budget = true,
            "--quiet" | "-q" => cli.quiet = true,
            "--rules" => {
                for r in RULES {
                    println!("{:>5} {:<26} [{}] {}", r.severity.to_string(), r.id, r.pass, r.summary);
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!(
                    "usage: analyzer [--root PATH] [--deny warnings] [--json PATH] \
                     [--no-budget] [--quiet] [--rules]"
                );
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(cli))
}

fn run() -> Result<ExitCode, String> {
    let Some(cli) = parse_args()? else {
        return Ok(ExitCode::SUCCESS);
    };
    let root = match &cli.root {
        Some(r) => r.clone(),
        None => find_workspace_root()?,
    };
    let opts = Options {
        deny_warnings: cli.deny_warnings,
        run_budget: !cli.no_budget,
    };
    // The analyzer's own wall time goes to the ephemeral findings
    // report only, never into the committed footprint JSON.
    let started = std::time::Instant::now(); // lint:allow(det-no-wall-clock, self-timing of the CLI; no simulated state involved)
    let analysis = analyze(&root, &opts)?;
    let elapsed_ms = started.elapsed().as_millis();

    if !cli.quiet {
        for f in &analysis.findings {
            println!("{f}");
        }
    }
    if let Some(path) = &cli.json_out {
        let doc = report::findings_json(
            &analysis.findings,
            analysis.files_scanned,
            analysis.suppressions_honored,
            elapsed_ms,
        );
        std::fs::write(path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    if opts.run_budget {
        let config = sift::config::SiftConfig::default();
        let doc = analyzer::budget::footprint_json(
            &config,
            &analysis.footprints,
            &analysis.stack,
            &analysis.dead_pub,
        );
        let results = root.join("results");
        std::fs::create_dir_all(&results)
            .map_err(|e| format!("cannot create {}: {e}", results.display()))?;
        let out = results.join("ANALYZER_footprint.json");
        std::fs::write(&out, doc).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        if !cli.quiet {
            for fp in &analysis.footprints {
                println!(
                    "analyzer: {:<10} fram {:>6} B (sys {} + app {})  sram {:>4} B  \
                     model {} B  lifetime {:.0} d  {}",
                    fp.version.to_string(),
                    fp.total_fram_bytes(),
                    fp.system_fram_bytes,
                    fp.app_fram_bytes,
                    fp.total_sram_bytes(),
                    fp.model_bytes,
                    fp.lifetime_days,
                    if fp.within_budget { "OK" } else { "OVER BUDGET" }
                );
            }
            for e in &analysis.stack.entries {
                println!(
                    "analyzer: stack {:<32} {:>4} B over {} frames  ({} \u{2192} …)",
                    e.label,
                    e.stack_bytes,
                    e.frames,
                    e.chain.first().map_or("?", |s| s.as_str())
                );
            }
            println!("analyzer: wrote {}", out.display());
        }
    }

    let errors = analysis
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    let warnings = analysis.findings.len() - errors;
    let failures = analysis.failure_count(cli.deny_warnings);
    if !cli.quiet {
        println!(
            "analyzer: {} files, {} suppressions honored, {} errors, {} warnings{} in {} ms",
            analysis.files_scanned,
            analysis.suppressions_honored,
            errors,
            warnings,
            if cli.deny_warnings { " (denied)" } else { "" },
            elapsed_ms
        );
    }
    Ok(if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("analyzer: error: {msg}");
            ExitCode::from(2)
        }
    }
}
