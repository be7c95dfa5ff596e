//! End-to-end exit-code contract of the `analyzer` binary: builds a
//! throwaway mini-workspace under the cargo tmp dir per case, points
//! `--root` at it, and checks the process exit status.

use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// Create `<tmp>/<name>/` holding each `(rel_path, contents)` pair,
/// return the root.
fn mini_root_files(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    for (rel_path, contents) in files {
        let file = root.join(rel_path);
        fs::create_dir_all(file.parent().expect("has parent")).expect("mkdir");
        fs::write(&file, contents).expect("write fixture");
    }
    root
}

/// Create `<tmp>/<name>/<rel_path>` holding `contents`, return the root.
fn mini_root(name: &str, rel_path: &str, contents: &str) -> PathBuf {
    mini_root_files(name, &[(rel_path, contents)])
}

fn run_analyzer_args(root: &PathBuf, extra: &[&str]) -> i32 {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_analyzer"));
    cmd.args(["--root", &root.display().to_string(), "--quiet"]);
    cmd.args(extra);
    cmd.status().expect("spawn analyzer").code().expect("exit code")
}

fn run_analyzer(root: &PathBuf, deny: bool) -> i32 {
    let mut extra = vec!["--no-budget"];
    if deny {
        extra.extend(["--deny", "warnings"]);
    }
    run_analyzer_args(root, &extra)
}

#[test]
fn violation_fixtures_fail_the_run() {
    let cases = [
        ("cli-embedded", "crates/dsp/src/fixed.rs", include_str!("fixtures/embedded_violations.rs")),
        ("cli-det", "crates/wiot/src/x.rs", include_str!("fixtures/determinism_violations.rs")),
        ("cli-meta", "crates/wiot/src/x.rs", include_str!("fixtures/meta_violations.rs")),
    ];
    for (name, rel, src) in cases {
        let root = mini_root(name, rel, src);
        assert_eq!(run_analyzer(&root, false), 1, "{name} should fail");
    }
}

#[test]
fn clean_fixture_passes() {
    let root = mini_root(
        "cli-clean",
        "crates/dsp/src/fixed.rs",
        include_str!("fixtures/embedded_clean.rs"),
    );
    assert_eq!(run_analyzer(&root, false), 0);
    assert_eq!(run_analyzer(&root, true), 0);
}

#[test]
fn deny_warnings_promotes_warn_findings() {
    // A lone unwrap in a lib crate is warn-level: passes by default,
    // fails under --deny warnings.
    let root = mini_root(
        "cli-warn",
        "crates/wiot/src/x.rs",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    assert_eq!(run_analyzer(&root, false), 0);
    assert_eq!(run_analyzer(&root, true), 1);
}

#[test]
fn missing_root_is_a_usage_error() {
    let bogus = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-no-such-dir");
    assert_eq!(run_analyzer(&bogus, false), 2);
}

// ---------------------------------------------------------------------
// Call-graph pass: mini-workspaces exercising each interprocedural rule
// end to end through the binary.
// ---------------------------------------------------------------------

#[test]
fn cg_recursion_in_embedded_file_fails_and_allows_suppress() {
    let src = "pub fn spin(n: u32) -> u32 {\n    if n == 0 { 0 } else { spin(n - 1) }\n}\n";
    let root = mini_root("cli-cg-rec", "crates/dsp/src/fixed.rs", src);
    assert_eq!(run_analyzer(&root, false), 1, "recursion must be an error");

    let allowed = "pub fn spin(n: u32) -> u32 { // lint:allow(cg-recursion, bounded by n which is <= 4 at every call site)\n    if n == 0 { 0 } else { spin(n - 1) }\n}\n";
    let root = mini_root("cli-cg-rec-ok", "crates/dsp/src/fixed.rs", allowed);
    assert_eq!(run_analyzer(&root, false), 0, "justified allow must pass");
}

#[test]
fn cg_dynamic_dispatch_in_embedded_file_fails() {
    let src = "pub fn run(d: &dyn core::fmt::Debug) {\n    let _ = d;\n}\n";
    let root = mini_root("cli-cg-dyn", "crates/ml/src/embedded.rs", src);
    assert_eq!(run_analyzer(&root, false), 1, "dyn in embedded must be an error");

    // The same signature host-side is fine.
    let root = mini_root("cli-cg-dyn-host", "crates/physio-sim/src/x.rs", src);
    assert_eq!(run_analyzer(&root, false), 0);
}

#[test]
fn cg_deep_chain_exceeding_stack_budget_fails_the_budget_pass() {
    // An entry-point impersonator whose callee hogs ~1.2 KB of frame:
    // 953 B worst-case statics + 1208 B stack blows the 2 KB SRAM cap.
    let mut hog = String::from("fn hog() -> u32 {\n");
    for i in 0..600 {
        hog.push_str(&format!("    let x{i} = 0u32;\n"));
    }
    hog.push_str("    x0\n}\n");
    let entry = format!(
        "pub struct SurvivalPolicy;\nimpl SurvivalPolicy {{\n    pub fn step(&mut self) -> u32 {{ hog() }}\n}}\n{hog}"
    );
    let root = mini_root("cli-cg-stack", "crates/wiot/src/survival.rs", &entry);
    assert_eq!(
        run_analyzer_args(&root, &[]),
        1,
        "statics + stack over SRAM must fail the budget pass"
    );

    // Shallow control: same entry point, trivial callee.
    let ok = "pub struct SurvivalPolicy;\nimpl SurvivalPolicy {\n    pub fn step(&mut self) -> u32 { tiny() }\n}\nfn tiny() -> u32 { 0 }\n";
    let root = mini_root("cli-cg-stack-ok", "crates/wiot/src/survival.rs", ok);
    assert_eq!(run_analyzer_args(&root, &[]), 0);
}

#[test]
fn cg_transitive_panic_reach_fails_until_the_site_is_certified() {
    let entry = "pub struct SurvivalPolicy;\nimpl SurvivalPolicy {\n    pub fn step(&mut self) -> u32 { util::poll() }\n}\n";
    let util = "pub fn poll() -> u32 {\n    source().unwrap()\n}\nfn source() -> Option<u32> { Some(1) }\n";
    let root = mini_root_files(
        "cli-cg-panic",
        &[("crates/wiot/src/survival.rs", entry), ("crates/wiot/src/util.rs", util)],
    );
    assert_eq!(
        run_analyzer(&root, false),
        1,
        "a host-side unwrap reachable from an embedded entry must be an error"
    );

    // Certifying the site (lib-no-panic allow covers panic freedom)
    // clears both the lexical warn and the call-graph error.
    let util_ok = "pub fn poll() -> u32 {\n    source().unwrap() // lint:allow(lib-no-panic, source() is Some by construction: seeded above)\n}\nfn source() -> Option<u32> { Some(1) }\n";
    let root = mini_root_files(
        "cli-cg-panic-ok",
        &[("crates/wiot/src/survival.rs", entry), ("crates/wiot/src/util.rs", util_ok)],
    );
    assert_eq!(run_analyzer(&root, true), 0, "certified site must clear the gate");
}

#[test]
fn json_report_schema_is_stable() {
    let root = mini_root(
        "cli-json",
        "crates/dsp/src/fixed.rs",
        include_str!("fixtures/embedded_clean.rs"),
    );
    let out = root.join("findings.json");
    let code = run_analyzer_args(
        &root,
        &["--no-budget", "--json", &out.display().to_string()],
    );
    assert_eq!(code, 0);
    let doc = fs::read_to_string(&out).expect("json report written");
    // Exact top-level key set, in order: downstream tooling greps this.
    let keys = [
        "\"files_scanned\"",
        "\"suppressions_honored\"",
        "\"elapsed_ms\"",
        "\"counts\"",
        "\"findings\"",
    ];
    let mut at = 0;
    for k in keys {
        let pos = doc[at..].find(k).unwrap_or_else(|| panic!("missing {k} in:\n{doc}"));
        at += pos;
    }
    assert!(doc.contains("\"error\": 0"));
    assert!(doc.contains("\"warn\": 0"));
}

// ---------------------------------------------------------------------
// Reachability report: the footprint's `dead_pub` section for
// mini-workspaces.
// ---------------------------------------------------------------------

/// Run the full analyzer (budget pass included, which writes the
/// footprint) over a mini-workspace and return its `dead_pub` list.
fn dead_pub(name: &str, files: &[(&str, &str)]) -> Vec<String> {
    let root = mini_root_files(name, files);
    run_analyzer_args(&root, &[]);
    let doc = fs::read_to_string(root.join("results/ANALYZER_footprint.json"))
        .expect("footprint written");
    let section = &doc[doc.find("\"dead_pub\"").expect("dead_pub section")..];
    let (open, close) = (
        section.find('[').expect("list"),
        section.find(']').expect("list end"),
    );
    section[open + 1..close]
        .split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

#[test]
fn dead_pub_lists_every_fn_of_a_dead_chain() {
    let lib = "pub fn a() -> u32 {\n    b()\n}\npub fn b() -> u32 {\n    1\n}\n";
    assert_eq!(
        dead_pub("cli-dead-chain", &[("crates/demo/src/lib.rs", lib)]),
        ["crates/demo/src/lib.rs: a", "crates/demo/src/lib.rs: b"]
    );
}

#[test]
fn dead_pub_counts_values_macro_arguments_and_method_calls_as_uses() {
    let lib = "pub struct Bag;\n\
               impl Bag {\n    pub fn len(&self) -> usize {\n        0\n    }\n}\n\
               pub fn run() -> String {\n    \
                   let xs: Vec<u32> = [1, 2].iter().copied().map(double).collect();\n    \
                   format!(\"{} {}\", label(xs[0]), Bag.len())\n}\n\
               pub fn double(x: u32) -> u32 {\n    x * 2\n}\n\
               pub fn label(x: u32) -> u32 {\n    x + 1\n}\n";
    let example = "fn main() {\n    println!(\"{}\", demo::run());\n}\n";
    let dead = dead_pub(
        "cli-dead-uses",
        &[
            ("crates/demo/src/lib.rs", lib),
            ("examples/run.rs", example),
        ],
    );
    assert!(dead.is_empty(), "{dead:?}");
}

#[test]
fn dead_pub_roots_trait_methods_and_never_lists_them() {
    let lib = "pub trait Shape {\n    fn area(&self) -> u32;\n    fn twice(&self) -> u32 {\n        doubled(self.area())\n    }\n}\n\
               pub struct Square;\n\
               impl Shape for Square {\n    fn area(&self) -> u32 {\n        side()\n    }\n}\n\
               pub fn side() -> u32 {\n    3\n}\n\
               pub fn doubled(x: u32) -> u32 {\n    x * 2\n}\n";
    let dead = dead_pub("cli-dead-traits", &[("crates/demo/src/lib.rs", lib)]);
    assert!(dead.is_empty(), "{dead:?}");
}

#[test]
fn dead_pub_ignores_a_crates_own_tests_but_not_other_crates_tests() {
    let lib = "pub fn own_tested() -> u32 {\n    1\n}\n\
               pub fn other_tested() -> u32 {\n    2\n}\n\
               #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert_eq!(super::own_tested(), 1);\n    }\n}\n";
    let own_itest = "#[test]\nfn t() {\n    assert_eq!(demo::own_tested(), 1);\n}\n";
    let other = "pub fn unrelated() {}\n\
                 #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        assert_eq!(demo::other_tested(), 2);\n    }\n}\n";
    let other_main = "fn main() {\n    other::unrelated();\n}\n";
    assert_eq!(
        dead_pub(
            "cli-dead-tests",
            &[
                ("crates/demo/src/lib.rs", lib),
                ("crates/demo/tests/it.rs", own_itest),
                ("crates/other/src/lib.rs", other),
                ("crates/other/src/main.rs", other_main),
            ],
        ),
        ["crates/demo/src/lib.rs: own_tested"]
    );
}

#[test]
fn dead_pub_keeps_fns_the_benchmark_or_an_example_names() {
    let lib = "pub fn for_bench() {}\npub fn for_example() {}\npub fn unused() {}\n";
    let bench = "pub fn workload() {\n    demo::for_bench();\n}\n";
    let example = "fn main() {\n    demo::for_example();\n}\n";
    assert_eq!(
        dead_pub(
            "cli-dead-roots",
            &[
                ("crates/demo/src/lib.rs", lib),
                ("perfbench/src/lib.rs", bench),
                ("examples/ex.rs", example),
            ],
        ),
        ["crates/demo/src/lib.rs: unused"]
    );
}
