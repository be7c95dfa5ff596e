//! The interprocedural pass: extract function definitions and call
//! sites from the token streams, resolve them into a workspace call
//! graph, and run four whole-program analyses over it:
//!
//! 1. **worst-case stack depth** — a per-function frame estimate from
//!    the MSP430 calling convention (see [`frame_bytes`]), propagated
//!    along the longest call chain from each embedded entry point in
//!    [`ENTRY_POINTS`]; the budget pass gates `statics + max stack`
//!    against the 2 KB SRAM map;
//! 2. **recursion / dynamic dispatch** in embedded-profile modules —
//!    cycles make the stack bound unsound, and `dyn` / `fn`-pointer
//!    calls cannot be resolved by this pass at all, so both are
//!    error-severity rules (`cg-recursion`, `cg-dynamic-dispatch`);
//! 3. **panic reachability** — an embedded entry point transitively
//!    reaching an unjustified panic site in host-side code is flagged
//!    with the full call chain (`cg-panic-reachable`);
//! 4. **reachability** — the `pub fn`s no root reaches ([`dead_pub`]),
//!    by name over the same fn defs and token streams, reported in the
//!    footprint's `dead_pub` section rather than as findings.
//!
//! ## Soundness assumptions (documented, deliberate)
//!
//! Resolution is name-based over tokens, not type-based: a method call
//! through a receiver other than bare `self` resolves to *every* bodied
//! workspace method of that name (conservative for stack, excluding the
//! caller itself to avoid false self-loops), qualified `Type::method`
//! and `Trait::method` calls resolve through an (owner, name) index
//! with trait-impl fan-out, and calls the pass cannot resolve — std
//! methods, macros' interiors, names on the [`UBIQUITOUS_METHODS`]
//! list — contribute **zero** stack. That unsoundness is exactly why
//! recursion and dynamic dispatch are hard errors in embedded modules:
//! within the profile the remaining approximations are benign
//! (closures and iterator adapters stay in their enclosing frame).

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::TokenKind;
use crate::rules::{certifies_panic_site, Finding};
use crate::source::SourceFile;
use crate::ParsedFile;

/// MSP430 word size: 16-bit registers, 2-byte stack slots.
pub const WORD_BYTES: usize = 2;
/// Per-call overhead: 2-byte return address + 2-byte saved frame
/// pointer (msp430-gcc keeps R4 as FP in debug-faithful builds).
pub const FRAME_OVERHEAD_BYTES: usize = 4;
/// msp430-gcc passes the first four word-sized arguments in R12–R15;
/// only the remainder spill to the caller's frame.
pub const REGISTER_ARGS: usize = 4;

/// One certified embedded entry point: the function the device calls
/// into, identified by (file, impl owner, name).
#[derive(Debug, Clone, Copy)]
pub struct EntryPoint {
    /// Workspace-relative defining file.
    pub file: &'static str,
    /// Owning impl/trait type.
    pub owner: &'static str,
    /// Function name.
    pub name: &'static str,
    /// Human-readable label for reports.
    pub label: &'static str,
}

/// The embedded entry points whose worst-case stack the analyzer
/// certifies. Order is report order.
pub const ENTRY_POINTS: &[EntryPoint] = &[
    EntryPoint {
        file: "crates/amulet-sim/src/apps/sift_app.rs",
        owner: "SiftApp",
        name: "handle",
        label: "SiftApp::handle",
    },
    EntryPoint {
        file: "crates/ml/src/backend.rs",
        owner: "DetectorModel",
        name: "score_f32",
        label: "DetectorModel::score_f32",
    },
    EntryPoint {
        file: "crates/ml/src/tsetlin.rs",
        owner: "TsetlinModel",
        name: "score_f32",
        label: "TsetlinModel::score_f32",
    },
    EntryPoint {
        file: "crates/sift/src/checkpoint.rs",
        owner: "DetectorCheckpoint",
        name: "encode_into",
        label: "DetectorCheckpoint::encode_into",
    },
    EntryPoint {
        file: "crates/sift/src/checkpoint.rs",
        owner: "DetectorCheckpoint",
        name: "decode",
        label: "DetectorCheckpoint::decode",
    },
    EntryPoint {
        file: "crates/wiot/src/survival.rs",
        owner: "SurvivalPolicy",
        name: "step",
        label: "SurvivalPolicy::step",
    },
];

/// Method names so common across std and the workspace that by-name
/// resolution of a non-`self` receiver would be meaningless fan-out
/// (and a false-cycle machine). Calls to them resolve to nothing and
/// contribute zero stack — a documented soundness assumption.
const UBIQUITOUS_METHODS: &[&str] = &[
    "as_mut", "as_ref", "clone", "cmp", "default", "drop", "eq", "fmt", "from", "get", "hash",
    "index", "insert", "into", "is_empty", "iter", "len", "ne", "next", "partial_cmp", "push",
    "read", "to_string", "write",
];

/// Keywords (and universal constructors) that can precede `(` without
/// being a workspace call.
const NOT_A_CALL: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "break", "continue", "as", "in", "move",
    "ref", "mut", "let", "else", "unsafe", "dyn", "impl", "where", "use", "pub", "struct",
    "enum", "trait", "type", "const", "static", "crate", "super", "fn", "Some", "Ok", "Err",
    "None", "self", "Self",
];

/// Panicking macros, mirroring the lexical pass (debug_assert! compiles
/// out of release firmware and is deliberately absent).
const PANIC_MACROS: &[&str] = &[
    "panic", "unreachable", "todo", "unimplemented", "assert", "assert_eq", "assert_ne",
];

/// One extracted function definition.
#[derive(Debug)]
struct FnDef {
    name: String,
    /// Impl/trait block owner (`None` for free functions).
    owner: Option<String>,
    /// For `impl Trait for Type` members: the trait's name.
    trait_impl: Option<String>,
    file: usize,
    line: u32,
    /// Parameter count, `self` included.
    params: usize,
    /// `let` bindings in the body (closures included: they share the
    /// enclosing frame on this target).
    lets: usize,
    has_body: bool,
    in_test: bool,
    /// Declared plain `pub` (not `pub(crate)` or another restriction).
    is_pub: bool,
    /// Declared in a `trait` block or an `impl Trait for` block: called
    /// implicitly, so a root of the reachability report.
    trait_item: bool,
}

impl FnDef {
    fn display(&self) -> String {
        match (&self.owner, &self.trait_impl) {
            (Some(o), Some(t)) => format!("<{o} as {t}>::{}", self.name),
            (Some(o), None) => format!("{o}::{}", self.name),
            (None, _) => self.name.clone(),
        }
    }
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CallKind {
    /// `name(...)` with no receiver or path.
    Free,
    /// `self.name(...)` on the bare receiver.
    SelfMethod,
    /// `expr.name(...)` on any other receiver.
    Method,
    /// `Qualifier::name(...)`.
    Qualified(String),
}

#[derive(Debug)]
struct CallSite {
    name: String,
    kind: CallKind,
}

/// A potentially-panicking expression (`.unwrap()`, `panic!`, …).
#[derive(Debug)]
struct PanicSite {
    file: usize,
    line: u32,
    what: String,
    in_fn: usize,
}

/// A `dyn` trait object or `fn`-pointer type in an embedded module.
#[derive(Debug)]
struct DynSite {
    file: usize,
    line: u32,
    what: &'static str,
}

/// Worst-case stack certificate for one entry point.
#[derive(Debug, Clone)]
pub struct EntryStack {
    /// Entry label from [`ENTRY_POINTS`].
    pub label: String,
    /// Defining file of the entry function.
    pub file: String,
    /// Definition line.
    pub line: u32,
    /// Bytes of stack consumed along the worst call chain, entry frame
    /// included.
    pub stack_bytes: usize,
    /// Frames on that chain.
    pub frames: usize,
    /// The chain itself, caller first.
    pub chain: Vec<String>,
}

/// The `stack` section of the analyzer's footprint document.
#[derive(Debug, Clone, Default)]
pub struct StackReport {
    /// One certificate per resolved entry point, in table order.
    pub entries: Vec<EntryStack>,
}

/// Everything the interprocedural pass produces.
#[derive(Debug)]
pub struct CallGraphResult {
    /// `cg-*` findings, before suppression.
    pub findings: Vec<Finding>,
    /// Worst-case stack certificates.
    pub stack: StackReport,
    /// `pub fn`s no root reaches, as sorted `file: Owner::name` lines.
    pub dead_pub: Vec<String>,
}

/// Extracted view of the whole workspace.
struct Graph {
    /// Workspace-relative path of each file index.
    paths: Vec<String>,
    fns: Vec<FnDef>,
    calls: Vec<Vec<CallSite>>,
    panics: Vec<PanicSite>,
    dyns: Vec<DynSite>,
    /// Per fn: every identifier its non-test body names (see
    /// [`names_a_fn`]), for the reachability report.
    uses: Vec<Vec<String>>,
    /// Per file: names used by non-test code outside any fn body
    /// (`const` initializers, `macro_rules!` bodies).
    item_uses: Vec<Vec<String>>,
    /// Per file: names used by its `#[cfg(test)]` code.
    test_uses: Vec<Vec<String>>,
}

/// Run the interprocedural pass over the parsed workspace; `roots` are
/// the files outside `crates/*/src` whose names keep library code alive
/// (see [`dead_pub`]).
pub fn analyze(files: &[ParsedFile], roots: &[SourceFile]) -> CallGraphResult {
    let graph = extract(files);
    let dead_pub = dead_pub(&graph, roots);
    let edges = resolve_edges(&graph);
    let sccs = tarjan(graph.fns.len(), &edges);
    let mut findings = Vec::new();
    findings.extend(dynamic_dispatch_findings(files, &graph));
    findings.extend(recursion_findings(files, &graph, &edges, &sccs));
    let (stack, entry_of) = stack_report(files, &graph, &edges, &sccs);
    findings.extend(panic_findings(files, &graph, &edges, &entry_of));
    CallGraphResult {
        findings,
        stack,
        dead_pub,
    }
}

/// Frame size estimate for one function under the msp430-gcc calling
/// convention: call overhead, spilled arguments past the four register
/// args, and one word per `let` binding.
fn frame_bytes(def: &FnDef) -> usize {
    FRAME_OVERHEAD_BYTES
        + WORD_BYTES * def.params.saturating_sub(REGISTER_ARGS)
        + WORD_BYTES * def.lets
}

// ---------------------------------------------------------------------
// Extraction: token stream -> defs, call sites, panic sites, dyn sites.
// ---------------------------------------------------------------------

struct OwnerCtx {
    name: String,
    trait_impl: Option<String>,
    /// A `trait` declaration block (not an impl).
    is_trait: bool,
    open_depth: i32,
}

fn ident_of(kind: &TokenKind) -> Option<&str> {
    match kind {
        TokenKind::Ident(s) => Some(s.as_str()),
        _ => None,
    }
}

fn extract(files: &[ParsedFile]) -> Graph {
    let mut graph = Graph {
        paths: files.iter().map(|pf| pf.file.rel_path.clone()).collect(),
        fns: Vec::new(),
        calls: Vec::new(),
        panics: Vec::new(),
        dyns: Vec::new(),
        uses: Vec::new(),
        item_uses: vec![Vec::new(); files.len()],
        test_uses: vec![Vec::new(); files.len()],
    };
    for (file_idx, pf) in files.iter().enumerate() {
        extract_file(file_idx, pf, &mut graph);
    }
    graph
}

#[allow(clippy::too_many_lines)]
fn extract_file(file_idx: usize, pf: &ParsedFile, graph: &mut Graph) {
    let sig: Vec<&crate::lexer::Token> =
        pf.file.tokens.iter().filter(|t| !t.is_trivia()).collect();
    let kind = |k: usize| sig.get(k).map(|t| &t.kind);
    let is_punct = |k: usize, c: char| matches!(kind(k), Some(TokenKind::Punct(p)) if *p == c);
    let embedded = pf.class.embedded;

    let mut depth: i32 = 0;
    let mut owners: Vec<OwnerCtx> = Vec::new();
    // (fn index, depth of its body's opening brace)
    let mut open_fns: Vec<(usize, i32)> = Vec::new();
    let mut p = 0usize;
    while p < sig.len() {
        let line = sig[p].line;
        match &sig[p].kind {
            TokenKind::Punct('{') => {
                depth += 1;
                p += 1;
            }
            TokenKind::Punct('}') => {
                depth -= 1;
                owners.retain(|o| o.open_depth <= depth);
                open_fns.retain(|&(_, d)| d <= depth);
                p += 1;
            }
            TokenKind::Ident(w) if w == "impl" && item_position(&sig, p) => {
                if let Some((owner, trait_impl, brace)) = parse_impl_header(&sig, p) {
                    depth += 1;
                    owners.push(OwnerCtx {
                        name: owner,
                        trait_impl,
                        is_trait: false,
                        open_depth: depth,
                    });
                    p = brace + 1;
                } else {
                    p += 1;
                }
            }
            TokenKind::Ident(w) if w == "trait" => {
                // `trait Name … {` — supertrait bounds carry no braces.
                let name = kind(p + 1).and_then(ident_of).map(str::to_string);
                let mut q = p + 2;
                while q < sig.len() && !is_punct(q, '{') && !is_punct(q, ';') {
                    q += 1;
                }
                if let (Some(name), true) = (name, is_punct(q, '{')) {
                    depth += 1;
                    owners.push(OwnerCtx {
                        name,
                        trait_impl: None,
                        is_trait: true,
                        open_depth: depth,
                    });
                    p = q + 1;
                } else {
                    p = q;
                }
            }
            TokenKind::Ident(w) if w == "fn" => {
                if is_punct(p + 1, '(') {
                    // Bare `fn(…)` is a function-pointer *type*.
                    if embedded && !pf.file.in_test(line) {
                        graph.dyns.push(DynSite {
                            file: file_idx,
                            line,
                            what: "fn-pointer type",
                        });
                    }
                    p += 1;
                    continue;
                }
                let Some(header) = parse_fn_header(&sig, p) else {
                    p += 1;
                    continue;
                };
                // The walk jumps over the header, so scan it here for
                // `dyn` trait objects and `fn`-pointer types in the
                // parameter list or return type.
                if embedded {
                    let hdr_end = header.body_open.unwrap_or(header.end);
                    for (k, tok) in sig.iter().enumerate().take(hdr_end.min(sig.len())).skip(p + 1) {
                        let TokenKind::Ident(w) = &tok.kind else {
                            continue;
                        };
                        if pf.file.in_test(tok.line) {
                            continue;
                        }
                        if w == "dyn" {
                            graph.dyns.push(DynSite {
                                file: file_idx,
                                line: tok.line,
                                what: "dyn trait object",
                            });
                        } else if w == "fn" && is_punct(k + 1, '(') {
                            graph.dyns.push(DynSite {
                                file: file_idx,
                                line: tok.line,
                                what: "fn-pointer type",
                            });
                        }
                    }
                }
                let owner = owners.last();
                graph.fns.push(FnDef {
                    name: header.name,
                    owner: owner.map(|o| o.name.clone()),
                    trait_impl: owner.and_then(|o| o.trait_impl.clone()),
                    file: file_idx,
                    line,
                    params: header.params,
                    lets: 0,
                    has_body: header.body_open.is_some(),
                    in_test: pf.file.in_test(line),
                    is_pub: declared_pub(&sig, p),
                    trait_item: owner.is_some_and(|o| o.is_trait || o.trait_impl.is_some()),
                });
                graph.calls.push(Vec::new());
                graph.uses.push(Vec::new());
                if let Some(open) = header.body_open {
                    depth += 1;
                    open_fns.push((graph.fns.len() - 1, depth));
                    p = open + 1;
                } else {
                    p = header.end + 1;
                }
            }
            TokenKind::Ident(w) if w == "dyn" => {
                if embedded && !pf.file.in_test(line) {
                    graph.dyns.push(DynSite {
                        file: file_idx,
                        line,
                        what: "dyn trait object",
                    });
                }
                p += 1;
            }
            TokenKind::Ident(w) if w == "use" => {
                // A `use` declaration names paths, it calls nothing.
                while p < sig.len() && !is_punct(p, ';') {
                    p += 1;
                }
                p += 1;
            }
            TokenKind::Ident(w) if w == "let" => {
                if let Some(&(f, _)) = open_fns.last() {
                    if let Some(def) = graph.fns.get_mut(f) {
                        def.lets += 1;
                    }
                }
                p += 1;
            }
            TokenKind::Ident(name) => {
                let cur_fn = open_fns.last().map(|&(f, _)| f);
                let in_test = pf.file.in_test(line);
                if names_a_fn(&sig, p) {
                    let uses = if in_test {
                        graph.test_uses.get_mut(file_idx)
                    } else if let Some(f) = cur_fn {
                        graph.uses.get_mut(f)
                    } else {
                        graph.item_uses.get_mut(file_idx)
                    };
                    if let Some(uses) = uses {
                        uses.push(name.clone());
                    }
                }
                let prev_dot = p > 0 && is_punct(p - 1, '.');
                if let Some(f) = cur_fn {
                    if !in_test {
                        if matches!(name.as_str(), "unwrap" | "expect")
                            && prev_dot
                            && is_punct(p + 1, '(')
                        {
                            graph.panics.push(PanicSite {
                                file: file_idx,
                                line,
                                what: format!(".{name}()"),
                                in_fn: f,
                            });
                        }
                        if PANIC_MACROS.contains(&name.as_str()) && is_punct(p + 1, '!') {
                            graph.panics.push(PanicSite {
                                file: file_idx,
                                line,
                                what: format!("{name}!"),
                                in_fn: f,
                            });
                        }
                    }
                    if is_punct(p + 1, '(')
                        && !NOT_A_CALL.contains(&name.as_str())
                        && !in_test
                    {
                        let qualified = p >= 2 && is_punct(p - 1, ':') && is_punct(p - 2, ':');
                        let call_kind = if qualified {
                            match kind(p.wrapping_sub(3)).and_then(ident_of) {
                                Some(q) => CallKind::Qualified(q.to_string()),
                                // `<T as Trait>::m(…)` and friends:
                                // unresolvable, skip.
                                None => {
                                    p += 1;
                                    continue;
                                }
                            }
                        } else if prev_dot {
                            let bare_self = p >= 2
                                && matches!(kind(p - 2).and_then(ident_of), Some("self"))
                                && !(p >= 3 && is_punct(p - 3, '.'));
                            if bare_self {
                                CallKind::SelfMethod
                            } else {
                                CallKind::Method
                            }
                        } else {
                            CallKind::Free
                        };
                        if let Some(calls) = graph.calls.get_mut(f) {
                            calls.push(CallSite {
                                name: name.clone(),
                                kind: call_kind,
                            });
                        }
                    }
                }
                p += 1;
            }
            _ => p += 1,
        }
    }
}

/// Whether the `fn` token at `p` is declared plain `pub`: qualifiers
/// (`const`, `async`, `unsafe`, `extern "C"`) are skipped, and a
/// restricted `pub(…)` ends in `)`, so it reads as not public.
fn declared_pub(sig: &[&crate::lexer::Token], p: usize) -> bool {
    let mut q = p;
    while q > 0 {
        q -= 1;
        match &sig[q].kind {
            TokenKind::Ident(w)
                if matches!(w.as_str(), "const" | "async" | "unsafe" | "extern") => {}
            TokenKind::Str => {}
            TokenKind::Ident(w) => return w == "pub",
            _ => return false,
        }
    }
    false
}

/// Whether the identifier at `p` may name a fn — called, passed as a
/// value (`.map(f)`, `Self::f`) or used inside a macro invocation. Only
/// two shapes are ruled out, both provably not fns: a field access
/// (`.name` with no call or turbofish after it) and a declaration
/// (`name:` of a field, parameter or binding, or `mod name`).
fn names_a_fn(sig: &[&crate::lexer::Token], p: usize) -> bool {
    let is_punct = |k: usize, c: char| matches!(sig.get(k).map(|t| &t.kind), Some(TokenKind::Punct(x)) if *x == c);
    let path_follows = is_punct(p + 1, ':') && is_punct(p + 2, ':');
    if p > 0 && is_punct(p - 1, '.') && !is_punct(p + 1, '(') && !path_follows {
        return false;
    }
    if is_punct(p + 1, ':') && !path_follows {
        return false;
    }
    !(p > 0 && matches!(&sig[p - 1].kind, TokenKind::Ident(w) if w == "mod"))
}

/// Is the `impl` at `p` an item (block) rather than an `impl Trait`
/// type position? Item `impl` follows a block/item boundary.
fn item_position(sig: &[&crate::lexer::Token], p: usize) -> bool {
    if p == 0 {
        return true;
    }
    match &sig[p - 1].kind {
        TokenKind::Punct('}' | ';' | '{' | ']') => true,
        TokenKind::Ident(w) => w == "unsafe",
        _ => false,
    }
}

/// Parse an item `impl` header from `p` (the `impl` token) to its body
/// brace: returns (owner type, implemented trait, index of `{`).
fn parse_impl_header(
    sig: &[&crate::lexer::Token],
    p: usize,
) -> Option<(String, Option<String>, usize)> {
    let mut q = p + 1;
    q = skip_generics(sig, q);
    // Collect the first path; if a `for` follows, that path was the
    // trait and the owner comes after.
    let first = path_tail_ident(sig, &mut q)?;
    let mut trait_impl = None;
    let mut owner = first;
    loop {
        match &sig.get(q)?.kind {
            TokenKind::Ident(w) if w == "for" => {
                q += 1;
                // Skip `&`, lifetimes, `mut` on the implementing type.
                while matches!(
                    sig.get(q)?.kind,
                    TokenKind::Punct('&') | TokenKind::Lifetime
                ) || matches!(&sig.get(q)?.kind, TokenKind::Ident(w) if w == "mut")
                {
                    q += 1;
                }
                trait_impl = Some(owner);
                owner = path_tail_ident(sig, &mut q)?;
            }
            TokenKind::Punct('{') => return Some((owner, trait_impl, q)),
            TokenKind::Punct(';') => return None,
            _ => q += 1,
        }
    }
}

/// Read a (possibly `::`-separated, possibly generic) type path at `q`,
/// returning its final segment identifier and leaving `q` after it.
fn path_tail_ident(sig: &[&crate::lexer::Token], q: &mut usize) -> Option<String> {
    let mut last = None;
    loop {
        match sig.get(*q).map(|t| &t.kind) {
            Some(TokenKind::Ident(w))
                if !matches!(w.as_str(), "for" | "where") =>
            {
                last = Some(w.clone());
                *q += 1;
                *q = skip_generics(sig, *q);
                // Continue through `::` path separators.
                if matches!(sig.get(*q).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                    && matches!(sig.get(*q + 1).map(|t| &t.kind), Some(TokenKind::Punct(':')))
                {
                    *q += 2;
                    continue;
                }
                return last;
            }
            _ => return last,
        }
    }
}

/// If `q` sits on `<`, skip the matched angle-bracket group (arrow
/// `->` inside bounds is treated as one unit, not a closing angle).
fn skip_generics(sig: &[&crate::lexer::Token], q: usize) -> usize {
    if !matches!(sig.get(q).map(|t| &t.kind), Some(TokenKind::Punct('<'))) {
        return q;
    }
    let mut depth = 0i32;
    let mut m = q;
    while m < sig.len() {
        match &sig[m].kind {
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('-')
                if matches!(sig.get(m + 1).map(|t| &t.kind), Some(TokenKind::Punct('>'))) =>
            {
                m += 1; // skip the arrow's `>`
            }
            TokenKind::Punct('>') => {
                depth -= 1;
                if depth == 0 {
                    return m + 1;
                }
            }
            _ => {}
        }
        m += 1;
    }
    m
}

struct FnHeader {
    name: String,
    params: usize,
    /// Index of the body's `{`, when the fn has one.
    body_open: Option<usize>,
    /// Index of the terminating token (`{` or `;`).
    end: usize,
}

/// Parse `fn name … ( params ) -> ret {` starting at the `fn` token.
fn parse_fn_header(sig: &[&crate::lexer::Token], p: usize) -> Option<FnHeader> {
    let name = ident_of(&sig.get(p + 1)?.kind)?.to_string();
    let mut q = skip_generics(sig, p + 2);
    if !matches!(sig.get(q).map(|t| &t.kind), Some(TokenKind::Punct('('))) {
        return None;
    }
    // Walk the parameter list, counting top-level commas.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    let mut angle = 0i32;
    let mut commas = 0usize;
    let mut any_param = false;
    let start = q;
    while q < sig.len() {
        match &sig[q].kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => {
                paren -= 1;
                if paren == 0 {
                    break;
                }
            }
            TokenKind::Punct('[' | '{') => bracket += 1,
            TokenKind::Punct(']' | '}') => bracket -= 1,
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('-')
                if matches!(sig.get(q + 1).map(|t| &t.kind), Some(TokenKind::Punct('>'))) =>
            {
                q += 1;
            }
            TokenKind::Punct('>') => angle = (angle - 1).max(0),
            TokenKind::Punct(',')
                if paren == 1 && bracket == 0 && angle == 0 =>
            {
                // A trailing comma right before `)` is not a parameter.
                if !matches!(sig.get(q + 1).map(|t| &t.kind), Some(TokenKind::Punct(')'))) {
                    commas += 1;
                }
            }
            _ => {
                if paren >= 1 && q > start {
                    any_param = true;
                }
            }
        }
        q += 1;
    }
    let params = if any_param { commas + 1 } else { 0 };
    // Scan past the return type / where clause to `{` or `;`.
    let mut paren = 0i32;
    let mut bracket = 0i32;
    q += 1;
    while q < sig.len() {
        match &sig[q].kind {
            TokenKind::Punct('(') => paren += 1,
            TokenKind::Punct(')') => paren -= 1,
            TokenKind::Punct('[') => bracket += 1,
            TokenKind::Punct(']') => bracket -= 1,
            TokenKind::Punct('{') if paren == 0 && bracket == 0 => {
                return Some(FnHeader {
                    name,
                    params,
                    body_open: Some(q),
                    end: q,
                });
            }
            TokenKind::Punct(';') if paren == 0 && bracket == 0 => {
                return Some(FnHeader {
                    name,
                    params,
                    body_open: None,
                    end: q,
                });
            }
            _ => {}
        }
        q += 1;
    }
    None
}

// ---------------------------------------------------------------------
// Resolution: call sites -> edges.
// ---------------------------------------------------------------------

/// Crate name of a `crates/<name>/…` workspace-relative path.
fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|r| r.split('/').next())
        .unwrap_or(path)
}

/// Whether `path` plausibly defines module `q`: the file stem matches
/// (`…/q.rs`), a directory on the path matches (`…/q/mod.rs`, or the
/// crate directory itself), or it is the lib root of crate `q`.
fn file_in_module(path: &str, q: &str) -> bool {
    let stem = path
        .rsplit('/')
        .next()
        .and_then(|f| f.strip_suffix(".rs"))
        .unwrap_or("");
    stem == q || path.contains(&format!("/{q}/")) || (crate_of(path) == q && path.ends_with("/lib.rs"))
}

fn resolve_edges(graph: &Graph) -> Vec<Vec<usize>> {
    let n = graph.fns.len();
    // Indexes over *non-test* defs only: test fns are invisible.
    let mut by_owner: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_trait_impl: BTreeMap<(&str, &str), Vec<usize>> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut trait_names: BTreeSet<&str> = BTreeSet::new();
    for (i, def) in graph.fns.iter().enumerate() {
        if def.in_test {
            continue;
        }
        by_name.entry(&def.name).or_default().push(i);
        match &def.owner {
            Some(o) => {
                by_owner.entry((o, &def.name)).or_default().push(i);
            }
            None => {
                if def.has_body {
                    free_by_name.entry(&def.name).or_default().push(i);
                }
            }
        }
        if let Some(t) = &def.trait_impl {
            trait_names.insert(t);
            if def.has_body {
                by_trait_impl.entry((t, &def.name)).or_default().push(i);
            }
        }
        // A body-less method can only be a trait signature, so its
        // owner is a trait.
        if !def.has_body && def.owner.is_some() {
            if let Some(o) = &def.owner {
                trait_names.insert(o);
            }
        }
    }

    let bodied = |ids: Option<&Vec<usize>>| -> Vec<usize> {
        ids.map(|v| {
            v.iter()
                .copied()
                .filter(|&i| graph.fns[i].has_body)
                .collect()
        })
        .unwrap_or_default()
    };
    // All bodied impls of trait `t` named `name`, plus the trait's own
    // default body — the full static-dispatch candidate set.
    let trait_dispatch = |t: &str, name: &str| -> Vec<usize> {
        let mut c = bodied(by_owner.get(&(t, name)));
        c.extend(bodied(by_trait_impl.get(&(t, name))));
        c
    };

    let mut edges: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for (caller, sites) in graph.calls.iter().enumerate() {
        let me = &graph.fns[caller];
        if me.in_test {
            continue;
        }
        for site in sites {
            let name = site.name.as_str();
            let targets: Vec<usize> = match &site.kind {
                CallKind::Qualified(q) => {
                    let q = if q == "Self" {
                        match &me.owner {
                            Some(o) => o.as_str(),
                            None => continue,
                        }
                    } else {
                        q.as_str()
                    };
                    let direct = bodied(by_owner.get(&(q, name)));
                    if !direct.is_empty() {
                        direct
                    } else if trait_names.contains(q) {
                        // A trait-qualified call dispatches to any
                        // impl; the caller's own def is excluded to
                        // avoid false self-loops through the enum
                        // dispatcher pattern.
                        trait_dispatch(q, name)
                            .into_iter()
                            .filter(|&t| t != caller)
                            .collect()
                    } else if q.starts_with(char::is_lowercase) {
                        // `module::free_fn(…)` — prefer free fns whose
                        // defining file *is* that module; a same-name
                        // free fn elsewhere in the workspace is not a
                        // candidate (it would fabricate recursion, e.g.
                        // `checkpoint::encoded_len` calling
                        // `ml::embedded::encoded_len`).
                        let all = free_by_name.get(name).cloned().unwrap_or_default();
                        let modular: Vec<usize> = all
                            .iter()
                            .copied()
                            .filter(|&i| {
                                if matches!(q, "crate" | "super" | "self") {
                                    crate_of(&graph.paths[graph.fns[i].file])
                                        == crate_of(&graph.paths[me.file])
                                } else {
                                    file_in_module(&graph.paths[graph.fns[i].file], q)
                                }
                            })
                            .collect();
                        if modular.is_empty() {
                            all
                        } else {
                            modular
                        }
                    } else {
                        // Unknown capitalized qualifier: a type defined
                        // outside the workspace walk (std, vendored).
                        Vec::new()
                    }
                }
                CallKind::SelfMethod => {
                    let Some(o) = &me.owner else { continue };
                    if trait_names.contains(o.as_str()) {
                        // Inside a trait default body: dispatch to any
                        // impl (or another default), not ourselves.
                        trait_dispatch(o, name)
                            .into_iter()
                            .filter(|&t| t != caller)
                            .collect()
                    } else {
                        let direct = bodied(by_owner.get(&(o.as_str(), name)));
                        if !direct.is_empty() {
                            direct
                        } else if let Some(t) = &me.trait_impl {
                            // Calling an inherited default method.
                            trait_dispatch(t, name)
                                .into_iter()
                                .filter(|&t| t != caller)
                                .collect()
                        } else {
                            Vec::new()
                        }
                    }
                }
                CallKind::Method => {
                    if UBIQUITOUS_METHODS.contains(&name) {
                        Vec::new()
                    } else {
                        bodied(by_name.get(name))
                            .into_iter()
                            .filter(|&t| graph.fns[t].owner.is_some() && t != caller)
                            .collect()
                    }
                }
                CallKind::Free => {
                    let same_file: Vec<usize> = free_by_name
                        .get(name)
                        .map(|v| {
                            v.iter()
                                .copied()
                                .filter(|&i| graph.fns[i].file == me.file)
                                .collect()
                        })
                        .unwrap_or_default();
                    if same_file.is_empty() {
                        free_by_name.get(name).cloned().unwrap_or_default()
                    } else {
                        same_file
                    }
                }
            };
            edges[caller].extend(targets);
        }
    }
    edges.into_iter().map(|s| s.into_iter().collect()).collect()
}

// ---------------------------------------------------------------------
// Tarjan SCC (iterative) and the analyses over the condensation.
// ---------------------------------------------------------------------

/// Strongly connected components in reverse topological order (every
/// component is emitted after all components it can reach).
fn tarjan(n: usize, edges: &[Vec<usize>]) -> Vec<Vec<usize>> {
    const UNSET: usize = usize::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut next = 0usize;
    // Explicit DFS: (node, edge cursor).
    let mut work: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != UNSET {
            continue;
        }
        work.push((start, 0));
        index[start] = next;
        low[start] = next;
        next += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut cursor)) = work.last_mut() {
            if let Some(&w) = edges[v].get(*cursor) {
                *cursor += 1;
                if index[w] == UNSET {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    work.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                work.pop();
                if let Some(&(parent, _)) = work.last() {
                    low[parent] = low[parent].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

fn dynamic_dispatch_findings(files: &[ParsedFile], graph: &Graph) -> Vec<Finding> {
    graph
        .dyns
        .iter()
        .map(|d| {
            Finding::new(
                "cg-dynamic-dispatch",
                &files[d.file].file.rel_path,
                d.line,
                format!(
                    "{} in an embedded-profile module: indirect calls are invisible to \
                     the call-graph pass, so the stack certificate would be unsound",
                    d.what
                ),
            )
        })
        .collect()
}

fn recursion_findings(
    files: &[ParsedFile],
    graph: &Graph,
    edges: &[Vec<usize>],
    sccs: &[Vec<usize>],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for comp in sccs {
        let cyclic = comp.len() > 1
            || comp
                .first()
                .is_some_and(|&v| edges[v].contains(&v));
        if !cyclic {
            continue;
        }
        let mut members: Vec<&usize> = comp.iter().collect();
        members.sort_by_key(|&&v| (graph.fns[v].file, graph.fns[v].line));
        let Some(&&anchor) = members
            .iter()
            .find(|&&&v| files[graph.fns[v].file].class.embedded)
        else {
            continue;
        };
        let chain: Vec<String> = members
            .iter()
            .map(|&&v| graph.fns[v].display())
            .collect();
        let def = &graph.fns[anchor];
        out.push(Finding::new(
            "cg-recursion",
            &files[def.file].file.rel_path,
            def.line,
            format!(
                "call-graph cycle through an embedded-profile function makes the \
                 worst-case stack bound unsound: {} \u{2192} {}",
                chain.join(" \u{2192} "),
                chain.first().map_or("?", |s| s.as_str()),
            ),
        ));
    }
    out
}

/// Longest-path stack certificates over the SCC condensation, plus the
/// per-function entry ownership map used by the panic walk: for every
/// function reachable from an entry point, the index (into
/// [`ENTRY_POINTS`] order), BFS parent, and distance.
#[allow(clippy::type_complexity)]
fn stack_report(
    files: &[ParsedFile],
    graph: &Graph,
    edges: &[Vec<usize>],
    sccs: &[Vec<usize>],
) -> (StackReport, Vec<Option<(usize, Option<usize>)>>) {
    let n = graph.fns.len();
    let mut comp_of = vec![0usize; n];
    for (c, comp) in sccs.iter().enumerate() {
        for &v in comp {
            comp_of[v] = c;
        }
    }
    // Condensation successors; `sccs` is already reverse-topological,
    // so a single in-order sweep computes longest paths bottom-up.
    let mut succs: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); sccs.len()];
    for (v, outs) in edges.iter().enumerate() {
        for &w in outs {
            if comp_of[v] != comp_of[w] {
                succs[comp_of[v]].insert(comp_of[w]);
            }
        }
    }
    let comp_frame = |c: usize| -> usize {
        sccs[c]
            .iter()
            .map(|&v| frame_bytes(&graph.fns[v]))
            .max()
            .unwrap_or(0)
    };
    let mut depth = vec![0usize; sccs.len()];
    let mut best_succ: Vec<Option<usize>> = vec![None; sccs.len()];
    for c in 0..sccs.len() {
        let mut best = 0usize;
        for &s in &succs[c] {
            if depth[s] > best {
                best = depth[s];
                best_succ[c] = Some(s);
            }
        }
        depth[c] = comp_frame(c) + best;
    }

    let mut entries = Vec::new();
    let mut entry_fns: Vec<(usize, usize)> = Vec::new(); // (entry idx, fn idx)
    for (e_idx, ep) in ENTRY_POINTS.iter().enumerate() {
        let Some(f) = graph.fns.iter().position(|d| {
            !d.in_test
                && d.has_body
                && d.name == ep.name
                && d.owner.as_deref() == Some(ep.owner)
                && files[d.file].file.rel_path == ep.file
        }) else {
            continue;
        };
        entry_fns.push((e_idx, f));
        let mut chain = Vec::new();
        let mut c = Some(comp_of[f]);
        while let Some(cc) = c {
            let rep = sccs[cc]
                .iter()
                .max_by_key(|&&v| frame_bytes(&graph.fns[v]))
                .copied();
            if let Some(rep) = rep {
                let mut name = graph.fns[rep].display();
                if sccs[cc].len() > 1 {
                    name.push_str(" (cycle)");
                }
                chain.push(name);
            }
            c = best_succ[cc];
        }
        let def = &graph.fns[f];
        entries.push(EntryStack {
            label: ep.label.to_string(),
            file: files[def.file].file.rel_path.clone(),
            line: def.line,
            stack_bytes: depth[comp_of[f]],
            frames: chain.len(),
            chain,
        });
    }

    // Multi-source BFS from the entry functions, entries-first order,
    // recording each reachable function's owning entry and BFS parent
    // so panic findings can print a shortest call chain.
    let mut reach: Vec<Option<(usize, Option<usize>)>> = vec![None; n];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &(e_idx, f) in &entry_fns {
        if reach[f].is_none() {
            reach[f] = Some((e_idx, None));
            queue.push_back(f);
        }
    }
    while let Some(v) = queue.pop_front() {
        let Some((e_idx, _)) = reach[v] else { continue };
        for &w in &edges[v] {
            if reach[w].is_none() {
                reach[w] = Some((e_idx, Some(v)));
                queue.push_back(w);
            }
        }
    }
    (StackReport { entries }, reach)
}

fn panic_findings(
    files: &[ParsedFile],
    graph: &Graph,
    _edges: &[Vec<usize>],
    reach: &[Option<(usize, Option<usize>)>],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for site in &graph.panics {
        let pf = &files[site.file];
        // Embedded files' own panic sites are the lexical pass's
        // jurisdiction (embedded-no-panic and the pinned profiles).
        if pf.class.embedded {
            continue;
        }
        let Some((e_idx, _)) = reach[site.in_fn] else {
            continue;
        };
        // An honored suppression of a panic-certifying lexical rule is
        // the soundness argument for this site; trust it.
        let trusted = pf.sups.iter().any(|s| {
            certifies_panic_site(&s.rule) && s.first_line <= site.line && site.line <= s.last_line
        });
        if trusted {
            continue;
        }
        let mut chain = Vec::new();
        let mut v = Some(site.in_fn);
        while let Some(f) = v {
            chain.push(graph.fns[f].display());
            v = reach[f].and_then(|(_, parent)| parent);
        }
        chain.reverse();
        let label = ENTRY_POINTS
            .get(e_idx)
            .map_or("<entry>", |e| e.label);
        out.push(Finding::new(
            "cg-panic-reachable",
            &pf.file.rel_path,
            site.line,
            format!(
                "`{}` is reachable from embedded entry {}: {} \u{2192} {}; return a \
                 Result or justify with lint:allow(cg-panic-reachable, …)",
                site.what,
                label,
                chain.join(" \u{2192} "),
                site.what,
            ),
        ));
    }
    out.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    out
}

// ---------------------------------------------------------------------
// Reachability: the `pub fn`s no root can reach.
// ---------------------------------------------------------------------

/// The crate whose items a root file's names do *not* keep alive: a
/// crate's own `crates/<name>/tests/` only test it.
fn own_crate_of_root(path: &str) -> Option<&str> {
    let name = crate_of(path);
    path.starts_with(&format!("crates/{name}/tests/"))
        .then_some(name)
}

/// Whether `path` is a binary target: every fn in it is a root.
fn is_bin(path: &str) -> bool {
    path.contains("/src/bin/") || path.ends_with("/main.rs")
}

/// Every `pub fn` that no root reaches, as sorted `file: Owner::name`
/// lines.
///
/// Reachability is by name and deliberately coarse, so it can only
/// over-approximate: any identifier a reached body names reaches every
/// fn of that name, whatever its owner, receiver or crate (see
/// [`names_a_fn`]). The roots are the bins, the names used by the
/// `roots` files (integration tests, examples, benches, the root
/// package, the benchmark package), the non-test item-level code of
/// every file, the embedded [`ENTRY_POINTS`] and every trait method. A
/// crate's own `#[cfg(test)]` code and its own `crates/<name>/tests/`
/// keep only *other* crates' fns alive.
fn dead_pub(graph: &Graph, roots: &[SourceFile]) -> Vec<String> {
    let crate_of_fn = |i: usize| crate_of(&graph.paths[graph.fns[i].file]);
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, def) in graph.fns.iter().enumerate() {
        if !def.in_test {
            by_name.entry(&def.name).or_default().push(i);
        }
    }
    let mut reached = vec![false; graph.fns.len()];
    let mut work: Vec<usize> = Vec::new();
    let reach = |i: usize, reached: &mut [bool], work: &mut Vec<usize>| {
        if !reached[i] {
            reached[i] = true;
            work.push(i);
        }
    };
    let reach_name =
        |name: &str, except: Option<&str>, reached: &mut [bool], work: &mut Vec<usize>| {
            for &i in by_name.get(name).into_iter().flatten() {
                if except != Some(crate_of_fn(i)) {
                    reach(i, reached, work);
                }
            }
        };

    for file in roots {
        let except = own_crate_of_root(&file.rel_path);
        for name in root_names(file) {
            reach_name(&name, except, &mut reached, &mut work);
        }
    }
    for (f, path) in graph.paths.iter().enumerate() {
        for name in &graph.item_uses[f] {
            reach_name(name, None, &mut reached, &mut work);
        }
        for name in &graph.test_uses[f] {
            reach_name(name, Some(crate_of(path)), &mut reached, &mut work);
        }
    }
    for (i, def) in graph.fns.iter().enumerate() {
        let entry = ENTRY_POINTS.iter().any(|ep| {
            ep.name == def.name
                && def.owner.as_deref() == Some(ep.owner)
                && graph.paths[def.file] == ep.file
        });
        if !def.in_test && (entry || def.trait_item || is_bin(&graph.paths[def.file])) {
            reach(i, &mut reached, &mut work);
        }
    }
    while let Some(i) = work.pop() {
        for name in &graph.uses[i] {
            reach_name(name, None, &mut reached, &mut work);
        }
    }

    let mut dead: Vec<String> = graph
        .fns
        .iter()
        .zip(&reached)
        .filter(|(def, &r)| def.is_pub && !def.in_test && !r)
        .map(|(def, _)| format!("{}: {}", graph.paths[def.file], def.display()))
        .collect();
    dead.sort();
    dead.dedup();
    dead
}

/// Every name a root file uses, read the same way as library bodies.
fn root_names(file: &SourceFile) -> Vec<String> {
    let sig: Vec<&crate::lexer::Token> = file.tokens.iter().filter(|t| !t.is_trivia()).collect();
    let mut names = Vec::new();
    let mut p = 0usize;
    while p < sig.len() {
        match &sig[p].kind {
            TokenKind::Ident(w) if w == "use" => {
                while p < sig.len() && !matches!(sig[p].kind, TokenKind::Punct(';')) {
                    p += 1;
                }
            }
            TokenKind::Ident(w) if names_a_fn(&sig, p) => names.push(w.clone()),
            _ => {}
        }
        p += 1;
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::classify;
    use crate::source::SourceFile;

    fn parsed(rel: &str, src: &str) -> ParsedFile {
        let file = SourceFile::parse(rel, src);
        let (sups, meta) = crate::suppress::collect(&file);
        ParsedFile {
            class: classify(rel),
            file,
            sups,
            meta,
        }
    }

    #[test]
    fn extracts_defs_params_and_lets() {
        let pf = parsed(
            "crates/wiot/src/x.rs",
            "impl Foo {\n  pub fn go(&mut self, a: u32, b: &[u8], c: Option<(u8, u8)>) -> u32 {\n    let x = 1;\n    let y = helper(a);\n    x + y\n  }\n}\nfn helper(a: u32) -> u32 { let z = a; z }\n",
        );
        let g = extract(&[pf]);
        assert_eq!(g.fns.len(), 2);
        assert_eq!(g.fns[0].name, "go");
        assert_eq!(g.fns[0].owner.as_deref(), Some("Foo"));
        assert_eq!(g.fns[0].params, 4, "self counts as a parameter");
        assert_eq!(g.fns[0].lets, 2);
        assert_eq!(g.fns[1].name, "helper");
        assert_eq!(g.fns[1].params, 1);
        assert_eq!(g.fns[1].lets, 1);
        // go -> helper resolves as a free call.
        let edges = resolve_edges(&g);
        assert_eq!(edges[0], vec![1]);
        assert!(edges[1].is_empty());
    }

    #[test]
    fn impl_for_headers_bind_owner_and_trait() {
        let pf = parsed(
            "crates/wiot/src/x.rs",
            "impl fmt::Display for Gauge {\n  fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result { Ok(()) }\n}\nimpl<T: Clone> Holder<T> {\n  fn hold(&self) {}\n}\n",
        );
        let g = extract(&[pf]);
        assert_eq!(g.fns[0].owner.as_deref(), Some("Gauge"));
        assert_eq!(g.fns[0].trait_impl.as_deref(), Some("Display"));
        assert_eq!(g.fns[1].owner.as_deref(), Some("Holder"));
        assert_eq!(g.fns[1].trait_impl, None);
    }

    #[test]
    fn trait_default_body_dispatches_to_impls_not_itself() {
        let src = "trait Scorer {\n  fn one(&self) -> u32;\n  fn many(&self) -> u32 { self.one() }\n}\nstruct A;\nimpl Scorer for A {\n  fn one(&self) -> u32 { 1 }\n}\n";
        let pf = parsed("crates/wiot/src/x.rs", src);
        let g = extract(&[pf]);
        let many = g.fns.iter().position(|d| d.name == "many").unwrap();
        let a_one = g
            .fns
            .iter()
            .position(|d| d.name == "one" && d.has_body)
            .unwrap();
        let edges = resolve_edges(&g);
        assert_eq!(edges[many], vec![a_one]);
        // No cycles anywhere.
        let sccs = tarjan(g.fns.len(), &edges);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn enum_dispatcher_pattern_is_not_a_false_cycle() {
        // The DetectorModel pattern: an enum's trait impl fans out via
        // Trait::method(inner) — the trait-qualified call must not
        // resolve back to the caller.
        let src = "trait B {\n  fn enc(&self, out: &mut [u8]) -> usize;\n}\nstruct Inner;\nimpl B for Inner {\n  fn enc(&self, out: &mut [u8]) -> usize { 0 }\n}\nenum Model { I(Inner) }\nimpl B for Model {\n  fn enc(&self, out: &mut [u8]) -> usize {\n    match self { Model::I(m) => B::enc(m, out) }\n  }\n}\n";
        let pf = parsed("crates/wiot/src/x.rs", src);
        let g = extract(&[pf]);
        let edges = resolve_edges(&g);
        let sccs = tarjan(g.fns.len(), &edges);
        assert!(
            sccs.iter().all(|c| c.len() == 1),
            "no cycle expected: {sccs:?}"
        );
        let model_enc = g
            .fns
            .iter()
            .position(|d| d.owner.as_deref() == Some("Model"))
            .unwrap();
        let inner_enc = g
            .fns
            .iter()
            .position(|d| d.owner.as_deref() == Some("Inner"))
            .unwrap();
        assert_eq!(edges[model_enc], vec![inner_enc]);
    }

    #[test]
    fn direct_and_mutual_recursion_in_embedded_files_is_flagged() {
        let direct = parsed(
            "crates/dsp/src/fixed.rs",
            "fn spin(n: u32) -> u32 { if n == 0 { 0 } else { spin(n - 1) } }\n",
        );
        let files = [direct];
        let g = extract(&files);
        let edges = resolve_edges(&g);
        let sccs = tarjan(g.fns.len(), &edges);
        let fs = recursion_findings(&files, &g, &edges, &sccs);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, "cg-recursion");
        assert!(fs[0].message.contains("spin"), "{}", fs[0].message);

        // The same cycle in host-side code is not a finding.
        let host = parsed(
            "crates/physio-sim/src/x.rs",
            "fn spin(n: u32) -> u32 { if n == 0 { 0 } else { spin(n - 1) } }\n",
        );
        let files = [host];
        let g = extract(&files);
        let edges = resolve_edges(&g);
        let sccs = tarjan(g.fns.len(), &edges);
        assert!(recursion_findings(&files, &g, &edges, &sccs).is_empty());
    }

    #[test]
    fn dyn_and_fn_pointer_types_fire_only_in_embedded_files() {
        let src = "fn take(cb: fn(u32) -> u32, d: &dyn std::fmt::Debug) {}\n";
        let emb = parsed("crates/ml/src/embedded.rs", src);
        let g = extract(std::slice::from_ref(&emb));
        let fs = dynamic_dispatch_findings(std::slice::from_ref(&emb), &g);
        assert_eq!(fs.len(), 2, "{fs:?}");
        assert!(fs.iter().all(|f| f.rule == "cg-dynamic-dispatch"));

        let host = parsed("crates/physio-sim/src/x.rs", src);
        let g = extract(std::slice::from_ref(&host));
        assert!(dynamic_dispatch_findings(std::slice::from_ref(&host), &g).is_empty());
    }

    #[test]
    fn stack_chain_sums_frames_along_the_deepest_path() {
        // survival.rs is an entry-point file: SurvivalPolicy::step is in
        // the ENTRY_POINTS table. step -> deep -> deeper, with a shallow
        // sibling that must not win.
        let src = "impl SurvivalPolicy {\n  pub fn step(&mut self, inputs: u32) -> u32 {\n    let a = self.shallow();\n    let b = deep(a);\n    a + b\n  }\n  fn shallow(&self) -> u32 { 1 }\n}\nfn deep(x: u32) -> u32 {\n  let a = x;\n  let b = x;\n  deeper(a + b)\n}\nfn deeper(x: u32) -> u32 {\n  let a = x;\n  a\n}\n";
        let pf = parsed("crates/wiot/src/survival.rs", src);
        let files = [pf];
        let g = extract(&files);
        let edges = resolve_edges(&g);
        let sccs = tarjan(g.fns.len(), &edges);
        let (report, _) = stack_report(&files, &g, &edges, &sccs);
        assert_eq!(report.entries.len(), 1);
        let e = &report.entries[0];
        assert_eq!(e.label, "SurvivalPolicy::step");
        // step: 4 + 2·2 lets = 8; deep: 4 + 2·2 = 8; deeper: 4 + 2 = 6.
        assert_eq!(e.stack_bytes, 22, "{e:?}");
        assert_eq!(e.frames, 3);
        assert_eq!(e.chain, vec!["SurvivalPolicy::step", "deep", "deeper"]);
    }

    #[test]
    fn panic_reachability_walks_across_files_and_honors_suppressions() {
        let entry = parsed(
            "crates/wiot/src/survival.rs",
            "impl SurvivalPolicy {\n  pub fn step(&mut self, inputs: u32) -> u32 { helper(inputs) }\n}\n",
        );
        let host = parsed(
            "crates/wiot/src/host.rs",
            "pub fn helper(x: u32) -> u32 { deeper(x) }\nfn deeper(x: u32) -> u32 { Some(x).unwrap() }\nfn unreached(x: u32) -> u32 { Some(x).unwrap() }\n",
        );
        let files = [entry, host];
        let g = extract(&files);
        let edges = resolve_edges(&g);
        let sccs = tarjan(g.fns.len(), &edges);
        let (_, reach) = stack_report(&files, &g, &edges, &sccs);
        let fs = panic_findings(&files, &g, &edges, &reach);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "cg-panic-reachable");
        assert_eq!(fs[0].file, "crates/wiot/src/host.rs");
        assert_eq!(fs[0].line, 2);
        assert!(
            fs[0].message.contains("SurvivalPolicy::step \u{2192} helper \u{2192} deeper"),
            "{}",
            fs[0].message
        );

        // A lib-no-panic suppression at the site certifies it.
        let host_ok = parsed(
            "crates/wiot/src/host.rs",
            "pub fn helper(x: u32) -> u32 { deeper(x) }\nfn deeper(x: u32) -> u32 { Some(x).unwrap() } // lint:allow(lib-no-panic, Some is always Some)\n",
        );
        let files = [
            parsed(
                "crates/wiot/src/survival.rs",
                "impl SurvivalPolicy {\n  pub fn step(&mut self, inputs: u32) -> u32 { helper(inputs) }\n}\n",
            ),
            host_ok,
        ];
        let g = extract(&files);
        let edges = resolve_edges(&g);
        let sccs = tarjan(g.fns.len(), &edges);
        let (_, reach) = stack_report(&files, &g, &edges, &sccs);
        assert!(panic_findings(&files, &g, &edges, &reach).is_empty());
    }

    #[test]
    fn test_regions_are_invisible_to_the_graph() {
        let pf = parsed(
            "crates/wiot/src/survival.rs",
            "impl SurvivalPolicy {\n  pub fn step(&mut self, inputs: u32) -> u32 { 0 }\n}\n#[cfg(test)]\nmod tests {\n  fn spin(n: u32) -> u32 { spin(n - 1) }\n  fn t() { x.unwrap(); }\n}\n",
        );
        let files = [pf];
        let g = extract(&files);
        let edges = resolve_edges(&g);
        let sccs = tarjan(g.fns.len(), &edges);
        assert!(recursion_findings(&files, &g, &edges, &sccs).is_empty());
        let (_, reach) = stack_report(&files, &g, &edges, &sccs);
        assert!(panic_findings(&files, &g, &edges, &reach).is_empty());
    }
}
