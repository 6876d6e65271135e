//! The rule engine: file classification, `#[cfg(test)]` skipping, allow-pragmas
//! and the rule families — token rules plus the syntax-aware concurrency and
//! stats rules built on [`crate::parser`], [`crate::scope`], [`crate::dataflow`]
//! and [`crate::callgraph`].
//!
//! Rules operate on the significant (non-trivia) token stream produced by
//! [`crate::lexer`], so occurrences inside strings and comments never fire.  Code
//! under a `#[cfg(test)]` (or `#[test]`) attribute is exempt: the invariants
//! protect the measurement hot paths and report emitters, not the assertions that
//! test them.
//!
//! Per-file analysis ([`analyze_source`]) produces local findings and function
//! scopes; the workspace pass ([`finish`]) assembles the one-level call graph,
//! runs the global lock-order cycle check, applies pragma suppression and sorts.

use crate::callgraph;
use crate::dataflow;
use crate::lexer::{lex, Token, TokenKind};
use crate::parser;
use crate::scope::{self, FnScope};
use std::collections::BTreeMap;
use std::fmt;

/// The lint rules.  Each rule's kebab-case name is both the CLI/report identifier and
/// the key accepted by the allow pragma.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// `Instant::now` / `SystemTime::now` / `unix_time` in DES/simulation modules:
    /// virtual-time code consulting the wall clock silently breaks bit-exactness.
    NoWallclockInSim,
    /// `.unwrap()` / `.expect(` / `panic!` / `unreachable!` / `todo!` /
    /// `unimplemented!` / direct slice indexing in designated hot-path modules.
    NoPanicHotpath,
    /// Entropy-seeded RNG construction (`thread_rng`, `from_entropy`, seeding from
    /// time) anywhere outside `stubs/`: every draw must flow from the root seed.
    NoUnseededRng,
    /// `HashMap` / `HashSet` in report/golden/JSON-emitting modules: iteration order
    /// would leak nondeterminism into emitted artifacts; use `BTreeMap` or
    /// sort-before-emit adapters.
    NoUnorderedIterationInReports,
    /// A cycle in the global lock-order graph (including re-entrant acquisition):
    /// a deadlock candidate, reported with every acquisition site named.
    LockOrderCycle,
    /// A live lock guard spanning a blocking operation — channel send/recv,
    /// `JoinHandle::join`, `Condvar::wait`, `thread::sleep`, blocking socket I/O —
    /// directly or through a one-level call.
    GuardAcrossBlocking,
    /// A truncating or precision-losing `as` cast in a stats path (histogram,
    /// collector, report): percentile math must keep its full width.
    NoLossyCastInStats,
    /// Unchecked `+`/`*` over proven-integer operands in the histogram crate:
    /// bucket math must use saturating/checked forms.
    NoUncheckedArithInHistogram,
    /// An allow pragma whose justification is missing or empty.  Never suppressible.
    UnjustifiedAllow,
    /// An allow pragma naming a rule this lint does not define.  Never suppressible.
    UnknownAllowRule,
}

/// Every rule, in report order.
pub const ALL_RULES: [Rule; 10] = [
    Rule::NoWallclockInSim,
    Rule::NoPanicHotpath,
    Rule::NoUnseededRng,
    Rule::NoUnorderedIterationInReports,
    Rule::LockOrderCycle,
    Rule::GuardAcrossBlocking,
    Rule::NoLossyCastInStats,
    Rule::NoUncheckedArithInHistogram,
    Rule::UnjustifiedAllow,
    Rule::UnknownAllowRule,
];

impl Rule {
    /// The kebab-case rule name used in reports and allow pragmas.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Rule::NoWallclockInSim => "no-wallclock-in-sim",
            Rule::NoPanicHotpath => "no-panic-hotpath",
            Rule::NoUnseededRng => "no-unseeded-rng",
            Rule::NoUnorderedIterationInReports => "no-unordered-iteration-in-reports",
            Rule::LockOrderCycle => "lock-order-cycle",
            Rule::GuardAcrossBlocking => "guard-across-blocking",
            Rule::NoLossyCastInStats => "no-lossy-cast-in-stats",
            Rule::NoUncheckedArithInHistogram => "no-unchecked-arith-in-histogram",
            Rule::UnjustifiedAllow => "unjustified-allow",
            Rule::UnknownAllowRule => "unknown-allow-rule",
        }
    }

    /// Parses a rule name as written in an allow pragma.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.into_iter().find(|rule| rule.name() == name)
    }

    /// One-line scope description (used by `--explain` and the README table).
    #[must_use]
    pub fn scope_desc(self) -> &'static str {
        match self {
            Rule::NoWallclockInSim => "DES/simulation modules",
            Rule::NoPanicHotpath => "designated hot-path modules",
            Rule::NoUnseededRng => "everywhere outside `stubs/`",
            Rule::NoUnorderedIterationInReports => "report/JSON-emitting modules",
            Rule::LockOrderCycle | Rule::GuardAcrossBlocking => "workspace-wide (outside `stubs/`)",
            Rule::NoLossyCastInStats => "histogram + collector/report paths",
            Rule::NoUncheckedArithInHistogram => "`crates/histogram`",
            Rule::UnjustifiedAllow | Rule::UnknownAllowRule => "pragma hygiene, every file",
        }
    }

    /// One-line summary (used by `--explain` and the README table).
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            Rule::NoWallclockInSim => {
                "forbids `Instant::now`, `SystemTime::now`, `unix_time` in virtual-time code"
            }
            Rule::NoPanicHotpath => {
                "forbids `.unwrap()`, `.expect(`, `panic!`-family macros and direct indexing"
            }
            Rule::NoUnseededRng => {
                "forbids entropy-based RNG construction; every draw flows from the root seed"
            }
            Rule::NoUnorderedIterationInReports => {
                "forbids `HashMap`/`HashSet` where iteration order reaches emitted artifacts"
            }
            Rule::LockOrderCycle => {
                "forbids inconsistent lock acquisition order across the workspace call graph"
            }
            Rule::GuardAcrossBlocking => {
                "forbids holding a lock guard across channel, condvar, join, sleep or socket ops"
            }
            Rule::NoLossyCastInStats => {
                "forbids truncating/precision-losing `as` casts in percentile/stats paths"
            }
            Rule::NoUncheckedArithInHistogram => {
                "forbids unchecked `+`/`*` integer bucket math; requires saturating/checked forms"
            }
            Rule::UnjustifiedAllow => "an allow pragma must carry a `-- <reason>` justification",
            Rule::UnknownAllowRule => "an allow pragma must name rules this lint defines",
        }
    }

    /// The full `--explain` text: what fires, why it matters, how to fix it.
    #[must_use]
    pub fn explain(self) -> &'static str {
        match self {
            Rule::NoWallclockInSim => {
                "Fires on `Instant::now()`, `SystemTime::now()` and `unix_time` inside \
                 DES/simulation modules.\n\nWhy: virtual-time code that consults the wall clock \
                 silently breaks bit-exact replay — the DES golden tests depend on runs being \
                 a pure function of the seed.\n\nFix: thread the \
                 virtual clock (`RunClock`/sim time) through instead of sampling the host clock."
            }
            Rule::NoPanicHotpath => {
                "Fires on `.unwrap()`, `.expect(..)`, `panic!`/`unreachable!`/`todo!`/\
                 `unimplemented!` and direct slice indexing (`v[i]`) in designated hot-path \
                 modules (queue, pool, hedge, sim, worker, net, protocol, sync, the scenario \
                 hedge path).\n\nWhy: a panic mid-measurement tears down the run and poisons \
                 locks; the harness must degrade by propagating `HarnessError`, not abort.\n\n\
                 Fix: return `HarnessError`, use `get`/`get_mut`, or recover poisoned locks via \
                 `lock_recover`."
            }
            Rule::NoUnseededRng => {
                "Fires on entropy-based RNG construction — `thread_rng`, `from_entropy`, \
                 `OsRng`, `getrandom` — and on seeding calls whose arguments consult the wall \
                 clock, everywhere outside `stubs/`.\n\nWhy: sweep rows are only comparable when \
                 every random draw flows deterministically from the root seed.\n\nFix: derive \
                 sub-streams with `seeded_rng(root_seed, stream_id)`."
            }
            Rule::NoUnorderedIterationInReports => {
                "Fires on `HashMap`/`HashSet` in report/golden/JSON-emitting modules; when the \
                 binding is iterated, the finding names the iteration site that leaks hash order \
                 into the artifact.\n\nWhy: hash iteration order varies per process, so emitted \
                 reports would stop being byte-identical across runs.\n\nFix: use \
                 `BTreeMap`/`BTreeSet`, or sort before emitting."
            }
            Rule::LockOrderCycle => {
                "Fires when the global lock-order graph contains a cycle: some execution \
                 acquires lock A then B while another acquires B then A (a self-loop means a \
                 non-reentrant `Mutex` is re-acquired while already held).  Acquisition \
                 sequences are collected per function — `lock_recover(..)` and raw \
                 `.lock()`/`.read()`/`.write()` guards — and propagated one level along the \
                 workspace call graph.  Both acquisition sites are named in the finding.\n\n\
                 Why: an order inversion between the bounded queue, the buffer pool and the \
                 hedge engine is a latent deadlock that freezes the harness mid-run — the \
                 exact interference TailBench must not add to the system under test.\n\nFix: \
                 pick one global acquisition order, or narrow one guard (explicit `drop`, block \
                 scoping) so the overlap disappears."
            }
            Rule::GuardAcrossBlocking => {
                "Fires when a live lock guard spans a blocking operation: channel send/recv, \
                 `JoinHandle::join`, `Condvar::wait`, `thread::sleep`, blocking socket I/O — \
                 directly, or by calling (one level) into a function that blocks.  A condvar \
                 wait consuming its own guard (`state = wait_recover(&cv, state)`) is the \
                 sanctioned protocol and does not fire; nor does a blocking call invoked on \
                 the guard itself (`Mutex<File>`-style serialization, where blocking through \
                 the guard is the lock's purpose).  Findings on reactor-path files are \
                 tagged `[reactor]`: one blocked event loop stalls every connection it \
                 multiplexes.\n\nWhy: a guard held across a block serializes every other thread \
                 needing that lock behind an unbounded wait — a tail-latency amplifier and, \
                 under the future epoll reactor, a whole-loop stall.\n\nFix: narrow the guard \
                 (explicit `drop(guard)`, block scoping) before the blocking call, or move the \
                 blocking work outside the critical section."
            }
            Rule::NoLossyCastInStats => {
                "Fires on `as u8/u16/u32/i8/i16/i32/f32` casts in stats paths (the histogram \
                 crate and collector/report modules).  Wide targets (`u64`, `u128`, \
                 `usize`, `f64`) are allowed — the documented assumption is a 64-bit \
                 `usize`.\n\nWhy: a truncating cast in the histogram index or counter path \
                 silently corrupts every percentile above the truncation point.\n\nFix: use \
                 `TryFrom`, restructure the computation to stay in the wide type, or use \
                 integer helpers (`ilog2`-style) instead of float round-trips."
            }
            Rule::NoUncheckedArithInHistogram => {
                "Fires on `+`, `*`, `+=`, `*=` where both operands (or the assignment target) \
                 are proven integers, inside `crates/histogram`.  Float estimator math and \
                 unproven operands never fire.\n\nWhy: counter/bucket overflow wraps in release \
                 builds and corrupts tail percentiles without any error; saturating forms fail \
                 visibly at the extreme instead.\n\nFix: `saturating_add`/`saturating_mul` (or \
                 `checked_*` where an error path exists)."
            }
            Rule::UnjustifiedAllow => {
                "Fires on a `tailbench-lint: allow(..)` pragma with no `-- <reason>` \
                 justification.  Never suppressible.\n\nWhy: the pragma audit trail \
                 (`tailbench lint --pragmas`) is only useful if every waiver explains \
                 itself.\n\nFix: append `-- <reason>`, or fix the underlying finding."
            }
            Rule::UnknownAllowRule => {
                "Fires on a `tailbench-lint: allow(..)` pragma naming a rule this lint does \
                 not define (or malformed pragma syntax).  Never suppressible.\n\nWhy: a typo'd \
                 allow would otherwise silently suppress nothing while looking intentional.\n\n\
                 Fix: use a name from `tailbench lint --explain all`."
            }
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which rule sets apply to one file, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FileClasses {
    /// Simulation/DES module: the wallclock rule applies.
    pub sim: bool,
    /// Designated hot-path module: the panic rule applies.
    pub hot: bool,
    /// Report/JSON-emitting module: the unordered-iteration rule applies.
    pub report: bool,
    /// The unseeded-RNG rule applies (everywhere except the offline dependency shims
    /// under `stubs/`, which legitimately implement entropy entry points).
    pub rng: bool,
    /// The concurrency rules (lock order, guard-across-blocking) apply — everywhere
    /// except `stubs/`, which legitimately implement the blocking primitives.
    pub sync: bool,
    /// Stats path: the lossy-cast rule applies.
    pub stats: bool,
    /// The histogram crate: the unchecked-arith rule applies.
    pub histogram: bool,
    /// Reactor path (the socket layer today, the epoll event loop tomorrow):
    /// guard-across-blocking findings are tagged, since a blocked loop stalls every
    /// connection it multiplexes.
    pub reactor: bool,
}

/// Hot-path modules: panics here tear down a measurement mid-run.
const HOT_FILES: [&str; 9] = [
    "crates/core/src/protocol.rs",
    "crates/core/src/queue.rs",
    "crates/core/src/hedge.rs",
    "crates/core/src/sim.rs",
    "crates/core/src/worker.rs",
    "crates/core/src/pool.rs",
    "crates/core/src/net.rs",
    "crates/core/src/sync.rs",
    "crates/scenario/src/lib.rs",
];

/// Report/golden/JSON-emitting modules: unordered iteration here would leak host
/// hash-seed nondeterminism into emitted artifacts.
const REPORT_FILES: [&str; 4] = [
    "crates/core/src/collector.rs",
    "crates/core/src/report.rs",
    "crates/experiment/src/lib.rs",
    "crates/experiment/src/output.rs",
];

/// Classifies a workspace-relative path (forward slashes) into its rule sets.
#[must_use]
pub fn classify(rel_path: &str) -> FileClasses {
    let path = rel_path.replace('\\', "/");
    let path = path.trim_start_matches("./");
    let histogram = path.starts_with("crates/histogram/src/");
    FileClasses {
        sim: path == "crates/core/src/sim.rs"
            || path.starts_with("crates/simarch/src/")
            || path.starts_with("crates/queueing/src/")
            || path == "crates/scenario/src/phase.rs",
        hot: HOT_FILES.contains(&path),
        report: REPORT_FILES.contains(&path),
        rng: !path.starts_with("stubs/"),
        sync: !path.starts_with("stubs/"),
        stats: histogram || REPORT_FILES.contains(&path),
        histogram,
        reactor: path == "crates/core/src/net.rs" || path.contains("/reactor"),
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column (byte offset within the line).
    pub col: usize,
    /// Human-readable explanation, naming the offending construct.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.path,
            self.line,
            self.col,
            self.rule.name(),
            self.message
        )
    }
}

/// A parsed allow pragma: the marker followed by `allow(<rules>) -- <reason>`.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rules the pragma names.
    pub rules: Vec<Rule>,
    /// The justification after `--` (empty means non-suppressing).
    pub reason: String,
    /// The line the pragma comment itself sits on.
    pub line: usize,
    /// The line of code the pragma covers (its own line for trailing comments, the
    /// next code line for standalone comment lines).
    pub covers: usize,
}

/// The marker that introduces a pragma inside a comment.
const PRAGMA_MARKER: &str = "tailbench-lint:";

/// The per-file analysis product: local findings (pre-suppression), the file's
/// pragmas, and the non-test function scopes feeding the workspace pass.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Workspace-relative path.
    pub path: String,
    /// Local findings, before pragma suppression.
    pub findings: Vec<Finding>,
    /// Allow pragmas found in the file.
    pub pragmas: Vec<Pragma>,
    /// Non-test function scopes (empty when the concurrency rules don't apply).
    pub fn_scopes: Vec<FnScope>,
}

/// Lints one file's source, returning its findings sorted by line.  This is the
/// single-file convenience over [`analyze_source`] + [`finish`] — the workspace
/// pass (lock-order cycles) runs over just this file.
///
/// `rel_path` both labels the findings and selects the applicable rule sets via
/// [`classify`]; callers with out-of-tree sources (fixtures) can pass any
/// representative path.
#[must_use]
pub fn lint_source(rel_path: &str, source: &str) -> Vec<Finding> {
    finish(vec![analyze_source(rel_path, source)]).0
}

/// Per-file pass: token rules, syntax rules, pragma collection, scope analysis.
#[must_use]
pub fn analyze_source(rel_path: &str, source: &str) -> FileAnalysis {
    let classes = classify(rel_path);
    let tokens = lex(source);
    let line_starts = scope::line_starts(source);
    let sig = parser::significant(&tokens);
    let items = parser::parse(source, &sig);
    let skip = parser::test_mask(sig.len(), &items);

    let mut findings = Vec::new();
    let pragmas = collect_pragmas(source, &tokens, &line_starts, &mut findings, rel_path);

    scan_rules(
        rel_path,
        source,
        &sig,
        &skip,
        classes,
        &line_starts,
        &mut findings,
    );

    // Stats rules (syntax layer).
    if classes.stats {
        for cast in dataflow::narrow_casts(source, &sig) {
            if skip.get(cast.at).copied().unwrap_or(false) {
                continue;
            }
            let (line, col) = site_at(&sig, cast.at, &line_starts);
            findings.push(Finding {
                rule: Rule::NoLossyCastInStats,
                path: rel_path.to_string(),
                line,
                col,
                message: format!(
                    "`as {t}` in a stats path may truncate or lose precision; use \
                     `{t}::try_from(..)` or keep the wide type",
                    t = cast.target
                ),
            });
        }
    }
    if classes.histogram {
        for op in dataflow::unchecked_int_arith(source, &sig, &items) {
            if skip.get(op.at).copied().unwrap_or(false) {
                continue;
            }
            let (line, col) = site_at(&sig, op.at, &line_starts);
            let fix = if op.op.contains('*') {
                "saturating_mul"
            } else {
                "saturating_add"
            };
            findings.push(Finding {
                rule: Rule::NoUncheckedArithInHistogram,
                path: rel_path.to_string(),
                line,
                col,
                message: format!(
                    "unchecked `{}` on integer bucket math; use `{fix}` (or a `checked_` form) \
                     so overflow cannot corrupt percentiles",
                    op.op
                ),
            });
        }
    }

    // Scope analysis for the concurrency rules (non-test functions only).
    let fn_scopes = if classes.sync {
        let mut fns = scope::analyze_functions(source, &sig, &items, &line_starts);
        fns.retain(|f| !skip.get(f.body.0).copied().unwrap_or(false));
        fns
    } else {
        Vec::new()
    };

    // Direct guard-across-blocking (intra-function).
    if classes.sync {
        for f in &fn_scopes {
            for b in &f.blocking {
                for &gi in &b.guards_live {
                    let g = &f.guards[gi];
                    let tag = if classes.reactor { "[reactor] " } else { "" };
                    findings.push(Finding {
                        rule: Rule::GuardAcrossBlocking,
                        path: rel_path.to_string(),
                        line: b.site.line,
                        col: b.site.col,
                        message: format!(
                            "{tag}lock guard `{}` (acquired at line {}) held across {}; \
                             drop or scope the guard before blocking",
                            g.lock, g.site.line, b.what
                        ),
                    });
                }
            }
        }
    }

    FileAnalysis {
        path: rel_path.to_string(),
        findings,
        pragmas,
        fn_scopes,
    }
}

/// Workspace pass: assembles the call graph over every file's scopes, adds the
/// global findings (lock-order cycles, guard-held calls into blocking functions),
/// applies pragma suppression and returns `(findings, pragmas)` sorted.
#[must_use]
pub fn finish(files: Vec<FileAnalysis>) -> (Vec<Finding>, Vec<(String, Pragma)>) {
    let mut findings: Vec<Finding> = files.iter().flat_map(|f| f.findings.clone()).collect();

    let scoped: Vec<(String, Vec<FnScope>)> = files
        .iter()
        .map(|f| (f.path.clone(), f.fn_scopes.clone()))
        .collect();
    let graph = callgraph::analyze(&scoped);

    for cycle in &graph.cycles {
        findings.push(cycle_finding(cycle));
    }
    for bc in &graph.blocked_calls {
        let tag = if classify(&bc.path).reactor {
            "[reactor] "
        } else {
            ""
        };
        findings.push(Finding {
            rule: Rule::GuardAcrossBlocking,
            path: bc.path.clone(),
            line: bc.site.line,
            col: bc.site.col,
            message: format!(
                "{tag}call to `{}` (which blocks on {}) while holding lock guard `{}` \
                 acquired at line {}; drop or scope the guard first",
                bc.callee, bc.what, bc.lock, bc.lock_site.line
            ),
        });
    }

    // Suppression: a finding is dropped when a *justified* pragma in its file
    // covering its line names its rule.  Pragma hygiene findings are never
    // suppressible.
    let pragmas_by_path: BTreeMap<&str, &[Pragma]> = files
        .iter()
        .map(|f| (f.path.as_str(), f.pragmas.as_slice()))
        .collect();
    findings.retain(|finding| {
        if matches!(
            finding.rule,
            Rule::UnjustifiedAllow | Rule::UnknownAllowRule
        ) {
            return true;
        }
        !pragmas_by_path
            .get(finding.path.as_str())
            .into_iter()
            .flat_map(|p| p.iter())
            .any(|p| {
                p.covers == finding.line && !p.reason.is_empty() && p.rules.contains(&finding.rule)
            })
    });

    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    findings.dedup();

    let mut pragmas: Vec<(String, Pragma)> = files
        .into_iter()
        .flat_map(|f| {
            let path = f.path;
            f.pragmas.into_iter().map(move |p| (path.clone(), p))
        })
        .collect();
    pragmas.sort_by(|a, b| (a.0.as_str(), a.1.line).cmp(&(b.0.as_str(), b.1.line)));

    (findings, pragmas)
}

/// Formats a lock-order cycle as one finding naming every acquisition site.
fn cycle_finding(cycle: &callgraph::Cycle) -> Finding {
    let first = &cycle.edges[0];
    if cycle.edges.len() == 1 && first.held == first.acquired {
        return Finding {
            rule: Rule::LockOrderCycle,
            path: first.acquired_path.clone(),
            line: first.acquired_site.line,
            col: first.acquired_site.col,
            message: format!(
                "lock `{}` re-acquired while already held: first acquired at {}:{}:{}, \
                 re-acquired at {}:{}:{}{} — `std::sync::Mutex` is not reentrant",
                display_lock(&first.held),
                first.held_path,
                first.held_site.line,
                first.held_site.col,
                first.acquired_path,
                first.acquired_site.line,
                first.acquired_site.col,
                via_suffix(first),
            ),
        };
    }
    let mut parts = Vec::new();
    for e in &cycle.edges {
        parts.push(format!(
            "`{}` (acquired at {}:{}:{}) is held while acquiring `{}` (at {}:{}:{}){}",
            display_lock(&e.held),
            e.held_path,
            e.held_site.line,
            e.held_site.col,
            display_lock(&e.acquired),
            e.acquired_path,
            e.acquired_site.line,
            e.acquired_site.col,
            via_suffix(e),
        ));
    }
    Finding {
        rule: Rule::LockOrderCycle,
        path: first.acquired_path.clone(),
        line: first.acquired_site.line,
        col: first.acquired_site.col,
        message: format!(
            "lock-order cycle ({} locks): {} — acquisition order must be globally consistent",
            cycle.edges.len(),
            parts.join("; "),
        ),
    }
}

fn via_suffix(e: &callgraph::Edge) -> String {
    e.via
        .as_deref()
        .map(|v| format!(" via {v}"))
        .unwrap_or_default()
}

/// Strips the crate qualifier from a lock identity for display.
fn display_lock(qualified: &str) -> &str {
    qualified.split_once(':').map_or(qualified, |(_, l)| l)
}

/// 1-based (line, col) of the significant token at `i`.
fn site_at(sig: &[Token], i: usize, line_starts: &[usize]) -> (usize, usize) {
    let offset = sig.get(i).map_or(0, |t| t.start);
    line_col(offset, line_starts)
}

/// 1-based (line, col) of a byte offset.
fn line_col(offset: usize, line_starts: &[usize]) -> (usize, usize) {
    let line = match line_starts.binary_search(&offset) {
        Ok(i) => i,
        Err(i) => i.saturating_sub(1),
    };
    (
        line + 1,
        offset - line_starts.get(line).copied().unwrap_or(0) + 1,
    )
}

/// Extracts allow pragmas from comment tokens, emitting hygiene findings for empty
/// justifications and unknown rule names.
fn collect_pragmas(
    source: &str,
    tokens: &[Token],
    line_starts: &[usize],
    findings: &mut Vec<Finding>,
    rel_path: &str,
) -> Vec<Pragma> {
    let mut pragmas = Vec::new();
    for (index, token) in tokens.iter().enumerate() {
        if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let text = &source[token.start..token.end];
        // Doc comments *document* pragmas (rule tables, usage examples); only a
        // plain comment enacts one.
        if ["//!", "///", "/*!", "/**"]
            .iter()
            .any(|doc| text.starts_with(doc))
        {
            continue;
        }
        let Some(marker_at) = text.find(PRAGMA_MARKER) else {
            continue;
        };
        let (line, col) = line_col(token.start, line_starts);
        let rest = text[marker_at + PRAGMA_MARKER.len()..].trim_start();
        let Some((rule_list, reason)) = parse_allow(rest) else {
            findings.push(Finding {
                rule: Rule::UnknownAllowRule,
                path: rel_path.to_string(),
                line,
                col,
                message: format!(
                    "malformed pragma: expected `{PRAGMA_MARKER} allow(<rules>) -- <reason>`"
                ),
            });
            continue;
        };
        let mut rules = Vec::new();
        for name in rule_list
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
        {
            match Rule::from_name(name) {
                Some(rule) => rules.push(rule),
                None => findings.push(Finding {
                    rule: Rule::UnknownAllowRule,
                    path: rel_path.to_string(),
                    line,
                    col,
                    message: format!("allow pragma names unknown rule `{name}`"),
                }),
            }
        }
        if reason.is_empty() {
            findings.push(Finding {
                rule: Rule::UnjustifiedAllow,
                path: rel_path.to_string(),
                line,
                col,
                message: "allow pragma without a justification (`-- <reason>` required)"
                    .to_string(),
            });
        }
        let covers = pragma_covers(source, tokens, index, line, line_starts);
        pragmas.push(Pragma {
            rules,
            reason: reason.to_string(),
            line,
            covers,
        });
    }
    pragmas
}

/// Parses `allow(<rules>) -- <reason>`, returning the rule list and trimmed reason
/// (empty when the `--` separator or the reason itself is missing).
fn parse_allow(rest: &str) -> Option<(&str, &str)> {
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rule_list = &rest[..close];
    let after = rest[close + 1..].trim_start();
    let reason = after
        .strip_prefix("--")
        .map_or("", |r| r.trim().trim_end_matches("*/").trim());
    Some((rule_list, reason))
}

/// The line a pragma covers: its own line when code precedes it on that line
/// (trailing comment), otherwise the next line holding any significant token.
fn pragma_covers(
    source: &str,
    tokens: &[Token],
    comment_index: usize,
    comment_line: usize,
    line_starts: &[usize],
) -> usize {
    let _ = source;
    let line_of = |offset: usize| line_col(offset, line_starts).0;
    let has_code_before = tokens[..comment_index]
        .iter()
        .rev()
        .take_while(|t| line_of(t.start) == comment_line)
        .any(|t| !t.kind.is_trivia());
    if has_code_before {
        return comment_line;
    }
    tokens[comment_index + 1..]
        .iter()
        .find(|t| !t.kind.is_trivia())
        .map_or(comment_line, |t| line_of(t.start))
}

/// Rust keywords that can legitimately precede `[` without forming an index
/// expression (array literals and array types after `return`, `in`, …).
const NON_INDEX_KEYWORDS: [&str; 24] = [
    "as", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "fn", "for",
    "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "ref", "return", "static",
    "while",
];

/// Identifiers whose presence anywhere (outside `stubs/`) means entropy-based RNG
/// construction.
const ENTROPY_IDENTS: [&str; 6] = [
    "thread_rng",
    "ThreadRng",
    "from_entropy",
    "OsRng",
    "EntropyRng",
    "getrandom",
];

/// Seeding constructors whose arguments must not consult the wall clock.
const SEED_CALLS: [&str; 4] = ["seeded_rng", "seed_from_u64", "from_seed", "with_seed"];

/// Wall-clock identifiers (used by the sim rule and the seeded-from-time check).
const WALLCLOCK_IDENTS: [&str; 3] = ["Instant", "SystemTime", "unix_time"];

#[allow(clippy::too_many_lines)]
fn scan_rules(
    rel_path: &str,
    source: &str,
    sig: &[Token],
    skip: &[bool],
    classes: FileClasses,
    line_starts: &[usize],
    findings: &mut Vec<Finding>,
) {
    let text = |t: &Token| &source[t.start..t.end];
    let push = |findings: &mut Vec<Finding>, rule: Rule, token: &Token, message: String| {
        let (line, col) = line_col(token.start, line_starts);
        findings.push(Finding {
            rule,
            path: rel_path.to_string(),
            line,
            col,
            message,
        });
    };

    for i in 0..sig.len() {
        if skip[i] {
            continue;
        }
        let token = &sig[i];
        let word = text(token);
        let prev = i.checked_sub(1).map(|p| text(&sig[p]));
        let next = sig.get(i + 1).map(text);

        if classes.sim && token.kind == TokenKind::Ident {
            if word == "now"
                && prev == Some(":")
                && i >= 3
                && text(&sig[i - 2]) == ":"
                && matches!(text(&sig[i - 3]), "Instant" | "SystemTime")
            {
                push(
                    findings,
                    Rule::NoWallclockInSim,
                    token,
                    format!(
                        "`{}::now` in a simulation module (virtual time only)",
                        text(&sig[i - 3])
                    ),
                );
            }
            if word == "unix_time" {
                push(
                    findings,
                    Rule::NoWallclockInSim,
                    token,
                    "`unix_time` in a simulation module (virtual time only)".to_string(),
                );
            }
        }

        if classes.hot {
            if token.kind == TokenKind::Ident {
                match word {
                    "unwrap" if prev == Some(".") => push(
                        findings,
                        Rule::NoPanicHotpath,
                        token,
                        "`.unwrap()` on a hot path; propagate `HarnessError` instead".to_string(),
                    ),
                    "expect" if prev == Some(".") && next == Some("(") => push(
                        findings,
                        Rule::NoPanicHotpath,
                        token,
                        "`.expect(..)` on a hot path; propagate `HarnessError` instead".to_string(),
                    ),
                    "panic" | "unreachable" | "todo" | "unimplemented" if next == Some("!") => {
                        push(
                            findings,
                            Rule::NoPanicHotpath,
                            token,
                            format!("`{word}!` on a hot path; propagate `HarnessError` instead"),
                        );
                    }
                    _ => {}
                }
            }
            if token.kind == TokenKind::Punct && word == "[" && i > 0 && !skip[i - 1] {
                let prev_token = &sig[i - 1];
                let prev_text = text(prev_token);
                let indexes = match prev_token.kind {
                    TokenKind::Ident => !NON_INDEX_KEYWORDS.contains(&prev_text),
                    TokenKind::Punct => matches!(prev_text, ")" | "]"),
                    _ => false,
                };
                if indexes {
                    push(
                        findings,
                        Rule::NoPanicHotpath,
                        token,
                        format!(
                            "direct indexing after `{prev_text}` on a hot path; use `get`/`get_mut`"
                        ),
                    );
                }
            }
        }

        if classes.rng && token.kind == TokenKind::Ident {
            if ENTROPY_IDENTS.contains(&word) {
                push(
                    findings,
                    Rule::NoUnseededRng,
                    token,
                    format!("`{word}`: entropy-based RNG construction; derive from the root seed"),
                );
            }
            if SEED_CALLS.contains(&word) && next == Some("(") {
                // Scan the call's argument list for wall-clock inputs.
                let mut depth = 0usize;
                for inner in sig.iter().skip(i + 1) {
                    match text(inner) {
                        "(" => depth += 1,
                        ")" => {
                            depth = depth.saturating_sub(1);
                            if depth == 0 {
                                break;
                            }
                        }
                        arg if inner.kind == TokenKind::Ident
                            && (WALLCLOCK_IDENTS.contains(&arg) || arg == "now") =>
                        {
                            push(
                                findings,
                                Rule::NoUnseededRng,
                                token,
                                format!("`{word}(..)` seeded from wall-clock time (`{arg}`)"),
                            );
                            break;
                        }
                        _ => {}
                    }
                }
            }
        }

        if classes.report && token.kind == TokenKind::Ident && matches!(word, "HashMap" | "HashSet")
        {
            let mut message = format!(
                "`{word}` in a report-emitting module; use `BTreeMap`/`BTreeSet` or a \
                 sorted adapter"
            );
            // Syntax sharpening: when the mention is a `let` binding that is later
            // iterated, name the iteration site that leaks hash order.
            if let Some(iter_at) = dataflow::iteration_of_binding(source, sig, i, sig.len()) {
                let (l, _) = site_at(sig, iter_at, line_starts);
                message.push_str(&format!(
                    "; this binding's iteration at line {l} leaks hash order into the artifact"
                ));
            }
            push(
                findings,
                Rule::NoUnorderedIterationInReports,
                token,
                message,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOT: &str = "crates/core/src/queue.rs";
    const SIM: &str = "crates/core/src/sim.rs";
    const REPORT: &str = "crates/core/src/collector.rs";
    const PLAIN: &str = "crates/workloads/src/lib.rs";
    const HIST: &str = "crates/histogram/src/hdr.rs";

    fn rules_fired(path: &str, src: &str) -> Vec<Rule> {
        lint_source(path, src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn classification_table() {
        assert!(classify("crates/core/src/sim.rs").sim);
        assert!(classify("crates/core/src/sim.rs").hot);
        assert!(classify("crates/simarch/src/cache.rs").sim);
        assert!(classify("crates/scenario/src/phase.rs").sim);
        assert!(!classify("crates/scenario/src/lib.rs").sim);
        assert!(classify("crates/scenario/src/lib.rs").hot);
        assert!(classify("crates/core/src/sync.rs").hot);
        assert!(classify("crates/core/src/net.rs").hot);
        assert!(classify("crates/core/src/net.rs").reactor);
        assert!(!classify("crates/core/src/runner.rs").hot);
        assert!(classify("crates/experiment/src/output.rs").report);
        assert!(classify("crates/experiment/src/output.rs").stats);
        assert!(classify("crates/histogram/src/hdr.rs").histogram);
        assert!(classify("crates/histogram/src/hdr.rs").stats);
        assert!(!classify("crates/core/src/queue.rs").histogram);
        assert!(!classify("stubs/rand/src/lib.rs").rng);
        assert!(!classify("stubs/rand/src/lib.rs").sync);
        assert!(classify("crates/core/src/runner.rs").rng);
        assert!(classify("crates/core/src/runner.rs").sync);
    }

    #[test]
    fn unwrap_fires_only_on_hot_paths() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(rules_fired(HOT, src), vec![Rule::NoPanicHotpath]);
        assert_eq!(rules_fired(PLAIN, src), vec![]);
    }

    #[test]
    fn string_and_comment_occurrences_do_not_fire() {
        let src = r#"
            // calling .unwrap() here would panic
            fn f() -> &'static str { "don't .unwrap() or panic!(now)" }
        "#;
        assert_eq!(rules_fired(HOT, src), vec![]);
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!(\"x\"); }
            }
        ";
        assert_eq!(rules_fired(HOT, src), vec![]);
    }

    #[test]
    fn cfg_not_test_is_not_exempt() {
        let src = "
            #[cfg(not(test))]
            fn f(x: Option<u8>) -> u8 { x.unwrap() }
        ";
        assert_eq!(rules_fired(HOT, src), vec![Rule::NoPanicHotpath]);
    }

    #[test]
    fn indexing_detection() {
        assert_eq!(
            rules_fired(HOT, "fn f(v: &[u8], i: usize) -> u8 { v[i] }"),
            vec![Rule::NoPanicHotpath]
        );
        // Array literals, array types and attributes are not index expressions.
        assert_eq!(
            rules_fired(
                HOT,
                "#[derive(Debug)] struct S { a: [u8; 4] } fn f() -> [u8; 2] { [0, 1] }"
            ),
            vec![]
        );
        assert_eq!(
            rules_fired(HOT, "fn f() { let v = vec![1, 2]; drop(v); }"),
            vec![]
        );
    }

    #[test]
    fn wallclock_fires_in_sim_modules_only() {
        let src = "fn f() { let t = Instant::now(); drop(t); }";
        assert_eq!(
            rules_fired(SIM, src),
            // sim.rs is also a hot-path module, but `Instant::now()` itself carries no
            // panic construct, so only the wallclock rule fires.
            vec![Rule::NoWallclockInSim]
        );
        assert_eq!(rules_fired(PLAIN, src), vec![]);
        assert_eq!(
            rules_fired(SIM, "fn g() -> u64 { unix_time() }"),
            vec![Rule::NoWallclockInSim]
        );
    }

    #[test]
    fn rng_rule_everywhere_but_stubs() {
        let src = "fn f() { let mut rng = thread_rng(); }";
        assert_eq!(rules_fired(PLAIN, src), vec![Rule::NoUnseededRng]);
        assert_eq!(rules_fired("stubs/rand/src/lib.rs", src), vec![]);
        assert_eq!(
            rules_fired(PLAIN, "fn f() { let rng = seeded_rng(unix_time(), 1); }"),
            vec![Rule::NoUnseededRng]
        );
        assert_eq!(
            rules_fired(PLAIN, "fn f() { let rng = seeded_rng(config.seed, 1); }"),
            vec![]
        );
    }

    #[test]
    fn hashmap_rule_in_report_modules_only() {
        let src =
            "use std::collections::HashMap; fn f() { let m: HashMap<u8, u8> = HashMap::new(); }";
        let fired = rules_fired(REPORT, src);
        assert!(fired
            .iter()
            .all(|r| *r == Rule::NoUnorderedIterationInReports));
        assert_eq!(fired.len(), 3);
        assert_eq!(rules_fired(PLAIN, src), vec![]);
    }

    #[test]
    fn hashmap_iteration_site_is_named() {
        let src = "fn f() { let m = HashMap::new(); for (k, v) in &m { emit(k, v); } }";
        let findings = lint_source(REPORT, src);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("iteration at line 1")));
    }

    #[test]
    fn justified_allow_suppresses() {
        let src = "
            // tailbench-lint: allow(no-panic-hotpath) -- bounded by loop invariant
            fn f(v: &[u8]) -> u8 { v[0] }
        ";
        assert_eq!(rules_fired(HOT, src), vec![]);
        let trailing =
            "fn f(v: &[u8]) -> u8 { v[0] } // tailbench-lint: allow(no-panic-hotpath) -- invariant";
        assert_eq!(rules_fired(HOT, trailing), vec![]);
    }

    #[test]
    fn doc_comments_document_pragmas_without_enacting_them() {
        // A pragma quoted in a doc comment (rule table, usage example) must
        // neither suppress findings nor appear in the pragma audit trail.
        let src = "
            //! // tailbench-lint: allow(no-panic-hotpath) -- doc example only
            /// // tailbench-lint: allow(no-panic-hotpath) -- doc example only
            fn f(v: &[u8]) -> u8 { v[0] }
        ";
        let analysis = analyze_source(HOT, src);
        assert!(analysis.pragmas.is_empty(), "doc comments are not pragmas");
        assert_eq!(rules_fired(HOT, src), vec![Rule::NoPanicHotpath]);
    }

    #[test]
    fn unjustified_allow_is_an_error_and_does_not_suppress() {
        let src = "
            // tailbench-lint: allow(no-panic-hotpath)
            fn f(v: &[u8]) -> u8 { v[0] }
        ";
        let fired = rules_fired(HOT, src);
        assert!(fired.contains(&Rule::UnjustifiedAllow));
        assert!(fired.contains(&Rule::NoPanicHotpath));
        let empty_reason = "
            // tailbench-lint: allow(no-panic-hotpath) --
            fn f(v: &[u8]) -> u8 { v[0] }
        ";
        assert!(rules_fired(HOT, empty_reason).contains(&Rule::UnjustifiedAllow));
    }

    #[test]
    fn unknown_rule_in_allow_is_an_error() {
        let src = "// tailbench-lint: allow(no-such-rule) -- because\nfn f() {}\n";
        assert_eq!(rules_fired(HOT, src), vec![Rule::UnknownAllowRule]);
    }

    #[test]
    fn allow_only_covers_its_line() {
        let src = "
            // tailbench-lint: allow(no-panic-hotpath) -- only the next line
            fn f(v: &[u8]) -> u8 { v[0] }
            fn g(v: &[u8]) -> u8 { v[1] }
        ";
        let findings = lint_source(HOT, src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, Rule::NoPanicHotpath);
        assert!(findings[0].message.contains("v"));
    }

    #[test]
    fn expect_and_macros_fire() {
        let fired = rules_fired(
            HOT,
            "fn f(x: Option<u8>) -> u8 { match x { Some(v) => v, None => panic!(\"gone\") } }",
        );
        assert_eq!(fired, vec![Rule::NoPanicHotpath]);
        assert_eq!(
            rules_fired(HOT, "fn f(x: Option<u8>) -> u8 { x.expect(\"present\") }"),
            vec![Rule::NoPanicHotpath]
        );
        assert_eq!(
            rules_fired(HOT, "fn f() { unreachable!() }"),
            vec![Rule::NoPanicHotpath]
        );
        // `expect` as a field or path segment is not the panicking method.
        assert_eq!(rules_fired(HOT, "fn f(e: E) -> bool { e.expect }"), vec![]);
        // `unwrap_or` family is panic-free.
        assert_eq!(
            rules_fired(HOT, "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }"),
            vec![]
        );
    }

    #[test]
    fn columns_are_one_based() {
        let findings = lint_source(HOT, "fn f(x: Option<u8>) -> u8 { x.unwrap() }");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
        // `unwrap` starts at byte 30, so 1-based column 31.
        assert_eq!(findings[0].col, 31);
        assert!(findings[0]
            .to_string()
            .starts_with("crates/core/src/queue.rs:1:31: no-panic-hotpath:"));
    }

    #[test]
    fn lossy_cast_rule_fires_in_stats_paths_only() {
        let src = "fn f(x: u64) -> u32 { x as u32 }";
        assert_eq!(rules_fired(HIST, src), vec![Rule::NoLossyCastInStats]);
        assert_eq!(rules_fired("crates/core/src/runner.rs", src), vec![]);
        // Wide casts stay clean.
        assert_eq!(
            rules_fired(HIST, "fn f(x: u32) -> u64 { x as u64 }"),
            vec![]
        );
    }

    #[test]
    fn unchecked_arith_rule_fires_in_histogram_only() {
        let src = "fn f() { let mut total = 0u64; total += 1; }";
        assert_eq!(
            rules_fired(HIST, src),
            vec![Rule::NoUncheckedArithInHistogram]
        );
        assert_eq!(rules_fired(REPORT, src), vec![]);
        assert_eq!(
            rules_fired(
                HIST,
                "fn f() { let mut t = 0u64; t = t.saturating_add(1); }"
            ),
            vec![]
        );
        // Float estimator math is exempt.
        assert_eq!(
            rules_fired(HIST, "fn f(q: f64, n: f64) -> f64 { q * n }"),
            vec![]
        );
    }

    #[test]
    fn guard_across_blocking_fires_and_wait_protocol_is_exempt() {
        let src = "fn f() { let g = lock_recover(&l); let v = rx.recv(); drop(g); emit(v); }";
        assert_eq!(rules_fired(HOT, src), vec![Rule::GuardAcrossBlocking]);
        // The condvar protocol consuming its own guard is sanctioned.
        let wait = "fn f() { let mut s = lock_recover(&l); s = wait_recover(&cv, s); finish(s); }";
        assert_eq!(rules_fired(HOT, wait), vec![]);
        // Dropping before blocking is the fix.
        let fixed = "fn f() { let g = lock_recover(&l); let t = g.take(); drop(g); let v = rx.recv(); emit(t, v); }";
        assert_eq!(rules_fired(HOT, fixed), vec![]);
    }

    #[test]
    fn reactor_paths_tag_blocking_findings() {
        let src = "fn f() { let g = lock_recover(&l); stream.read_exact(&mut buf); drop(g); }";
        let findings = lint_source("crates/core/src/net.rs", src);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.starts_with("[reactor]"));
    }

    #[test]
    fn lock_order_cycle_names_both_sites() {
        let src = "
fn ab() { let a = lock_recover(&left); let b = lock_recover(&right); drop(b); drop(a); }
fn ba() { let b = lock_recover(&right); let a = lock_recover(&left); drop(a); drop(b); }
";
        let findings = lint_source(HOT, src);
        let cycles: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == Rule::LockOrderCycle)
            .collect();
        assert_eq!(cycles.len(), 1);
        let msg = &cycles[0].message;
        assert!(msg.contains("`left`") && msg.contains("`right`"));
        // Both acquisition sites are named with line:col coordinates.
        assert!(msg.contains(":2:") && msg.contains(":3:"), "{msg}");
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let src = "
fn ab() { let a = lock_recover(&left); let b = lock_recover(&right); drop(b); drop(a); }
fn ab2() { let a = lock_recover(&left); let b = lock_recover(&right); drop(b); drop(a); }
";
        assert_eq!(rules_fired(HOT, src), vec![]);
    }

    #[test]
    fn test_only_functions_are_exempt_from_concurrency_rules() {
        let src = "
            #[cfg(test)]
            mod tests {
                fn helper() { let g = lock_recover(&l); let v = rx.recv(); drop(g); }
            }
        ";
        assert_eq!(rules_fired(HOT, src), vec![]);
    }

    #[test]
    fn explain_texts_exist_for_every_rule() {
        for rule in ALL_RULES {
            assert!(!rule.summary().is_empty());
            assert!(rule.explain().contains("Why:"), "{}", rule.name());
            assert!(rule.explain().contains("Fix:"), "{}", rule.name());
            assert!(!rule.scope_desc().is_empty());
        }
    }
}
