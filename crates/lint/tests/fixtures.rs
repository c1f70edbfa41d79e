//! Fixture-corpus regression tests: each lint rule has a planted-violation
//! fixture that must fail with a pointed diagnostic, and an annotated twin
//! that must pass clean. Fixtures live under `crates/lint/fixtures/` —
//! outside any `src/`, so the production workspace walk never sees them —
//! and are fed through the same `Workspace` the CLI uses, under synthetic
//! paths that put them in each rule's scope.

use opine_lint::{run_all, run_rule, Finding, Workspace};

fn ws(files: &[(&str, &str)]) -> Workspace {
    Workspace::from_sources(
        files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect(),
    )
}

fn rule_findings(path: &str, src: &str, rule: &str) -> Vec<Finding> {
    run_rule(&ws(&[(path, src)]), rule)
}

/// Every finding must point somewhere actionable: real path, nonzero
/// line, the rule name, and a non-empty hint.
fn assert_pointed(findings: &[Finding], path: &str, rule: &str) {
    assert!(!findings.is_empty(), "expected at least one {rule} finding");
    for f in findings {
        assert_eq!(f.path, path);
        assert!(f.line > 0, "finding must carry a line: {f}");
        assert_eq!(f.rule, rule);
        assert!(!f.hint.is_empty(), "finding must carry a hint: {f}");
    }
}

#[test]
fn relaxed_hygiene_fixture_pair() {
    let path = "crates/core/src/flags.rs";
    let bad = rule_findings(
        path,
        include_str!("../fixtures/relaxed_hygiene_bad.rs"),
        "relaxed_hygiene",
    );
    assert_pointed(&bad, path, "relaxed_hygiene");
    assert_eq!(
        bad.len(),
        2,
        "one Relaxed + one Release violation: {bad:#?}"
    );
    assert!(bad[0].message.contains("dirty.store(Ordering::Relaxed)"));
    assert!(bad[1].message.contains("Ordering::Release"));

    let ok = rule_findings(
        path,
        include_str!("../fixtures/relaxed_hygiene_ok.rs"),
        "relaxed_hygiene",
    );
    assert!(ok.is_empty(), "annotated twin must pass: {ok:#?}");
}

#[test]
fn checkpoint_coverage_fixture_pair() {
    // The rule only applies to registered hot-path files.
    let path = "crates/core/src/topk.rs";
    let bad_src = include_str!("../fixtures/checkpoint_coverage_bad.rs");
    let bad = rule_findings(path, bad_src, "checkpoint_coverage");
    assert_pointed(&bad, path, "checkpoint_coverage");
    assert_eq!(bad.len(), 2, "outer and inner loop both flagged: {bad:#?}");

    // The same source under a cold-path filename is out of scope.
    let cold = rule_findings("crates/corpus/src/gen.rs", bad_src, "checkpoint_coverage");
    assert!(cold.is_empty(), "cold files are exempt: {cold:#?}");

    let ok = rule_findings(
        path,
        include_str!("../fixtures/checkpoint_coverage_ok.rs"),
        "checkpoint_coverage",
    );
    assert!(
        ok.is_empty(),
        "checkpointed + annotated twin must pass: {ok:#?}"
    );
}

#[test]
fn no_panic_in_serve_fixture_pair() {
    let path = "crates/server/src/respond.rs";
    let bad_src = include_str!("../fixtures/no_panic_in_serve_bad.rs");
    let bad = rule_findings(path, bad_src, "no_panic_in_serve");
    assert_pointed(&bad, path, "no_panic_in_serve");
    assert_eq!(bad.len(), 3, "indexing + unwrap + panic!: {bad:#?}");
    let messages: Vec<&str> = bad.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("headers[..]")));
    assert!(messages.iter().any(|m| m.contains(".unwrap()")));
    assert!(messages.iter().any(|m| m.contains("panic!")));

    // The same source outside the server tree is out of scope.
    let cold = rule_findings("crates/core/src/respond.rs", bad_src, "no_panic_in_serve");
    assert!(cold.is_empty(), "non-server files are exempt: {cold:#?}");

    let ok = rule_findings(
        path,
        include_str!("../fixtures/no_panic_in_serve_ok.rs"),
        "no_panic_in_serve",
    );
    assert!(ok.is_empty(), "hardened twin must pass: {ok:#?}");
}

#[test]
fn counter_parity_fixture_pair() {
    // The rule reads fields() from the registered db path.
    let path = "crates/core/src/db.rs";
    let bad = rule_findings(
        path,
        include_str!("../fixtures/counter_parity_bad.rs"),
        "counter_parity",
    );
    assert_pointed(&bad, path, "counter_parity");
    assert_eq!(bad.len(), 1, "{bad:#?}");
    assert!(bad[0].message.contains("`misses`"));
    assert!(bad[0].message.contains("never incremented"));

    let ok = rule_findings(
        path,
        include_str!("../fixtures/counter_parity_ok.rs"),
        "counter_parity",
    );
    assert!(
        ok.is_empty(),
        "twin with both increments must pass: {ok:#?}"
    );
}

#[test]
fn counter_parity_catches_renderer_drift() {
    // /metrics hand-rolls its output instead of walking fields().
    let workspace = ws(&[
        (
            "crates/core/src/db.rs",
            include_str!("../fixtures/counter_parity_ok.rs"),
        ),
        (
            "crates/server/src/service.rs",
            r#"
fn render_stats(state: &ServerState) -> String {
    let mut out = String::new();
    for (name, _field) in state.db.cache_report().fields() {
        out.push_str(name);
    }
    out
}

fn render_prometheus(_state: &ServerState) -> String {
    String::from("hand-rolled output that will drift")
}
"#,
        ),
    ]);
    let findings = run_rule(&workspace, "counter_parity");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0]
        .message
        .contains("`render_prometheus` does not render from CacheReport::fields()"));
}

#[test]
fn counter_parity_catches_unopened_trace_stage() {
    let workspace = ws(&[
        (
            "crates/trace/src/lib.rs",
            r#"pub const STAGES: &[&str] = &["parse", "rank"];"#,
        ),
        (
            "crates/core/src/topk.rs",
            r#"
pub fn run(ctx: &TraceContext) {
    let _span = ctx.span("parse");
}
"#,
        ),
    ]);
    let findings = run_rule(&workspace, "counter_parity");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert!(findings[0].message.contains("\"rank\""));
    assert!(findings[0].message.contains("never opened"));
}

#[test]
fn counter_parity_catches_undeclared_trace_names() {
    let trace = (
        "crates/trace/src/lib.rs",
        r#"
pub const STAGES: [&str; 2] = ["ta_topk", "ingest"];
pub const COUNTERS: [&str; 2] = ["cache_hits", "rows"];
"#,
    );
    // The must-catch mutant: the column-repair path as it shipped,
    // bumping a counter the trace crate never declared — a panic (an
    // HTTP 500) on every repaired SELECT under the server's armed trace.
    let mutant = ws(&[
        trace,
        (
            "crates/core/src/column.rs",
            r#"
fn repair() {
    let _ta = opine_trace::span("ta_topk");
    let span = opine_trace::span("ingest");
    opine_trace::count("ta_topk", "cache_hits", 1);
    opine_trace::count("ta_topk", "cache_repairs", 1);
    span.count("rows", 3);
}
"#,
        ),
    ]);
    let findings = run_rule(&mutant, "counter_parity");
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_pointed(&findings, "crates/core/src/column.rs", "counter_parity");
    assert_eq!(findings[0].line, 6);
    assert!(findings[0].message.contains("\"cache_repairs\""));
    assert!(findings[0].message.contains("COUNTERS"));

    // Undeclared stages (both call shapes) and a span-guard counter are
    // caught too; test code may name whatever it likes.
    let sloppy = ws(&[
        trace,
        (
            "crates/core/src/topk.rs",
            r#"
fn rank(ctx: &TraceContext) {
    let _ta = ctx.span("ta_topk");
    let span = opine_trace::span("ingest");
    span.count("heap_pops", 1);
    opine_trace::count("rescore", "rows", 1);
    let _warm = opine_trace::span("warmup");
}

#[cfg(test)]
mod tests {
    #[test]
    fn unknown_names_panic() {
        drop(opine_trace::span("no_such_stage"));
    }
}
"#,
        ),
    ]);
    let findings = run_rule(&sloppy, "counter_parity");
    let messages: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
    assert_eq!(findings.len(), 3, "{findings:#?}");
    assert!(messages[0].contains("\"heap_pops\"") && messages[0].contains("COUNTERS"));
    assert!(messages[1].contains("\"rescore\"") && messages[1].contains("STAGES"));
    assert!(messages[2].contains("\"warmup\"") && messages[2].contains("STAGES"));
}

#[test]
fn taxonomy_fixture_pair() {
    // The rule anchors on the service module path.
    let path = "crates/server/src/service.rs";
    let bad = rule_findings(
        path,
        include_str!("../fixtures/taxonomy_bad.rs"),
        "taxonomy_exhaustiveness",
    );
    assert_pointed(&bad, path, "taxonomy_exhaustiveness");
    assert_eq!(bad.len(), 2, "{bad:#?}");
    let messages: Vec<&str> = bad.iter().map(|f| f.message.as_str()).collect();
    assert!(messages.iter().any(|m| m.contains("418")), "{messages:?}");
    assert!(
        messages.iter().any(|m| m.contains("\"gone\"")),
        "{messages:?}"
    );

    let ok = rule_findings(
        path,
        include_str!("../fixtures/taxonomy_ok.rs"),
        "taxonomy_exhaustiveness",
    );
    assert!(ok.is_empty(), "covering twin must pass: {ok:#?}");
}

#[test]
fn lock_hold_fixture_pair() {
    let path = "crates/core/src/cache.rs";
    let bad = rule_findings(
        path,
        include_str!("../fixtures/lock_hold_bad.rs"),
        "lock_hold",
    );
    assert_pointed(&bad, path, "lock_hold");
    assert_eq!(bad.len(), 1, "{bad:#?}");
    assert!(bad[0].message.contains("guard `from`"));

    let ok = rule_findings(
        path,
        include_str!("../fixtures/lock_hold_ok.rs"),
        "lock_hold",
    );
    assert!(
        ok.is_empty(),
        "scoped / dropped / annotated twins must pass: {ok:#?}"
    );
}

#[test]
fn allow_without_reason_is_itself_a_finding() {
    let src = r#"
pub fn f(a: &Mutex<u64>, b: &Mutex<u64>) {
    let first = a.lock().unwrap();
    // lint:allow(lock_hold)
    let second = b.lock().unwrap();
    *second = *first;
}
"#;
    let findings = run_all(&ws(&[("crates/core/src/cache.rs", src)]));
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "annotation" && f.message.contains("reason")),
        "a reason-less allow must be rejected: {findings:#?}"
    );
    // And the malformed allow must NOT suppress the underlying finding.
    assert!(
        findings.iter().any(|f| f.rule == "lock_hold"),
        "{findings:#?}"
    );
}

#[test]
fn allow_with_unknown_rule_name_is_a_finding() {
    let src = r#"
// lint:allow(lock_hodl, reason = "typo'd rule names must not silently disable nothing")
pub fn f() {}
"#;
    let findings = run_all(&ws(&[("crates/core/src/cache.rs", src)]));
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, "annotation");
    assert!(findings[0].message.contains("lock_hodl"));
}

#[test]
fn the_real_workspace_is_clean() {
    // The repo itself must lint clean — this is the same invariant CI
    // enforces via `opine-lint --deny-all`, kept here too so plain
    // `cargo test` catches a regression without the extra CI step.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/lint has a workspace root two levels up")
        .to_path_buf();
    let workspace = Workspace::load(&root).expect("walk workspace sources");
    assert!(
        workspace.files.len() > 50,
        "workspace walk looks truncated: {} files",
        workspace.files.len()
    );
    let findings = run_all(&workspace);
    assert!(
        findings.is_empty(),
        "workspace must lint clean:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
