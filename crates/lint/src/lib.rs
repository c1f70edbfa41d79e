//! opine-lint: workspace invariant lints + a bounded-interleaving model
//! checker for the opinedb workspace's lock-free protocols.
//!
//! The lint pass enforces, deny-by-default, the invariants the serving
//! and query paths established by convention:
//!
//! * `relaxed_hygiene` — every `Ordering::Relaxed` is a registered
//!   monotonic counter or justified; stronger orderings state what they
//!   pair with.
//! * `checkpoint_coverage` — data-proportional loops on the query path
//!   call `Deadline::checkpoint()` so 504s stay honest.
//! * `counter_parity` — every `CacheReport::fields()` counter has an
//!   increment site and both /stats and /metrics render from `fields()`;
//!   every declared trace stage is opened, and every trace stage/counter
//!   name in use is declared.
//! * `no_panic_in_serve` — no unannotated unwrap/expect/panic!/indexing
//!   in server request-handling modules.
//! * `taxonomy_exhaustiveness` — emitted HTTP statuses and the JSON
//!   error taxonomy cover each other exactly.
//! * `lock_hold` — no lock guard held across another lock acquisition.
//!
//! Escape hatch: `// lint:allow(<rule>, reason = "...")`. EOL placement
//! covers that line; own-line placement covers the next construct
//! through its block. Ordering sites may instead carry
//! `// sync: <what this orders>`.

pub mod lexer;
pub mod model;
pub mod models;
pub mod registry;
pub mod rules;
pub mod scan;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use scan::FileScan;

#[derive(Debug, Clone)]
pub struct Finding {
    pub path: String,
    pub line: u32,
    pub rule: &'static str,
    pub message: String,
    pub hint: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    hint: {}",
            self.path, self.line, self.rule, self.message, self.hint
        )
    }
}

pub struct Workspace {
    pub files: Vec<FileScan>,
}

impl Workspace {
    /// Build a workspace from in-memory sources — the fixture corpus and
    /// tests feed synthetic files through the same path production uses.
    pub fn from_sources(sources: Vec<(String, String)>) -> Workspace {
        let mut files: Vec<FileScan> = sources
            .into_iter()
            .map(|(path, src)| FileScan::new(path, &src))
            .collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files }
    }

    /// Load every `.rs` under `crates/*/src`, `shims/*/src`, and the
    /// facade `src/` of the workspace root. Fixture corpora (anything
    /// outside `src/`) are deliberately not walked.
    pub fn load(root: &Path) -> io::Result<Workspace> {
        let mut sources = Vec::new();
        for group in ["crates", "shims"] {
            let dir = root.join(group);
            if !dir.is_dir() {
                continue;
            }
            let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .collect();
            entries.sort();
            for krate in entries {
                let src = krate.join("src");
                if src.is_dir() {
                    collect_rs(&src, root, &mut sources)?;
                }
            }
        }
        let facade = root.join("src");
        if facade.is_dir() {
            collect_rs(&facade, root, &mut sources)?;
        }
        Ok(Workspace::from_sources(sources))
    }
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Run every rule plus annotation validation over the workspace.
/// Output is stable: sorted by (path, line, rule, message).
pub fn run_all(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for f in &ws.files {
        findings.extend(f.bad_annotations.iter().cloned());
        // Unknown rule names in allow annotations are themselves findings
        // (a typo would otherwise silently disable nothing).
        for a in &f.allows {
            if !rules::RULES.contains(&a.rule.as_str()) {
                findings.push(Finding {
                    path: f.path.clone(),
                    line: a.lo,
                    rule: "annotation",
                    message: format!("lint:allow references unknown rule `{}`", a.rule),
                    hint: format!("known rules: {}", rules::RULES.join(", ")),
                });
            }
        }
        findings.extend(rules::relaxed_hygiene(f));
        findings.extend(rules::checkpoint_coverage(f));
        findings.extend(rules::no_panic_in_serve(f));
        findings.extend(rules::lock_hold(f));
    }
    findings.extend(rules::counter_parity(ws));
    findings.extend(rules::taxonomy_exhaustiveness(ws));
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule, a.message.as_str()).cmp(&(
            b.path.as_str(),
            b.line,
            b.rule,
            b.message.as_str(),
        ))
    });
    findings
}

/// Findings restricted to one rule — fixture self-tests use this.
pub fn run_rule(ws: &Workspace, rule: &str) -> Vec<Finding> {
    run_all(ws).into_iter().filter(|f| f.rule == rule).collect()
}
