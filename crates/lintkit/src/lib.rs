//! lintkit — repo-native static analysis for migration-protocol and
//! concurrency invariants.
//!
//! The interesting invariants in this codebase are not type errors: a
//! panic on a transport path breaks the reconnect/resume story, an
//! inconsistent lock order deadlocks the pre-copy loop, a `_ =>` arm
//! swallows a protocol message added two PRs later. `cargo check` sees
//! none of them. lintkit lexes the workspace with a hand-rolled Rust
//! lexer (no external parser — the toolchain here is offline), layers a
//! per-file import table on top ([`resolve`]) so rules can match
//! fully-qualified names, and runs seven rules over the token streams;
//! see [`rules`] for each invariant and `DESIGN.md` §"Static analysis" /
//! §16 for scope and known limits. Zone membership comes from
//! `lintkit.toml` at the workspace root ([`config`]).
//!
//! Scope: `crates/*/src/**` (and a root `src/**` if one exists). Vendored
//! code under `vendor/`, integration `tests/`, and `benches/` are not
//! scanned — the invariants protect the product code; tests are free to
//! unwrap and to match however they like (also see the `#[cfg(test)]`
//! mask in [`source`]).

#![forbid(unsafe_code)]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod config;
pub mod lexer;
pub mod report;
pub mod resolve;
pub mod rules;
pub mod source;

pub use config::Config;
pub use report::Violation;
pub use source::SourceFile;

/// Everything the rules see: the lexed files and the zone config.
pub struct Workspace {
    /// Lexed sources, sorted by path for deterministic reports.
    pub files: Vec<SourceFile>,
    /// Zone map + per-site allow entries (`lintkit.toml`).
    pub config: Config,
}

impl Workspace {
    /// Build a workspace from in-memory `(path, source)` pairs under
    /// `config` — the fixture-test entry point.
    pub fn from_sources(sources: &[(&str, &str)], config: Config) -> Self {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, text)| SourceFile::new(*rel, text))
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Self { files, config }
    }

    /// Scan a workspace rooted at `root`: every `.rs` file under
    /// `crates/*/src/` and a top-level `src/`, plus `lintkit.toml`.
    pub fn scan(root: &Path) -> io::Result<Self> {
        let mut rs_files = Vec::new();
        let crates_dir = root.join("crates");
        if crates_dir.is_dir() {
            let mut members: Vec<PathBuf> = fs::read_dir(&crates_dir)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            members.sort();
            for member in members {
                collect_rs(&member.join("src"), &mut rs_files)?;
            }
        }
        collect_rs(&root.join("src"), &mut rs_files)?;
        rs_files.sort();

        let mut files = Vec::with_capacity(rs_files.len());
        for path in rs_files {
            let text = fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            files.push(SourceFile::new(rel, &text));
        }
        Ok(Self {
            files,
            config: Config::load(root)?,
        })
    }

    /// Run every rule; violations come back grouped by rule, in run
    /// order, each rule's findings in file/line order. Sites waived by a
    /// `lintkit.toml` `[allow]` entry are filtered here, centrally.
    pub fn run(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        for rule in rules::all_rules() {
            let mut found = rule.check(self);
            found.retain(|v| !self.config.is_allowed(v.rule, &v.path, v.line));
            found.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
            out.extend(found);
        }
        out
    }
}

/// Recursively collect `.rs` files under `dir` (missing dirs are fine).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
