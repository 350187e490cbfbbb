//! lintkit — the one static check of this workspace that no stock lint
//! provides: lock order.
//!
//! An inconsistent lock order deadlocks the pre-copy loop, and a guard
//! held across a blocking call is how the destination ends up waiting
//! forever on a pulled block; `cargo check` and clippy see neither.
//! lintkit lexes the workspace with a hand-rolled Rust lexer (no parser
//! crate: lintkit builds from std alone) and runs [`lock_order`] over the
//! token streams. The other invariants of the lint zones (no panics
//! on transport paths, no hash order or wall clock in deterministic
//! code, no blocking in reactor-ready code, no dropped `Result`s, no
//! protocol catch-alls, no `unsafe`) are stock clippy and rustc lints
//! denied at each zone's root, with the banned lists in `clippy.toml`;
//! DESIGN.md §11 has the table.
//!
//! Scope: `crates/*/src/**` (and a root `src/**` if one exists). Vendored
//! code under `vendor/`, integration `tests/`, and `benches/` are not
//! scanned, and neither is `#[cfg(test)]` code (see the mask in
//! [`source`]).

#![forbid(unsafe_code)]
// Lint zones (DESIGN.md §11): transport, result-dropped.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, unused_must_use))]

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod lock_order;
pub mod report;
pub mod source;

pub use report::Violation;
pub use source::SourceFile;

/// Everything the check sees: the lexed files.
pub struct Workspace {
    /// Lexed sources, sorted by path for deterministic reports.
    pub files: Vec<SourceFile>,
}

impl Workspace {
    /// Build a workspace from in-memory `(path, source)` pairs — the
    /// fixture-test entry point.
    pub fn from_sources(sources: &[(&str, &str)]) -> Self {
        let mut files: Vec<SourceFile> = sources
            .iter()
            .map(|(rel, text)| SourceFile::new(*rel, text))
            .collect();
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Self { files }
    }

    /// Scan a workspace rooted at `root`: every `.rs` file under
    /// `crates/*/src/` and a top-level `src/`.
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
        Ok(Self { files })
    }

    /// Run the lock-order check; findings come back in file/line order.
    pub fn run(&self) -> Vec<Violation> {
        let mut found = lock_order::check(self);
        found.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
        found
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
