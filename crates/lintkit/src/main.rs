//! The `lintkit` binary: `cargo run -p lintkit --release -- --workspace`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

#![forbid(unsafe_code)]
// Lint zones (DESIGN.md §11): transport, result-dropped.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]
#![cfg_attr(not(test), deny(clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use, unused_must_use))]

use std::path::PathBuf;
use std::process::ExitCode;

use lintkit::Workspace;

const USAGE: &str = "\
usage: lintkit [--workspace | PATH]

  --workspace       check the enclosing cargo workspace (found by walking
                    up from the current directory to a Cargo.toml that
                    declares [workspace])
  PATH              check the workspace rooted at PATH instead

Runs the lock-order check (DESIGN.md §11) over crates/*/src and src.
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut use_workspace = false;

    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--workspace" => use_workspace = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root = Some(PathBuf::from(other)),
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None if use_workspace => match find_workspace_root() {
            Some(r) => r,
            None => {
                eprintln!("lintkit: no enclosing [workspace] Cargo.toml found");
                return ExitCode::from(2);
            }
        },
        None => return usage_error("pass --workspace or a workspace PATH"),
    };

    let ws = match Workspace::scan(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("lintkit: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let violations = ws.run();
    for v in &violations {
        println!("{v}");
    }
    if violations.is_empty() {
        println!(
            "lintkit: {} files clean of lock-order findings",
            ws.files.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("lintkit: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("lintkit: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Walk up from the current directory to a Cargo.toml declaring
/// `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if toml_declares_workspace(&text) {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn toml_declares_workspace(text: &str) -> bool {
    text.lines().any(|l| l.trim() == "[workspace]")
}
