//! The `lintkit` binary: `cargo run -p lintkit --release -- --workspace`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage/IO error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use lintkit::{rules, Workspace};

const USAGE: &str = "\
usage: lintkit [--workspace | PATH] [--format FMT] [--list-rules]

  --workspace       lint the enclosing cargo workspace (found by walking
                    up from the current directory to a Cargo.toml that
                    declares [workspace])
  PATH              lint the workspace rooted at PATH instead
  --format FMT      output format: text (default) or json — json emits
                    one machine-readable document on stdout (the CI
                    artifact); exit codes are identical in both modes
  --list-rules      print each rule id and the invariant it protects

Zone membership and per-site waivers come from <root>/lintkit.toml (see
DESIGN.md §16); a missing or malformed file is a usage/IO error.
";

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut list_rules = false;
    let mut use_workspace = false;
    let mut json = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => use_workspace = true,
            "--list-rules" => list_rules = true,
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                Some(other) => {
                    return usage_error(&format!("unknown format `{other}` (text|json)"))
                }
                None => return usage_error("--format needs an argument (text|json)"),
            },
            "-h" | "--help" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if !other.starts_with('-') => root = Some(PathBuf::from(other)),
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }

    if list_rules {
        for rule in rules::all_rules() {
            println!("{:<22} {}", rule.id(), rule.summary());
        }
        return ExitCode::SUCCESS;
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
    if json {
        let rule_meta: Vec<(&str, &str)> = rules::all_rules()
            .iter()
            .map(|r| (r.id(), r.summary()))
            .collect();
        print!(
            "{}",
            lintkit::report::to_json(&violations, ws.files.len(), &rule_meta)
        );
    } else {
        for v in &violations {
            println!("{v}");
        }
        if violations.is_empty() {
            println!(
                "lintkit: {} files clean across {} rules",
                ws.files.len(),
                rules::all_rules().len()
            );
        } else {
            println!("lintkit: {} violation(s)", violations.len());
        }
    }
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
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
