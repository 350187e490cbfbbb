//! Rule `unsafe-audit`: `unsafe` appears only where the allowlist says a
//! human has justified it, and every crate root carries a
//! `#![forbid(unsafe_code)]`/`#![deny(unsafe_code)]` pragma.
//!
//! The simulator deliberately contains no unsafe code — determinism and
//! the fault-injection tests both rely on every data race being a
//! compile error. `[allow] unsafe-audit` in `lintkit.toml` lists the
//! files permitted to contain `unsafe`; like every `[allow]` entry, a
//! path waives all of the file's findings, the crate-root pragma check
//! included. The list is empty today: adding unsafe code means adding a
//! reviewed entry in the same diff.

use super::Rule;
use crate::lexer::Token;
use crate::report::Violation;
use crate::Workspace;

/// See module docs.
pub struct UnsafeAudit;

impl Rule for UnsafeAudit {
    fn id(&self) -> &'static str {
        "unsafe-audit"
    }

    fn summary(&self) -> &'static str {
        "no unsafe code outside the allowlist; crate roots forbid unsafe_code"
    }

    fn check(&self, ws: &Workspace) -> Vec<Violation> {
        let mut out = Vec::new();
        for file in &ws.files {
            for (i, t) in file.tokens.iter().enumerate() {
                if !file.in_test[i] && t.is_ident("unsafe") {
                    out.push(Violation {
                        rule: self.id(),
                        path: file.rel.clone(),
                        line: file.line_of_token(i),
                        message: "`unsafe` outside the allowlist — justify it with an \
                                  `[allow] unsafe-audit` entry in lintkit.toml or rewrite \
                                  in safe Rust"
                            .to_string(),
                    });
                }
            }
            if is_crate_root(&file.rel) && !has_unsafe_pragma(&file.tokens) {
                out.push(Violation {
                    rule: self.id(),
                    path: file.rel.clone(),
                    line: 1,
                    message: "crate root lacks `#![forbid(unsafe_code)]` (or deny) — \
                              add the pragma or allowlist the file"
                        .to_string(),
                });
            }
        }
        out
    }
}

/// Crate roots: `crates/<name>/src/lib.rs|main.rs` and the workspace's
/// own `src/lib.rs|main.rs` if present.
fn is_crate_root(rel: &str) -> bool {
    let parts: Vec<&str> = rel.split('/').collect();
    match parts.as_slice() {
        ["crates", _, "src", f] | ["src", f] => *f == "lib.rs" || *f == "main.rs",
        _ => false,
    }
}

/// Look for `#![forbid(unsafe_code)]` / `#![deny(unsafe_code)]`.
fn has_unsafe_pragma(toks: &[Token]) -> bool {
    toks.windows(6).any(|w| {
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && w[2].is_punct("[")
            && (w[3].is_ident("forbid") || w[3].is_ident("deny"))
            && w[4].is_punct("(")
            && w[5].is_ident("unsafe_code")
    })
}
