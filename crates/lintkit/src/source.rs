//! One analyzed source file: token stream, test-code mask, line lookup,
//! and the token-scanning helpers the lock-order walk uses.

use crate::lexer::{lex, TokKind, Token};

/// A lexed source file plus the derived structure the check needs.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable diagnostics).
    pub rel: String,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// `in_test[i]` is true when token `i` sits inside a `#[cfg(test)]`
    /// item (module or function) or under a `#[test]` attribute. The
    /// check never fires on test code.
    pub in_test: Vec<bool>,
    /// For every `{` token index, the index of its matching `}`.
    pub brace_match: Vec<Option<usize>>,
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Lex `text` and derive the masks.
    pub fn new(rel: impl Into<String>, text: &str) -> Self {
        let tokens = lex(text);
        let line_starts = std::iter::once(0)
            .chain(
                text.bytes()
                    .enumerate()
                    .filter(|&(_, b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        let brace_match = match_braces(&tokens);
        let in_test = test_mask(&tokens, &brace_match);
        Self {
            rel: rel.into(),
            tokens,
            in_test,
            brace_match,
            line_starts,
        }
    }

    /// 1-based line number of byte offset `off`.
    pub fn line_of(&self, off: usize) -> usize {
        match self.line_starts.binary_search(&off) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// 1-based line of token `i` (last line for out-of-range indices).
    pub fn line_of_token(&self, i: usize) -> usize {
        self.tokens
            .get(i)
            .map(|t| self.line_of(t.off))
            .unwrap_or_else(|| self.line_starts.len())
    }
}

/// Map each `{` to its matching `}` by index.
fn match_braces(tokens: &[Token]) -> Vec<Option<usize>> {
    let mut out = vec![None; tokens.len()];
    let mut stack = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        if t.is_punct("{") {
            stack.push(i);
        } else if t.is_punct("}") {
            if let Some(open) = stack.pop() {
                out[open] = Some(i);
            }
        }
    }
    out
}

/// Mark the token ranges covered by `#[cfg(test)]` / `#[test]` items.
///
/// After such an attribute (plus any further attributes on the same
/// item), the item extends to the first top-level `;` (e.g. an annotated
/// `use`) or through the matching `}` of its first top-level `{` (a
/// module or function body). This is the one subtlety the old awk gate
/// handled — everything after the *first* `#[cfg(test)]` marker was
/// exempt — and which must not regress into exempting too little.
fn test_mask(tokens: &[Token], brace_match: &[Option<usize>]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct("#") && matches!(tokens.get(i + 1), Some(t) if t.is_punct("["))) {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(attr_end) = close_bracket(tokens, i + 1) else {
            break;
        };
        if !attr_is_test(&tokens[i + 2..attr_end]) {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end + 1;
        while j < tokens.len() && tokens[j].is_punct("#") {
            match tokens.get(j + 1) {
                Some(t) if t.is_punct("[") => match close_bracket(tokens, j + 1) {
                    Some(e) => j = e + 1,
                    None => break,
                },
                _ => break,
            }
        }
        // Find the item's extent: first `;` or matched `{..}` at depth 0.
        let mut depth = 0i32;
        let mut end = tokens.len().saturating_sub(1);
        let mut k = j;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct("(") || t.is_punct("[") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") {
                depth -= 1;
            } else if depth == 0 && t.is_punct(";") {
                end = k;
                break;
            } else if depth == 0 && t.is_punct("{") {
                end = brace_match[k].unwrap_or(tokens.len() - 1);
                break;
            }
            k += 1;
        }
        for m in mask.iter_mut().take(end + 1).skip(attr_start) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// Index of the `]` closing the `[` at `open`.
fn close_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct("[") {
            depth += 1;
        } else if t.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Does this attribute body mark test code? Catches `test`, `cfg(test)`,
/// and compounds like `cfg(all(test, unix))`; string literals (e.g.
/// `cfg(feature = "testing")`) don't count because the lexer discards
/// literal contents.
fn attr_is_test(body: &[Token]) -> bool {
    let has_test = body.iter().any(|t| t.is_ident("test"));
    if !has_test {
        return false;
    }
    // `#[test]` alone, or a `cfg(...)` mentioning the ident `test`.
    body.len() == 1 || body.first().is_some_and(|t| t.is_ident("cfg"))
}

/// True when token `i` looks like the start of a statement: the previous
/// token is one of `;`, `{`, `}` or there is no previous token.
pub fn at_statement_start(tokens: &[Token], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let p = &tokens[i - 1];
    p.is_punct(";") || p.is_punct("{") || p.is_punct("}")
}

/// The kind-aware check for "is this `.name(` a zero-argument call" —
/// used to tell `storage.read()` (a lock acquisition) from
/// `stream.read(&mut buf)` (I/O).
pub fn is_zero_arg_call(tokens: &[Token], name_idx: usize) -> bool {
    matches!(tokens.get(name_idx + 1), Some(t) if t.is_punct("("))
        && matches!(tokens.get(name_idx + 2), Some(t) if t.is_punct(")"))
}

/// Index of the `)` matching the `(` at `open`.
pub fn match_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct("(") {
            depth += 1;
        } else if t.is_punct(")") {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// First `{` at parenthesis/bracket depth 0 from `start` — the body
/// opener of an `fn` header; `None` when a `;` comes first (a trait
/// method or other declaration without a body).
fn next_depth0_brace(toks: &[Token], start: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(start) {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
        } else if depth == 0 && t.is_punct("{") {
            return Some(j);
        } else if depth == 0 && t.is_punct(";") {
            return None;
        }
    }
    None
}

/// One `fn` definition: its name and body token range.
pub struct FnDef {
    pub name: String,
    /// `(open_brace, close_brace)` token indices of the body.
    pub body: (usize, usize),
}

/// Every non-test `fn` with a body in `file` (free functions and
/// methods alike — an `fn` inside an `impl` block is still `fn`).
pub fn functions_in(file: &SourceFile) -> Vec<FnDef> {
    let toks = &file.tokens;
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !toks[i].is_ident("fn") || file.in_test[i] {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident {
            continue; // `Fn(…)` trait sugar never lexes as `fn` + ident
        }
        let Some(open) = next_depth0_brace(toks, i + 2) else {
            continue;
        };
        let Some(close) = file.brace_match[open] else {
            continue;
        };
        out.push(FnDef {
            name: name_tok.text.clone(),
            body: (open, close),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_table_sees_bodied_non_test_fns() {
        let src =
            "impl Disk {\n  fn write_block(&self, b: usize) -> io::Result<()> { self.go(b) }\n}\n\
                   fn helper(x: u32) -> u32 { x }\n\
                   trait T { fn decl(&self) -> Result<(), E>; }\n\
                   #[cfg(test)]\nmod t { fn masked() {} }";
        let f = SourceFile::new("crates/vdisk/src/disk.rs", src);
        let names: Vec<String> = functions_in(&f).into_iter().map(|d| d.name).collect();
        assert_eq!(names, ["write_block", "helper"]);
    }

    #[test]
    fn paren_matching_skips_nested_pairs() {
        let f = SourceFile::new("a.rs", "f(g(1), h(2));");
        let toks = &f.tokens;
        let open = toks.iter().position(|t| t.is_punct("("));
        let close = open.and_then(|o| match_paren(toks, o));
        assert_eq!(close, toks.iter().rposition(|t| t.is_punct(")")));
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn tail() {}";
        let f = SourceFile::new("a.rs", src);
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| f.in_test[i])
            .collect();
        assert_eq!(
            unwraps,
            [false, true],
            "only the test-module unwrap is masked"
        );
        // Code after the test module is live again.
        let tail = f.tokens.iter().position(|t| t.is_ident("tail"));
        assert!(matches!(tail, Some(i) if !f.in_test[i]));
    }

    #[test]
    fn test_attribute_masks_single_fn() {
        let src = "#[test]\nfn check() { a.unwrap(); }\nfn live() { b.unwrap(); }";
        let f = SourceFile::new("a.rs", src);
        let states: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| f.in_test[i])
            .collect();
        assert_eq!(states, [true, false]);
    }

    #[test]
    fn stacked_attributes_still_masked() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod t { fn f() { x.unwrap(); } }";
        let f = SourceFile::new("a.rs", src);
        assert!(f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .all(|(i, _)| f.in_test[i]));
    }

    #[test]
    fn cfg_all_test_counts_and_features_do_not() {
        let src = "#[cfg(all(test, unix))]\nmod t { fn f() { x.unwrap(); } }";
        let f = SourceFile::new("a.rs", src);
        assert!(f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .all(|(i, _)| f.in_test[i]));
        // A cfg with no `test` ident leaves code live.
        let src2 = "#[cfg(unix)]\nfn f() { x.unwrap(); }";
        let f2 = SourceFile::new("a.rs", src2);
        assert!(f2
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .all(|(i, _)| !f2.in_test[i]));
    }

    #[test]
    fn line_numbers_are_one_based() {
        let f = SourceFile::new("a.rs", "a\nb\nc.unwrap()");
        let i = f.tokens.iter().position(|t| t.is_ident("unwrap"));
        assert!(matches!(i, Some(i) if f.line_of_token(i) == 3));
    }
}
