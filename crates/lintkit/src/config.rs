//! Zone configuration: which invariants apply to which paths.
//!
//! `lintkit.toml` at the workspace root is the single source of zone
//! truth (DESIGN.md §16). Each zone is a list of workspace-relative path
//! prefixes; a file is "in" a zone when its path starts with any of
//! them, so `crates/simnet/src/` covers a directory and
//! `crates/vdisk/src/content.rs` pins a single file. The `[allow]`
//! section carries per-site waivers (`"path"` or `"path:line"`) keyed by
//! rule id — the determinism lists are required to stay empty: a
//! nondeterministic container gets converted, not excused. There is no
//! compiled-in copy: a workspace without the file does not lint.
//!
//! The parser below handles exactly the TOML subset the file uses —
//! `[section]` headers and `key = ["...", ...]` string arrays (multiline
//! allowed, `#` comments) — because lintkit must build offline with
//! nothing but std. Unknown sections, keys, or syntax are hard errors:
//! a typoed zone name silently disabling a rule would be worse than a
//! broken build.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

/// Name of the zone-config file at the workspace root.
pub const CONFIG_FILE: &str = "lintkit.toml";

/// Zone names the rules consult; anything else in `[zones]` is a typo.
pub const ZONE_NAMES: &[&str] = &[
    "transport",
    "deterministic",
    "deterministic-order",
    "reactor-ready",
    "result-dropped",
];

/// Rule ids that accept `[allow]` entries.
pub const ALLOW_KEYS: &[&str] = &[
    "no-panic-transport",
    "lock-order",
    "protocol-exhaustive",
    "unsafe-audit",
    "determinism",
    "no-blocking",
    "result-dropped",
];

/// Parsed zone config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Zone name → workspace-relative path prefixes.
    pub zones: BTreeMap<String, Vec<String>>,
    /// Rule id → allowed sites (`"path"` waives a file, `"path:line"` a
    /// single diagnostic).
    pub allow: BTreeMap<String, Vec<String>>,
}

impl Config {
    /// Load `<root>/lintkit.toml`. A missing file is an error, like a
    /// malformed one: there is no other copy of the zones to fall back on.
    pub fn load(root: &Path) -> io::Result<Self> {
        let path = root.join(CONFIG_FILE);
        let text = fs::read_to_string(&path)
            .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        Self::parse(&text).map_err(|msg| {
            io::Error::new(io::ErrorKind::InvalidData, format!("{CONFIG_FILE}: {msg}"))
        })
    }

    /// Parse the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut zones: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut allow: BTreeMap<String, Vec<String>> = ALLOW_KEYS
            .iter()
            .map(|k| (k.to_string(), Vec::new()))
            .collect();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((n, raw)) = lines.next() {
            let line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = name.trim().to_string();
                if section != "zones" && section != "allow" {
                    return Err(format!("line {}: unknown section [{section}]", n + 1));
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("line {}: expected `key = [...]`", n + 1));
            };
            let key = key.trim().to_string();
            let mut value = value.trim().to_string();
            // Arrays may span lines: accumulate until the bracket closes.
            while !value.ends_with(']') {
                match lines.next() {
                    Some((_, more)) => {
                        value.push(' ');
                        value.push_str(strip_comment(more).trim());
                    }
                    None => return Err(format!("line {}: unterminated array for `{key}`", n + 1)),
                }
            }
            let items =
                parse_string_array(&value).map_err(|e| format!("line {}: `{key}`: {e}", n + 1))?;
            match section.as_str() {
                "zones" if ZONE_NAMES.contains(&key.as_str()) => {
                    zones.insert(key, items);
                }
                "zones" => return Err(format!("line {}: unknown zone `{key}`", n + 1)),
                "allow" if ALLOW_KEYS.contains(&key.as_str()) => {
                    allow.insert(key, items);
                }
                "allow" => return Err(format!("line {}: unknown allow key `{key}`", n + 1)),
                _ => return Err(format!("line {}: `{key}` outside any section", n + 1)),
            }
        }
        for z in ZONE_NAMES {
            zones.entry(z.to_string()).or_default();
        }
        Ok(Self { zones, allow })
    }

    /// Path prefixes of `zone` (empty when the zone has no paths).
    pub fn zone(&self, zone: &str) -> &[String] {
        self.zones.get(zone).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Is `rel` inside `zone`?
    pub fn in_zone(&self, zone: &str, rel: &str) -> bool {
        self.zone(zone).iter().any(|z| rel.starts_with(z.as_str()))
    }

    /// Is this diagnostic waived by an `[allow]` entry?
    pub fn is_allowed(&self, rule: &str, path: &str, line: usize) -> bool {
        self.allow.get(rule).is_some_and(|entries| {
            entries
                .iter()
                .any(|e| e == path || *e == format!("{path}:{line}"))
        })
    }
}

/// Drop a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `["a", "b", ...]` (trailing comma fine, escapes not supported —
/// paths never need them).
fn parse_string_array(s: &str) -> Result<Vec<String>, String> {
    let inner = s
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or("expected a [...] array")?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let path = item
            .strip_prefix('"')
            .and_then(|i| i.strip_suffix('"'))
            .ok_or_else(|| format!("expected a quoted string, got `{item}`"))?;
        out.push(path.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_multiline_arrays_and_comments() {
        let cfg = Config::parse(
            "# zones\n[zones]\ntransport = [\n  \"a/\", # wire\n  \"b/c.rs\",\n]\n\
             [allow]\ndeterminism = [\"x.rs:3\"]\n",
        )
        .unwrap();
        assert_eq!(cfg.zone("transport"), ["a/", "b/c.rs"]);
        assert!(cfg.in_zone("transport", "a/mod.rs"));
        assert!(!cfg.in_zone("transport", "b/d.rs"));
        assert!(cfg.is_allowed("determinism", "x.rs", 3));
        assert!(!cfg.is_allowed("determinism", "x.rs", 4));
    }

    #[test]
    fn rejects_typos() {
        assert!(Config::parse("[zone]\n").is_err());
        assert!(Config::parse("[zones]\ntransprot = []\n").is_err());
        assert!(Config::parse("[allow]\nno-such-rule = []\n").is_err());
        assert!(Config::parse("transport = []\n").is_err());
        assert!(Config::parse("[zones]\ntransport = [\"unterminated\"").is_err());
    }
}
