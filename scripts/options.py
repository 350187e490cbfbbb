#!/usr/bin/env python3
"""Configuration options of the workspace, by one rule.

Counts the `pub` fields of the configuration structs a run is set up
with: `MigrationConfig`, `ClusterConfig`, `LiveConfig`, `PostCopyConfig`
and `RetryPolicy`. A field is a line of the struct's body that declares
`pub NAME:`; each struct is looked up by its `pub struct NAME {` line in
`crates/*/src/**/*.rs` and `src/**/*.rs`. Prints one line per struct
(`absent` for one no file declares), then the total.

    scripts/options.py            # this checkout
    scripts/options.py DIR        # another checkout, e.g. the parent commit
    scripts/options.py --help     # this text

It exits 0 after a count and 2 otherwise: after this text, and after
refusing any other flag, a second argument, or a directory without
`crates/` (not a checkout).
"""

import re
import sys
from pathlib import Path

STRUCTS = ["MigrationConfig", "ClusterConfig", "LiveConfig", "PostCopyConfig", "RetryPolicy"]
FIELD = re.compile(r"^\s+pub\s+[A-Za-z_][A-Za-z0-9_]*\s*:")


def sources(root):
    """Every program source file: `src/` and each `crates/*/src/`."""
    dirs = [root / "src"] + sorted(d / "src" for d in (root / "crates").iterdir())
    return [f for d in dirs if d.is_dir() for f in sorted(d.rglob("*.rs"))]


def field_counts(root):
    """{struct: number of `pub` fields} for each struct some file declares."""
    counts = {}
    for path in sources(root):
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            m = re.match(r"^pub struct (\w+)\s*\{", line)
            if not m or m.group(1) not in STRUCTS:
                continue
            body = []
            for inner in lines[i + 1 :]:
                if inner.startswith("}"):
                    break
                body.append(inner)
            counts[m.group(1)] = sum(1 for b in body if FIELD.match(b))
    return counts


def usage_error(message):
    print(f"options.py: {message}", file=sys.stderr)
    print("usage: scripts/options.py [DIR]   (--help for more)", file=sys.stderr)
    return 2


def main(args):
    if args and args[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 2
    if len(args) > 1:
        return usage_error("at most one checkout directory")
    if args and args[0].startswith("-"):
        return usage_error(f"unknown flag {args[0]}")
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    if not (root / "crates").is_dir():
        return usage_error(f"{root} is not a checkout: it has no crates/ directory")
    counts = field_counts(root)
    for name in STRUCTS:
        shown = counts[name] if name in counts else "absent"
        print(f"{name:<24} {shown:>6}")
    print(f"{'options':<24} {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
