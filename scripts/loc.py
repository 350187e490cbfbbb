#!/usr/bin/env python3
"""Non-test source lines of the workspace, by one rule.

Counts every line (code, comments and blank lines alike) of
`crates/*/src/**/*.rs` and `src/**/*.rs` that lies above the file's
trailing `#[cfg(test)]` module; a file without one counts whole. Prints
one line per crate, then the workspace total.

    scripts/loc.py            # this checkout
    scripts/loc.py DIR        # another checkout, e.g. the parent commit
    scripts/loc.py --help     # this text

It exits 0 after a count and 2 otherwise: after this text, and after
refusing any other flag, a second argument, or a directory without
`crates/` (not a checkout).
"""

import sys
from pathlib import Path


def non_test_lines(path):
    """Lines above the last top-level `#[cfg(test)]` that opens a `mod`."""
    lines = path.read_text().splitlines()
    for i in range(len(lines) - 1, -1, -1):
        if lines[i] == "#[cfg(test)]" and lines[i + 1 : i + 2] and lines[i + 1].startswith("mod "):
            return i
    return len(lines)


def crate_totals(root):
    """(crate, lines) for the root package's `src/` and each `crates/*`."""
    dirs = [("block-bitmap-migration", root / "src")]
    dirs += [(d.name, d / "src") for d in sorted((root / "crates").iterdir()) if (d / "src").is_dir()]
    return [(name, sum(non_test_lines(f) for f in sorted(src.rglob("*.rs")))) for name, src in dirs]


def usage_error(message):
    print(f"loc.py: {message}", file=sys.stderr)
    print("usage: scripts/loc.py [DIR]   (--help for more)", file=sys.stderr)
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
    totals = crate_totals(root)
    for name, lines in totals:
        print(f"{name:<24} {lines:>6}")
    print(f"{'workspace':<24} {sum(n for _, n in totals):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
