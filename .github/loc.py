"""Counts the workspace's non-test lines of Rust.

Usage: python3 .github/loc.py [REPO_ROOT]

A file's non-test lines are the lines before its first `#[cfg(test)]`
line (all of them when it has none). Counted files: `crates/*/src/**/*.rs`
and `src/**/*.rs`. Prints one line per crate (the root package as `.`),
then the total.
"""
import sys
from pathlib import Path


def non_test_lines(path):
    count = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip() == "#[cfg(test)]":
                break
            count += 1
    return count


def main(root="."):
    root = Path(root)
    packages = sorted(p.parent for p in root.glob("crates/*/src")) + [root]
    total = 0
    for package in packages:
        lines = sum(non_test_lines(f) for f in sorted((package / "src").rglob("*.rs")))
        total += lines
        print(f"{lines:7} {package.relative_to(root)}")
    print(f"{total:7} total")


if __name__ == "__main__":
    main(*sys.argv[1:])
