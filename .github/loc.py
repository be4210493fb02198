"""Counts the workspace's non-test lines of Rust.

Usage: python3 .github/loc.py [REPO_ROOT]

A file's non-test lines are the lines before its first `#[cfg(test)]`
line (all of them when it has none). Its code lines are the non-test
lines that are neither blank nor `//` comments (which takes in `///`
and `//!` docs). Counted files: `crates/*/src/**/*.rs` and
`src/**/*.rs`. Prints one line per crate (the root package as `.`),
then the total, each as non-test lines then code lines. Below them,
the same for each vendored stand-in (`vendor/*/src/**/*.rs`) and their
total, which the workspace total leaves out.
"""
import sys
from pathlib import Path


def count_lines(path):
    """Returns (non-test lines, code lines) of one file."""
    lines = code = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            stripped = line.strip()
            if stripped == "#[cfg(test)]":
                break
            lines += 1
            if stripped and not stripped.startswith("//"):
                code += 1
    return lines, code


def count_packages(root, packages):
    """Prints one row per package and returns the summed counts."""
    total = total_code = 0
    for package in packages:
        counts = [count_lines(f) for f in sorted((package / "src").rglob("*.rs"))]
        lines = sum(c[0] for c in counts)
        code = sum(c[1] for c in counts)
        total += lines
        total_code += code
        print(f"{lines:7} {code:7} {package.relative_to(root)}")
    return total, total_code


def main(root="."):
    root = Path(root)
    packages = sorted(p.parent for p in root.glob("crates/*/src")) + [root]
    print(f"{'lines':>7} {'code':>7}")
    total, total_code = count_packages(root, packages)
    print(f"{total:7} {total_code:7} total")
    vendored = sorted(p.parent for p in root.glob("vendor/*/src"))
    total, total_code = count_packages(root, vendored)
    print(f"{total:7} {total_code:7} vendored total")


if __name__ == "__main__":
    main(*sys.argv[1:])
