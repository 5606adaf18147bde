#!/usr/bin/env python3
"""Counts the non-test Rust lines of the repository.

Every `.rs` file outside `tests/`, `benches/`, `target/` and `perfbench/`
is counted, minus each `#[cfg(test)]` item (an attribute followed by an
item that ends in `;` or in a brace-matched block). Reports the total
line count and the code-only count (blank lines and lines holding only
a comment left out).

Usage: python3 scripts/loc.py [ROOT]   (ROOT defaults to the repo root)
"""

import os
import re
import sys

SKIP_DIRS = {"tests", "benches", "target", "perfbench", ".git", ".bench_build"}

# A char literal holding one (possibly escaped) character; a lone `'`
# is a lifetime or label.
CHAR_LIT = re.compile(r"'(\\.[^']*|[^'\\])'")


def braces(line, state):
    """Net `{` minus `}` on `line` outside strings, chars and comments.

    `state` carries a multi-line string or block comment across lines:
    None, ("str", hashes) or ("block", depth).
    """
    net = 0
    i = 0
    while i < len(line):
        if state is not None:
            kind, arg = state
            if kind == "block":
                if line.startswith("*/", i):
                    state = ("block", arg - 1) if arg > 1 else None
                    i += 2
                elif line.startswith("/*", i):
                    state = ("block", arg + 1)
                    i += 2
                else:
                    i += 1
            else:
                if arg < 0 and line[i] == "\\":
                    i += 2
                elif line[i] == '"' and line.startswith("#" * max(arg, 0), i + 1):
                    state = None
                    i += 1 + max(arg, 0)
                else:
                    i += 1
            continue
        c = line[i]
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            state = ("block", 1)
            i += 2
        elif c == "r" and re.match(r'r#*"', line[i:]) and not (i and (line[i - 1].isalnum() or line[i - 1] == "_")):
            hashes = len(re.match(r"r(#*)", line[i:]).group(1))
            state = ("str", hashes)
            i += 2 + hashes
        elif c == '"':
            state = ("str", -1)
            i += 1
        elif c == "'":
            m = CHAR_LIT.match(line, i)
            i = m.end() if m else i + 1
        else:
            net += c == "{"
            net -= c == "}"
            i += 1
    return net, state


def read_lines(path):
    """The lines of `path`, without their newlines."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def non_test_lines(lines):
    """Yields `(number, line)` for the lines of a Rust file outside its
    `#[cfg(test)]` items, numbered from 1 as in the file."""
    state = None
    skipping = False  # inside a cfg(test) item
    depth = 0  # brace depth of the skipped item
    opened = False
    for number, line in enumerate(lines, 1):
        stripped = line.strip()
        net, state_after = braces(line, state)
        if not skipping and state is None and stripped.startswith("#[cfg(test)]"):
            skipping, depth, opened = True, 0, False
            rest = stripped[len("#[cfg(test)]"):].strip()
            if not rest:
                state = state_after
                continue
        if skipping:
            depth += net
            opened = opened or net > 0 or "{" in line
            state = state_after
            if (opened and depth <= 0) or (not opened and stripped.endswith(";")):
                skipping = False
            continue
        state = state_after
        yield number, line


def count_file(path):
    """(total, code) line counts of `path` without its cfg(test) items."""
    total = code = 0
    in_block_comment = False
    for _, line in non_test_lines(read_lines(path)):
        stripped = line.strip()
        total += 1
        if in_block_comment:
            if "*/" in stripped:
                in_block_comment = False
        elif stripped and not stripped.startswith("//"):
            if stripped.startswith("/*"):
                in_block_comment = "*/" not in stripped
            else:
                code += 1
    return total, code


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(os.path.dirname(__file__), "..")
    total = code = files = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith(".rs"):
                t, c = count_file(os.path.join(dirpath, name))
                total += t
                code += c
                files += 1
    print(f"files {files}  total {total}  code {code}")


if __name__ == "__main__":
    main()
