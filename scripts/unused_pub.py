#!/usr/bin/env python3
"""Lists public items that no non-test code uses.

Reports every `pub` fn, struct, enum, trait, type alias, const or static
defined under `crates/` or `src/` whose name appears in no non-test code
except at its own definition and in `pub use` re-exports. Non-test code
is every `.rs` file outside `tests/` directories, minus its
`#[cfg(test)]` items (the stripper `scripts/loc.py` uses); benches,
examples and the benchmark package's `perfbench/src` count as callers.
Comments and string literals are not uses.

Test fixtures are public on purpose so integration tests can reach
them; `FIXTURE_FILES` and `FIXTURE_ITEMS` exempt them.

Usage: python3 scripts/unused_pub.py [ROOT]   (ROOT defaults to the repo
root). Prints one `path:line: name` per unused item and exits 1 if there
are any, 0 otherwise.
"""

import os
import re
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from loc import CHAR_LIT, non_test_lines, read_lines  # noqa: E402

SKIP_DIRS = {"tests", "target", ".git", ".bench_build"}

# Where public items are defined (the benchmark package is a caller only).
DEFINING_ROOTS = ("crates", "src")

# Test fixtures: every public item in these files is exempt.
FIXTURE_FILES = {
    "crates/core/src/testing.rs",  # MockCtx, the unit-test Tempest context
    "crates/check/src/scenarios.rs",  # hand-written checker scenarios
}

# Test fixtures by name: the classic litmus suite (crates/check/src/litmus.rs).
FIXTURE_ITEMS = {"ClassicLitmus", "classic_suite", "run_classic"}

DEF = re.compile(
    r"^\s*pub\s+(?:(?:const|async|unsafe|extern\s+\"[^\"]*\")\s+)*"
    r"(?:fn|struct|enum|trait|type|const|static(?:\s+mut)?)\s+([A-Za-z_]\w*)"
)
IDENT = re.compile(r"[A-Za-z_]\w*")
FORMAT_ARG = re.compile(r"(?<!\{)\{([A-Za-z_]\w*)[}:]")


def code_only(line, state):
    """`line` with comments and string literals blanked out.

    `state` carries a block comment or string across lines: None,
    ("block", depth) or ("str", hashes) with hashes -1 for a plain string.
    Inline format arguments (`{name}`) found in the strings are appended
    to the code. Returns (code, state).
    """
    out = []
    text = []  # string-literal characters, for inline format arguments
    i = 0
    while i < len(line):
        if state is not None:
            kind, arg = state
            if kind == "str":
                text.append(line[i])
            if kind == "block":
                if line.startswith("*/", i):
                    state = ("block", arg - 1) if arg > 1 else None
                    i += 2
                elif line.startswith("/*", i):
                    state = ("block", arg + 1)
                    i += 2
                else:
                    i += 1
            elif arg < 0 and line[i] == "\\":
                i += 2
            elif line[i] == '"' and line.startswith("#" * max(arg, 0), i + 1):
                state = None
                i += 1 + max(arg, 0)
            else:
                i += 1
            out.append(" ")
            continue
        c = line[i]
        if line.startswith("//", i):
            break
        if line.startswith("/*", i):
            state = ("block", 1)
            i += 2
        elif c in "rb" and re.match(r'[rb]?r?#*"', line[i:]) and not (
            i and (line[i - 1].isalnum() or line[i - 1] == "_")
        ):
            m = re.match(r'([rb]?r?)(#*)"', line[i:])
            raw = "r" in m.group(1)
            state = ("str", len(m.group(2)) if raw else -1)
            i += m.end()
        elif c == '"':
            state = ("str", -1)
            i += 1
        elif c == "'":
            m = CHAR_LIT.match(line, i)
            i = m.end() if m else i + 1
        else:
            out.append(c)
            i += 1
            continue
        out.append(" ")
    # `format!("{name}")` names a variable or constant from inside a string.
    args = FORMAT_ARG.findall("".join(text))
    return "".join(out) + " " + " ".join(args), state


def rust_files(root):
    """Every `.rs` file under `root` outside `SKIP_DIRS`, in sorted order."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            if name.endswith(".rs"):
                yield os.path.join(dirpath, name)


def main():
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else default)
    defs = []  # (rel path, line number, name)
    uses = {}  # name -> occurrences outside definitions and `pub use`
    for path in rust_files(root):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        defining = rel.split("/")[0] in DEFINING_ROOTS and rel not in FIXTURE_FILES
        state = None
        in_pub_use = False
        for lineno, line in non_test_lines(read_lines(path)):
            code, state = code_only(line, state)
            stripped = code.strip()
            if stripped.startswith("pub use "):
                in_pub_use = True
            if in_pub_use:
                in_pub_use = ";" not in stripped
                continue
            m = DEF.match(code)
            names = IDENT.findall(code)
            if m:
                names.remove(m.group(1))
                if defining and m.group(1) not in FIXTURE_ITEMS:
                    defs.append((rel, lineno, m.group(1)))
            for name in names:
                uses[name] = uses.get(name, 0) + 1
    unused = [d for d in defs if not uses.get(d[2])]
    for rel, lineno, name in unused:
        print(f"{rel}:{lineno}: {name}")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
