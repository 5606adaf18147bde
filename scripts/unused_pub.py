#!/usr/bin/env python3
"""Lists public items that no non-test code uses, as rustc sees it.

The compiler decides what is dead. On a temporary copy of the tree, with
its own CARGO_TARGET_DIR (the checkout is never touched), the pass:

1. splits every grouped `pub use a::{x, y};` under `crates/*/src` into
   one `pub use` per name, so a live name cannot keep a dead neighbour
   public;
2. demotes every `pub` item and `pub` field there to `pub(crate)`
   (`pub mod` stays, and so do the test fixtures below);
3. runs `cargo check` on the workspace's lib, bins, examples and benches,
   then on the benchmark package `perfbench/`'s lib and bins;
4. promotes back to `pub` the definition each privacy error names (from
   the error's "defined here" spans, else by name) and repeats step 3
   until both builds succeed;
5. reports rustc's `dead_code` warnings: public items only tests reach
   (integration tests and `#[cfg(test)]` code are not built).

Test fixtures are public on purpose so integration tests can reach them:
every item in `FIXTURE_FILES`, and every item named in `FIXTURE_ITEMS`
(with its fields), stays `pub`. To exempt another fixture, add it there.

A run takes about two minutes on two cores (a cold target directory
every time). If an error names no definition the pass can promote, the
script prints it and exits 2.

Usage: python3 scripts/unused_pub.py [ROOT]   (ROOT defaults to the repo
root). Prints one `path:line: name` per unused item and exits 1 if there
are any, 0 otherwise.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

# Test fixtures: every public item in these files stays public.
FIXTURE_FILES = {
    "crates/core/src/testing.rs",  # MockCtx, the unit-test Tempest context
    "crates/check/src/scenarios.rs",  # hand-written checker scenarios
}

# Test fixtures by name: the classic litmus suite (crates/check/src/litmus.rs).
FIXTURE_ITEMS = {"ClassicLitmus", "classic_suite", "run_classic"}

# The builds whose code counts as callers: (directory, `cargo check` args).
BUILDS = (
    (".", ["--workspace", "--lib", "--bins", "--examples", "--benches"]),
    ("perfbench", ["--lib", "--bins"]),
)

GROUPED_USE = re.compile(r"^([ \t]*)pub use ([^;]*\{[^;]*);", re.M)
PUB_USE = re.compile(r"(?:^|;)\s*(pub) use ([^;]*)")
LINE_PUB = re.compile(r"^\s*(pub)\s+(?!mod\b|use\b)")
TUPLE_FIELD_PUB = re.compile(r"[(,]\s*(pub)\s")
ITEM = re.compile(
    r"(?:(?:const|async|unsafe|extern\s+\"[^\"]*\")\s+)*"
    r"(?:fn|struct|enum|union|trait|type|const|static(?:\s+mut)?)\s+(\w+)"
)
FIELD = re.compile(r"(\w+)\s*:")
OWNER = re.compile(r"\b(?:struct|enum|union)\s+(\w+)")
TICKED = re.compile(r"`([^`]+)`")
PRIVATE_FIELDS = re.compile(r"^fields? (.*) of (?:struct|union|enum) `(?:[\w:]+::)?(\w+)")
NOISE = ("aborting due to", "For more information")


def split_use(tree):
    """The flat paths of one use tree: `a::{b, c::{d as e}}` gives
    `a::b` and `a::c::d as e`."""
    tree = " ".join(tree.split())
    start = tree.find("{")
    if start < 0:
        return [tree]
    prefix, depth, parts = tree[:start], 0, [""]
    for c in tree[start + 1 : tree.rindex("}")]:
        depth += (c == "{") - (c == "}")
        if c == "," and depth == 0:
            parts.append("")
        else:
            parts[-1] += c
    paths = []
    for part in filter(None, map(str.strip, parts)):
        paths += [prefix.rstrip(":")] if part == "self" else split_use(prefix + part)
    return paths


def flatten_uses(text):
    """`text` with every grouped `pub use` split into one per name, all on
    the statement's first line (so every line keeps its number)."""

    def flat(m):
        uses = " ".join(f"pub use {path};" for path in split_use(m.group(2)))
        return m.group(1) + uses + "\n" * m.group(0).count("\n")

    return GROUPED_USE.sub(flat, text)


class Demotion:
    """One `pub` made `pub(crate)`: where it is and the name it exports."""

    def __init__(self, path, line, col, name, owner):
        self.path, self.line, self.col = path, line, col
        self.name, self.owner = name, owner  # owner: a field's type, else None
        self.crate = "/".join(path.split("/")[:2])
        self.promoted = 0  # the round that made it `pub` again, 0 if none
        self.cur_col = col  # where it starts in the text rustc last saw


def pubs(line, owner):
    """(column, name, owner) for each `pub` to demote on one line; the
    owner is the enclosing type's name for a field, None for an item."""
    for m in PUB_USE.finditer(line):
        yield m.start(1), re.split(r"\W+", m.group(2))[-1], None
    m = LINE_PUB.match(line)
    if m:
        rest = line[m.end() :]
        item, field = ITEM.match(rest), FIELD.match(rest)
        if item:
            yield m.start(1), item.group(1), None
        else:  # a named field, or a tuple field on a line of its own
            yield m.start(1), field.group(1) if field else rest.split()[0], owner
    if OWNER.search(line):  # tuple struct fields: `struct Vpn(pub u64);`
        for index, m in enumerate(TUPLE_FIELD_PUB.finditer(line)):
            yield m.start(1), str(index), owner


def demote(path, rel, demotions):
    """Reads `path` with its grouped `pub use`s split, records a demotion
    for each of its `pub`s outside the fixtures and returns its lines."""
    with open(path) as f:
        lines = flatten_uses(f.read()).split("\n")
    owner = None
    for lineno, line in enumerate(lines, 1):
        found = OWNER.search(line)
        owner = found.group(1) if found else owner
        for col, name, own in pubs(line, owner):
            if name not in FIXTURE_ITEMS and own not in FIXTURE_ITEMS:
                demotions.append(Demotion(rel, lineno, col, name, own))
    return lines


def render(work, sources, by_line):
    """Writes every demoted file into the copy, each still-demoted `pub`
    as `pub(crate)`, and records where each `pub` now starts."""
    for rel, lines in sources.items():
        out = []
        for lineno, line in enumerate(lines, 1):
            text, done = "", 0
            for d in sorted(by_line.get((rel, lineno), ()), key=lambda d: d.col):
                text += line[done : d.col]
                d.cur_col = len(text)
                text += "pub" if d.promoted else "pub(crate)"
                done = d.col + len("pub")
            out.append(text + line[done:])
        with open(os.path.join(work, rel), "w") as f:
            f.write("\n".join(out))


def check(work, target, build):
    """Runs one `cargo check`; returns its (errors, dead_code warnings)."""
    sub, args = build
    env = {k: v for k, v in os.environ.items() if k not in ("RUSTFLAGS", "CARGO_BUILD_RUSTFLAGS")}
    env["CARGO_TARGET_DIR"] = target
    cmd = ["cargo", "check", "--offline", "--keep-going", "--message-format=json", *args]
    cwd = os.path.join(work, sub)
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)
    errors, dead = [], []
    for line in proc.stdout.splitlines():
        msg = json.loads(line) if line.startswith("{") else {}
        if msg.get("reason") != "compiler-message":
            continue
        diag = msg["message"]
        for span in all_spans(diag):  # paths relative to the copy
            span["file_name"] = os.path.relpath(os.path.join(cwd, span["file_name"]), work)
        if diag["level"] == "error" and not diag["message"].startswith(NOISE):
            errors.append(diag)
        elif (diag.get("code") or {}).get("code") == "dead_code":
            dead.append(diag)
    if proc.returncode != 0 and not errors:
        sys.stderr.write(proc.stderr)
        print(f"unused_pub: `{' '.join(cmd)}` failed in {sub}/", file=sys.stderr)
        sys.exit(2)
    return errors, dead


def all_spans(diag):
    """Every span of a diagnostic and of its child notes."""
    spans = list(diag["spans"])
    for child in diag.get("children", ()):
        spans += all_spans(child)
    return spans


def at_span(span, by_line):
    """The demotion a span starts in: the last `pub` on the span's line
    that starts at or before the span does."""
    on_line = by_line.get((span["file_name"], span["line_start"]), ())
    before = [d for d in on_line if d.cur_col < span["column_start"]]
    return max(before, key=lambda d: d.cur_col, default=None)


def named(diag, demotions):
    """The demotions an error names when no span points at one: a private
    field by field and type, anything else by its first quoted name (a
    re-export error, E0364/E0365, within the re-exporting crate)."""
    fields = PRIVATE_FIELDS.match(diag["message"])
    if fields:
        names = TICKED.findall(fields.group(1))
        return [d for d in demotions if d.owner == fields.group(2) and d.name in names]
    ticked = TICKED.search(diag["message"])
    if not ticked:
        return []
    name = ticked.group(1).split("::")[-1]
    found = [d for d in demotions if d.owner is None and d.name == name]
    if (diag.get("code") or {}).get("code") in ("E0364", "E0365") and diag["spans"]:
        crate = "/".join(diag["spans"][0]["file_name"].split("/")[:2])
        found = [d for d in found if d.crate == crate]
    return found


def promote(errors, demotions, by_line, round_no):
    """Promotes what the errors of round `round_no` name. An error that
    names nothing may follow from the others (rustc goes on after a
    privacy error), but if none names anything the pass is stuck: it
    prints them all and exits 2."""

    def fresh(found):
        return [d for d in found if d and d.promoted in (0, round_no)]

    for diag in errors:
        notes = [s for s in diag["spans"] if not s["is_primary"]]
        notes += [s for child in diag.get("children", ()) for s in all_spans(child)]
        for d in fresh(at_span(s, by_line) for s in notes) or fresh(named(diag, demotions)):
            d.promoted = round_no
    if not any(d.promoted == round_no for d in demotions):
        for diag in errors:
            sys.stderr.write(diag.get("rendered") or diag["message"] + "\n")
        sys.exit(2)


def report(dead):
    """(path, line, name) of each item a dead_code warning names."""
    items = set()
    for diag in dead:
        for span in filter(lambda s: s["is_primary"], diag["spans"]):
            text = span["text"][0]
            name = text["text"][text["highlight_start"] - 1 : text["highlight_end"] - 1]
            items.add((span["file_name"], span["line_start"], name))
    return sorted(items)


def main():
    default = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else default)
    skip = shutil.ignore_patterns(".git", "target", ".bench_build")
    with tempfile.TemporaryDirectory(prefix="unused_pub.") as tmp:
        work, target = os.path.join(tmp, "tree"), os.path.join(tmp, "target")
        shutil.copytree(root, work, ignore=skip)
        sources, demotions, by_line = {}, [], {}
        for path in sorted(glob.glob(os.path.join(work, "crates/*/src/**/*.rs"), recursive=True)):
            rel = os.path.relpath(path, work)
            if rel not in FIXTURE_FILES:
                sources[rel] = demote(path, rel, demotions)
        for d in demotions:
            by_line.setdefault((d.path, d.line), []).append(d)
        rounds = 0
        while True:
            render(work, sources, by_line)
            dead = []
            for build in BUILDS:
                rounds += 1
                errors, warnings = check(work, target, build)
                if errors:
                    promote(errors, demotions, by_line, rounds)
                    break
                dead += warnings
            else:
                break
    promoted = sum(d.promoted > 0 for d in demotions)
    print(f"unused_pub: {rounds} builds; {promoted} of {len(demotions)} `pub`s needed", file=sys.stderr)
    unused = report(dead)
    for rel, line, name in unused:
        print(f"{rel}:{line}: {name}")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
