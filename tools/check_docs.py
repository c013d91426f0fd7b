#!/usr/bin/env python3
"""Link-check the user docs so build commands and pointer maps can't rot.

Three checks over README.md and docs/*.md (or any files passed on the
command line):

1. Every relative markdown link [text](path) must resolve to an existing
   file or directory (resolved against the containing file's directory;
   http(s)/mailto links and pure #anchors are skipped, a #fragment on a
   file link is stripped).
2. Every `backtick` span that looks like a repo path — starts with a
   known top-level directory (src/, tests/, bench/, tools/, examples/,
   docs/, .github/) or names a root file like CMakeLists.txt /
   BENCH_pr10.json — must exist from the repo root. This is what catches
   prose like "see src/engine/graph/executor.cc" going stale after a
   rename.
3. Every `backtick` span that is a single identifier — a qualified
   `Type::member`, a call `Name()`, a CamelCase name or a snake_case
   name — must occur in the code under src/, tests/, bench/, examples/
   or tools/: each `::` component as a whole word, and a `Name()` as
   `Name(`. This catches a doc naming a method that no code declares or
   calls any more. The check goes by name, not by scope: a deleted
   member whose name some other class or function still uses passes
   (a stale `rows()` passes while any `rows(` call remains).

Exit code 0 when everything resolves, 1 with a per-finding report
otherwise. CI runs this in the docs job.
"""

import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
CODE_RE = re.compile(r"`([^`\n]+)`")

# A backtick span is treated as a repo path when it matches one of these.
PATH_PREFIXES = ("src/", "tests/", "bench/", "tools/", "examples/",
                 "docs/", ".github/")
ROOT_FILE_RE = re.compile(
    r"^[A-Za-z0-9_.-]+\.(md|json|txt|py|yml|yaml)$")

# Identifier spans: `A::b` (optionally `A::b()`), `Name()`, CamelCase
# (`Relation`, `EnsureIndex`, `kInternal`) and snake_case (`rows_in`).
QUALIFIED_RE = re.compile(r"^(?:[A-Za-z_]\w*::)+[A-Za-z_]\w*(\(\))?$")
CALL_RE = re.compile(r"^([A-Za-z_]\w*)\(\)$")
CAMEL_RE = re.compile(r"^(?:[A-Z]\w*[a-z]\w*|[a-z][a-z0-9]*[A-Z]\w*)$")
SNAKE_RE = re.compile(r"^_*[A-Za-z][A-Za-z0-9]*(?:_+[A-Za-z0-9]+)+_*$")
CODE_DIRS = ("src", "tests", "bench", "examples", "tools")
WORD_RE = re.compile(r"[A-Za-z_]\w*")
CALLED_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")


def code_identifiers():
    """(words, called): every identifier-like word in the code, and those
    that are somewhere followed by '('. This script itself is left out so
    its own examples cannot vouch for a name."""
    words, called = set(), set()
    for top in CODE_DIRS:
        for root, _, names in os.walk(os.path.join(REPO_ROOT, top)):
            for name in names:
                path = os.path.join(root, name)
                if os.path.abspath(path) == os.path.abspath(__file__):
                    continue
                try:
                    with open(path, encoding="utf-8") as f:
                        text = f.read()
                except (UnicodeDecodeError, OSError):
                    continue
                words.update(WORD_RE.findall(text))
                called.update(CALLED_RE.findall(text))
    return words, called


def stale_identifier(token, words, called):
    """Returns why `token` names nothing in the code, or None."""
    if QUALIFIED_RE.match(token):
        parts = token.removesuffix("()").split("::")
        missing = [p for p in parts if p not in words]
        return f"no '{missing[0]}'" if missing else None
    match = CALL_RE.match(token)
    if match:
        return None if match.group(1) in called else \
            f"no call or declaration '{match.group(1)}('"
    if CAMEL_RE.match(token) or SNAKE_RE.match(token):
        return None if token in words else f"no '{token}'"
    return None


def check_file(md_path, identifiers):
    failures = []
    base_dir = os.path.dirname(os.path.abspath(md_path))
    with open(md_path, encoding="utf-8") as f:
        lines = f.readlines()

    in_fence = False
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        for match in LINK_RE.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            target = target.split("#", 1)[0]
            if not target:
                continue
            resolved = os.path.normpath(os.path.join(base_dir, target))
            if not os.path.exists(resolved):
                failures.append(
                    f"{md_path}:{lineno}: dead link target '{target}'")
        if in_fence:
            # Fenced code blocks hold commands with output redirections and
            # placeholder paths; only inline code is path-checked.
            continue
        for match in CODE_RE.finditer(line):
            token = match.group(1).strip()
            reason = stale_identifier(token, *identifiers)
            if reason:
                failures.append(
                    f"{md_path}:{lineno}: stale identifier `{token}` "
                    f"({reason} in {', '.join(CODE_DIRS)})")
                continue
            looks_like_path = token.startswith(PATH_PREFIXES) or \
                ROOT_FILE_RE.match(token)
            if not looks_like_path:
                continue
            # Commands/globs/placeholders, not concrete paths.
            if any(ch in token for ch in " <>*$|'\"{}"):
                continue
            resolved = os.path.normpath(os.path.join(REPO_ROOT, token))
            if not os.path.exists(resolved):
                failures.append(
                    f"{md_path}:{lineno}: dead path reference `{token}`")
    return failures


def main():
    files = sys.argv[1:]
    if not files:
        files = [os.path.join(REPO_ROOT, "README.md")]
        files += sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))
    failures = []
    identifiers = code_identifiers()
    for path in files:
        if not os.path.exists(path):
            failures.append(f"{path}: file not found")
            continue
        failures.extend(check_file(path, identifiers))
    if failures:
        for failure in failures:
            print(failure)
        print(f"FAIL: {len(failures)} dead reference(s)")
        return 1
    print(f"OK: {len(files)} file(s) link-checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
