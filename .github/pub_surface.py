#!/usr/bin/env python3
"""Fails when a library crate's `pub fn` or `pub const` is named by no other unit.

`dead_code` never fires on a `pub` item, so a public function only tests
call goes unseen. This check makes `pub` mean "another unit names it":
for every `pub fn` and `pub const` (methods and associated constants
included) above a library file's first column-0 `#[cfg(test)]`, the
item's name must appear, as a whole word, in some tracked Rust file
outside that crate's library: another crate, the crate's own bins,
`tests/` and `examples/`, the root `src/`, `tests/` and `examples/`, or
`benchmark/src`. The search is textual, so a name shared with an item
elsewhere counts as named; types are out of scope, because a text
search cannot see a `pub` signature reach them.

Exceptions live in `.github/pub_surface.allow`, one `<file> <name>
<reason>` per line. The list may only shrink: an entry that no longer
matches an unnamed item (it is named elsewhere now, narrowed or
deleted) fails too, so it is removed in the same change.

Run from the repository root: `python3 .github/pub_surface.py`.
"""
import re
import subprocess
import sys

ALLOW = ".github/pub_surface.allow"
ITEM = re.compile(r"^\s*pub\s+(?:(?:const|unsafe)\s+)*fn\s+(\w+)|^\s*pub\s+const\s+(\w+)\s*:")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def crate_lib(path):
    """The crate whose library `path` belongs to, or None."""
    m = re.match(r"crates/([^/]+)/src/(.*)$", path)
    if not m or m.group(2) == "main.rs" or m.group(2).startswith("bin/"):
        return None
    return m.group(1)


def main():
    files = subprocess.run(
        ["git", "ls-files", "--", "crates/*.rs", "src/*.rs", "tests/*.rs",
         "examples/*.rs", "benchmark/src/*.rs"],
        check=True, capture_output=True, text=True,
    ).stdout.split()
    words = {f: set(WORD.findall(open(f, encoding="utf-8").read())) for f in files}
    crates = {crate_lib(f) for f in files} - {None}
    elsewhere = {
        c: set().union(*(w for f, w in words.items() if crate_lib(f) != c)) for c in crates
    }

    unnamed = {}
    for f in files:
        c = crate_lib(f)
        if c is None:
            continue
        with open(f, encoding="utf-8") as src:
            for n, line in enumerate(src, 1):
                if line.startswith("#[cfg(test)]"):
                    break
                m = ITEM.match(line)
                name = m and (m.group(1) or m.group(2))
                if name and name not in elsewhere[c]:
                    unnamed[(f, name)] = n

    failed = False
    allowed = set()
    with open(ALLOW, encoding="utf-8") as allow:
        for n, line in enumerate(allow, 1):
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3:
                print(f"{ALLOW}:{n}: want `<file> <name> <reason>`: {line.rstrip()}")
                failed = True
                continue
            key = (parts[0], parts[1])
            allowed.add(key)
            if key not in unnamed:
                print(f"{ALLOW}:{n}: `{parts[1]}` in {parts[0]} is no longer an unnamed pub item; "
                      "drop the entry")
                failed = True
    for (f, name), n in sorted(unnamed.items()):
        if (f, name) not in allowed:
            print(f"{f}:{n}: pub `{name}` is named by no other unit; make it pub(crate), "
                  "delete it, or allowlist it with a reason")
            failed = True
    if failed:
        sys.exit(1)
    print(f"ok: every pub fn/const is named elsewhere ({len(allowed)} allowlisted)")


if __name__ == "__main__":
    main()
