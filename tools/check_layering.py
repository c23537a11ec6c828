#!/usr/bin/env python3
"""Include-layering check for the libraries under src/.

Each directory src/<lib>/ builds one library, pdr_<lib>, and its
CMakeLists.txt names the libraries it links in `target_link_libraries`.
A quoted `#include "<dir>/..."` in src/<lib>/ may only reach <lib> itself
or a library that pdr_<lib> links, directly or through the libraries it
links. Anything else compiles only because every include path is visible
to every target, and hides a dependency the build graph does not have.
Stdlib only.

Usage: check_layering.py [SRC_DIR]   (default: the src/ next to tools/)
"""

import pathlib
import re
import sys

LINK_RE = re.compile(r"target_link_libraries\(\s*(\S+)([^)]*)\)", re.S)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"(([^"/]+)/[^"]*)"')
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h")


def direct_links(src):
    """{lib: set of src libraries pdr_<lib> links directly}."""
    libs = {p.parent.name for p in src.glob("*/CMakeLists.txt")}
    links = {}
    for lib in sorted(libs):
        text = (src / lib / "CMakeLists.txt").read_text()
        deps = set()
        for match in LINK_RE.finditer(text):
            if match.group(1) != f"pdr_{lib}":
                continue
            for word in match.group(2).split():
                if word.startswith("pdr_") and word[4:] in libs:
                    deps.add(word[4:])
        links[lib] = deps
    return links


def closure(links, lib):
    """Every src library pdr_<lib> links, directly or transitively."""
    seen, stack = set(), list(links[lib])
    while stack:
        dep = stack.pop()
        if dep not in seen:
            seen.add(dep)
            stack.extend(links.get(dep, ()))
    return seen


def violations(src):
    links = direct_links(src)
    out = []
    for lib in sorted(links):
        allowed = closure(links, lib) | {lib}
        for path in sorted((src / lib).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                match = INCLUDE_RE.match(line)
                if match and match.group(2) not in allowed:
                    rel = path.relative_to(src.parent)
                    out.append(f"{rel}:{number}: includes \"{match.group(1)}\", "
                               f"but pdr_{lib} does not link pdr_{match.group(2)}")
    return out


def main(argv):
    if len(argv) > 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    src = pathlib.Path(argv[1]) if len(argv) == 2 else \
        pathlib.Path(__file__).resolve().parent.parent / "src"
    if not any(src.glob("*/CMakeLists.txt")):
        print(f"check_layering: no src/<lib>/CMakeLists.txt under {src}", file=sys.stderr)
        return 2
    found = violations(src)
    for line in found:
        print(line)
    if found:
        print(f"check_layering: {len(found)} include(s) cross the library graph")
        return 1
    print("check_layering: every include stays inside its library's link closure")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
