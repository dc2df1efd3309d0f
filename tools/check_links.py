#!/usr/bin/env python
"""Markdown link checker for the repo docs, stdlib-only.

Scans the given markdown files for inline links and reference
definitions and verifies that every *local* target exists relative to
the file containing it (anchors are stripped; ``http(s)``/``mailto``
URLs are not fetched — CI must not depend on the network).  Links
inside fenced code blocks (```` ``` ```` or ``~~~``) and inline code
spans are ignored, and so are autolinks.  Usage::

    python tools/check_links.py README.md docs/*.md

Exits 1 listing every broken link, so the docs index stays navigable as
files move.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

__all__ = ["broken_links", "main"]

#: Inline ``[text](target)`` links; images share the syntax via ``!``.
_INLINE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
#: Reference definitions ``[label]: target``.
_REFDEF = re.compile(r"^\s*\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
#: Fenced code blocks (backtick or tilde fences), stripped first.
_FENCE = re.compile(
    r"^[ \t]*(`{3,}|~{3,}).*?^[ \t]*\1", re.DOTALL | re.MULTILINE
)
#: Inline code spans: a backtick run closed by a run of the same length,
#: within one paragraph.  Stripped after the fences.
_CODE_SPAN = re.compile(
    r"(?<!`)(`+)(?!`)(?:(?!\n[ \t]*\n).)+?(?<!`)\1(?!`)", re.DOTALL
)

_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def broken_links(path: Path) -> list[str]:
    """Local link targets in ``path`` that do not resolve to a file."""
    text = _CODE_SPAN.sub("", _FENCE.sub("", path.read_text(encoding="utf-8")))
    targets = _INLINE.findall(text) + _REFDEF.findall(text)
    bad = []
    for target in targets:
        if target.startswith(_EXTERNAL) or target.startswith("#"):
            continue
        local = target.split("#", 1)[0]
        if not local:
            continue
        if not (path.parent / local).exists():
            bad.append(target)
    return bad


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="+", type=Path)
    args = parser.parse_args(argv)

    n_checked = 0
    failures = 0
    for path in args.files:
        n_checked += 1
        for target in broken_links(path):
            print(f"{path}: broken link -> {target}")
            failures += 1
    print(f"checked {n_checked} files, {failures} broken links")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
