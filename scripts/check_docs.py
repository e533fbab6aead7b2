#!/usr/bin/env python
"""Docs integrity: links must resolve and named symbols must exist.

Two checks:

* **Links.**  Scans ``*.md`` at the repository root and under ``docs/`` for
  inline markdown links (``[text](target)``) and checks that every
  **relative** target exists on disk.
* **Symbols.**  Every backticked dotted ``repro.…`` name in ``README.md``
  and ``docs/**/*.md`` (``repro.core.kernel.search``, or a module wildcard
  like ``repro.core.*``) must import and resolve against ``src/``.  The
  history and plan files at the root (``CHANGES.md``, ``ROADMAP.md``, ...)
  are left out: they name code that is gone or not yet written.

Skipped by the link check, deliberately:

* absolute URLs (``http://``, ``https://``, ``mailto:`` — any scheme);
* pure in-page anchors (``#section``);
* targets that resolve outside the repository root (the README's CI badge
  links point at ``../../actions/...`` on the GitHub host, not at files).

Anchors on relative links (``FILE.md#section``) are checked for the file
part only.  Exits non-zero listing every broken link and unresolved name;
CI runs this in the lint job (and ``tests/test_docs_integrity.py`` runs it
in tier-1).
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path
from typing import List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

#: ``[text](target)`` with a non-empty, paren-free target; images too.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: ``scheme:`` prefixes mark external targets (http, https, mailto, ...).
_SCHEME = re.compile(r"^[a-zA-Z][a-zA-Z0-9+.-]*:")

#: A whole backticked span holding a dotted ``repro`` name, optionally a
#: ``.*`` module wildcard.
_SYMBOL = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\.\*)?`")


def markdown_files() -> List[Path]:
    """The checked set: ``*.md`` at the repo root and under ``docs/``."""
    files = sorted(REPO_ROOT.glob("*.md"))
    files.extend(sorted((REPO_ROOT / "docs").glob("**/*.md")))
    return files


def broken_links(path: Path) -> List[Tuple[str, str]]:
    """Every ``(target, why)`` in ``path`` that fails the check."""
    problems = []
    for target in _LINK.findall(path.read_text(encoding="utf-8")):
        if _SCHEME.match(target) or target.startswith("#"):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        try:
            resolved.relative_to(REPO_ROOT)
        except ValueError:
            continue  # escapes the repo (e.g. GitHub badge paths): not ours to check
        if not resolved.exists():
            problems.append((target, f"does not exist: {resolved}"))
    return problems


def symbol_files() -> List[Path]:
    """The files whose ``repro.…`` names must resolve: the README and docs."""
    return [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("**/*.md"))]


def resolve(name: str) -> Optional[str]:
    """``None`` when the dotted ``name`` imports and resolves, else why not.

    The longest importable module prefix is imported and the rest of the
    name is looked up as attributes on it.
    """
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if exc.name == module_name or module_name.startswith(f"{exc.name}."):
                continue  # not a module: try the next shorter prefix
            return f"importing {module_name} failed: {exc}"
        except Exception as exc:  # any other import failure is a finding too
            return f"importing {module_name} failed: {exc!r}"
        for depth in range(cut, len(parts)):
            try:
                target = getattr(target, parts[depth])
            except AttributeError:
                return f"{'.'.join(parts[:depth])} has no attribute {parts[depth]!r}"
        return None
    return f"no module named {parts[0]!r}"


def unresolved_symbols(path: Path) -> List[Tuple[str, str]]:
    """Every ``(name, why)`` in ``path`` that does not import and resolve."""
    names = dict.fromkeys(_SYMBOL.findall(path.read_text(encoding="utf-8")))
    return [(name, why) for name in names if (why := resolve(name)) is not None]


def main() -> int:
    failures = 0
    files = markdown_files()
    for path in files:
        for target, why in broken_links(path):
            failures += 1
            print(f"{path.relative_to(REPO_ROOT)}: broken link ({target}) — {why}")
    names = 0
    for path in symbol_files():
        names += len(set(_SYMBOL.findall(path.read_text(encoding="utf-8"))))
        for name, why in unresolved_symbols(path):
            failures += 1
            print(f"{path.relative_to(REPO_ROOT)}: unresolved name `{name}` — {why}")
    if failures:
        print(f"{failures} broken link(s) or unresolved name(s) across the markdown files")
        return 1
    print(
        f"docs integrity OK: {len(files)} markdown file(s), all relative links resolve; "
        f"{names} repro name(s) resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
