#!/usr/bin/env python
"""Docstring-presence lint for the public API of the ``repro`` package.

The architecture contract (docs/ARCHITECTURE.md) promises that every
public symbol documents its arguments, shapes, and invariants -- the
batched kernels (``repro.graphcore``), the streaming engine
(``repro.dynamic``), the fingerprint estimators (``repro.sketch``,
docs/ESTIMATORS.md), the ledger and fabric model (``repro.network``,
docs/NETWORK.md), the checkers (``repro.verify``) and every other
package.  This lint enforces the *presence* half of that promise
statically: every public module, class, function, and method under
``src/repro`` must carry a docstring.

Run from the repo root (CI's docs job does):

    python tools/lint_docstrings.py                  # lint src/repro
    python tools/lint_docstrings.py src/repro/dynamic  # or explicit targets

Exit code 0 iff no public symbol is missing a docstring.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT_TARGETS = ("src/repro",)

FunctionNode = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_public(name: str) -> bool:
    """Lintable name: not underscore-private (dunders like ``__init__`` are
    documented by their class; they are exempt too)."""
    return not name.startswith("_")


def iter_undocumented(tree: ast.Module) -> list[tuple[int, str, str]]:
    """Yield ``(lineno, kind, qualified_name)`` for every public symbol of
    the parsed module that lacks a docstring.  Nested defs inside function
    bodies are implementation details and are skipped."""
    missing: list[tuple[int, str, str]] = []
    if ast.get_docstring(tree) is None:
        missing.append((1, "module", "<module>"))

    def visit(nodes, prefix: str) -> None:
        for node in nodes:
            if isinstance(node, FunctionNode) and is_public(node.name):
                qual = f"{prefix}{node.name}"
                if ast.get_docstring(node) is None:
                    missing.append((node.lineno, "def", qual))
                # do not descend: nested defs are private by construction
            elif isinstance(node, ast.ClassDef) and is_public(node.name):
                qual = f"{prefix}{node.name}"
                if ast.get_docstring(node) is None:
                    missing.append((node.lineno, "class", qual))
                visit(node.body, qual + ".")

    visit(tree.body, "")
    return missing


def lint_file(path: Path) -> list[str]:
    """Lint one Python file; returns human-readable violation lines."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path}:{lineno}: undocumented public {kind} {name}"
        for lineno, kind, name in iter_undocumented(tree)
    ]


def main(argv: list[str]) -> int:
    """Lint every ``.py`` file under the target directories (or files)."""
    targets = argv or list(DEFAULT_TARGETS)
    failures: list[str] = []
    checked = 0
    for target in targets:
        root = Path(target)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        if not files or not all(f.is_file() for f in files):
            print(f"lint_docstrings: no Python files under {target}", file=sys.stderr)
            return 2
        for path in files:
            failures.extend(lint_file(path))
            checked += 1
    for line in failures:
        print(line)
    print(
        f"lint_docstrings: {checked} files checked, {len(failures)} "
        f"undocumented public symbols"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
