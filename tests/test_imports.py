"""Every ``repro.*`` package must import in isolation, and every public
definition must have a caller outside ``tests/``.

Regression guard for the import cycle fixed alongside the streaming
estimator work: ``import repro.decomposition`` as the *first* repro import
used to die inside ``aggregation -> coloring -> decomposition`` (the
coloring package eagerly pulled its pipeline, which circles back through
the decomposition).  Each case below runs in a fresh interpreter so no
previously imported sibling can mask a cycle.
"""

from __future__ import annotations

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = str(REPO / "src")

PACKAGES = sorted(
    "repro." + p.parent.name
    for p in (Path(SRC) / "repro").glob("*/__init__.py")
) + ["repro"]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports_in_isolation(package):
    """A fresh interpreter can import the package before any other."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import {package}"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, (
        f"`import {package}` failed in isolation:\n{proc.stderr}"
    )


def test_lazy_coloring_exports_resolve():
    """The coloring package's lazily exported engine symbols resolve once
    the package is imported."""
    import repro.coloring as coloring

    for name in coloring._LAZY_EXPORTS:
        assert callable(getattr(coloring, name))


# ---------------------------------------------------------------------------
# No test-only islands: a definition that only tests call is code the
# program does not need, unless a test compares the program against it.

CALLER_DIRS = ("src", "examples", "perfbench", "tools")

#: Public definitions in ``src/repro`` that nothing outside ``tests/``
#: names, kept on purpose: qualified name -> why.
KEPT_FOR_TESTS = {
    "bfs_forest": "Lemma 3.2's BFS trees: the oracle for graphcore.bfs_depth",
    "SupportTree.build_bfs": "per-cluster oracle for the vectorized build_forest",
    "ClusterGraph.leader": "machine-level equivalence tests root their trees here",
    "CommGraph.degree": "exact machine degree the tests read",
    "CSRConflictGraph.degree": "exact H-degree that claims and oracles read",
    "MachineSimulator": "D1's validation simulator: the ledger is checked against it",
    "MachineSimulator.inbox": "reads a machine's delivered messages in those checks",
    "z_proxy": "scalar reference for the batched z~ of complete.py",
    "sparsity": "exact Definition 4.1 reference for the fingerprint estimates",
    "all_sparsities": "vectorized exact reference, checked against sparsity",
    "exact_acd_reference": "exact-friendliness ACD the fingerprint ACD is compared to",
    "check_acd": "Definition 4.2 postcondition, planned for every verified run",
    "check_colorful_matching": "Lemma 4.9 postcondition, planned for every verified run",
    "check_put_aside": "put-aside postcondition, planned for every verified run",
    "UpdateBatch.columns": "column-by-column oracle for batch round trips",
    "UpdateBatch.counts": "per-kind oracle for a stream report's events",
    "AlgorithmParameters.tau": "Section 6's tau = 4 eps, pinned by the preset tests",
    "encode_maxima": "Lemma 5.6's bitstring: the reference for encoded_size_bits",
    "decode_maxima": "inverse of encode_maxima: proves the encoding lossless",
    "trials_for": "inverse of Lemma 5.2's failure_probability_bound",
    "sample_geometric": "general-lambda reference for sample_geometric_half",
    "sample_max_of_geometrics_batch": "oracle for the fused fingerprint draws",
    "prob_max_below": "Claim 5.1's closed form, checked against sampling",
    "non_unique_max_bound": "Lemma 5.3's bound, checked against sampling",
    "argmax_with_uniqueness": "per-trial oracle for Lemma 5.3's uniqueness claim",
    "MinwiseHash.descriptor_bits": "Lemma C.2's descriptor width, pinned by a test",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IDENTIFIER = re.compile(r"[A-Za-z_][\w.:]*")


def _public_definitions() -> dict[str, str]:
    """Qualified name -> ``path:line`` of every public module-level
    function or class and every public method of one, outside the
    package ``__init__`` files."""
    found = {}
    for path in sorted((REPO / "src" / "repro").rglob("*.py")):
        if path.name == "__init__.py":
            continue
        where = path.relative_to(REPO)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, _DEFS) or node.name.startswith("_"):
                continue
            found[node.name] = f"{where}:{node.lineno}"
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS) and not sub.name.startswith("_"):
                        found[f"{node.name}.{sub.name}"] = f"{where}:{sub.lineno}"
    return found


def _references() -> tuple[set[str], set[str]]:
    """Every name the caller directories read, and the subset read as an
    attribute.  A def line is not a read; identifier-shaped strings
    count (``getattr`` targets, lazy-export tables); the package
    ``__init__`` files are re-exports, not callers."""
    names: set[str] = set()
    attributes: set[str] = set()
    for top in CALLER_DIRS:
        for path in (REPO / top).rglob("*.py"):
            if path.name == "__init__.py" and top == "src":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    if _IDENTIFIER.fullmatch(node.value):
                        attributes.update(re.split(r"[.:]", node.value))
    return names | attributes, attributes


def test_every_public_definition_has_a_caller_outside_tests():
    """A public function, class or method that only tests name is an
    island: delete it with the tests that only test it, or move it into
    ``tests/`` if a test uses it as an oracle.  A method counts as called
    only through an attribute or a string, since a bare name can be any
    local variable."""
    names, attributes = _references()
    islands = [
        f"{where} {qualified}"
        for qualified, where in _public_definitions().items()
        if qualified not in KEPT_FOR_TESTS
        and qualified.rsplit(".", 1)[-1]
        not in (attributes if "." in qualified else names)
    ]
    assert not islands, "no caller outside tests/:\n" + "\n".join(islands)


def test_kept_for_tests_names_live_islands():
    """Each ``KEPT_FOR_TESTS`` entry is still defined and still has no
    caller outside ``tests/``: an entry that gained one is stale."""
    definitions = _public_definitions()
    names, attributes = _references()
    stale = [
        qualified
        for qualified in KEPT_FOR_TESTS
        if qualified not in definitions
        or qualified.rsplit(".", 1)[-1]
        in (attributes if "." in qualified else names)
    ]
    assert not stale, f"stale KEPT_FOR_TESTS entries: {stale}"
