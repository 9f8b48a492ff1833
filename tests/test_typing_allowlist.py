"""Annotation-completeness audit for the mypy strict allowlist.

CI runs the real gate (``mypy --config-file mypy.ini src/repro``); mypy is
not vendored in the runtime image, so this test keeps a local, dependency-
free floor under the newly promoted modules: every function and method must
carry complete parameter and return annotations.  It cannot replace mypy's
type *checking*, but it catches the regression that actually happens in
practice — an unannotated def slipping into a promoted module — without
waiting for CI.
"""

import ast
import configparser
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).parents[1]

#: Modules promoted into mypy.ini's strict allowlist by the flow-analysis
#: PR.  (The audit is kept to these rather than parsing every allowlist
#: glob so it stays a cheap, targeted regression net.)
PROMOTED = sorted(
    [
        *(REPO_ROOT / "src" / "repro" / "fabric").glob("*.py"),
        REPO_ROOT / "src" / "repro" / "decode" / "graph.py",
        REPO_ROOT / "src" / "repro" / "decode" / "base.py",
        REPO_ROOT / "src" / "repro" / "decode" / "layered.py",
        REPO_ROOT / "src" / "repro" / "decode" / "native.py",
        REPO_ROOT / "src" / "repro" / "decode" / "min_sum.py",
        REPO_ROOT / "src" / "repro" / "decode" / "fixed_point.py",
        REPO_ROOT / "src" / "repro" / "sim" / "parallel.py",
        REPO_ROOT / "src" / "repro" / "devtools" / "linter.py",
        REPO_ROOT / "src" / "repro" / "devtools" / "flow.py",
        REPO_ROOT / "src" / "repro" / "devtools" / "callgraph.py",
    ]
)


def test_mypy_ini_promotes_the_modules():
    config = configparser.ConfigParser()
    config.read(REPO_ROOT / "mypy.ini")
    for section in (
        "mypy-repro.fabric,repro.fabric.*",
        "mypy-repro.decode.graph,repro.decode.base,repro.decode.layered",
        "mypy-repro.decode.native",
        "mypy-repro.decode.min_sum,repro.decode.fixed_point",
        "mypy-repro.sim.parallel",
    ):
        assert config.has_section(section), section
        assert config.get(section, "ignore_errors") == "False"


def _missing_annotations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    missing = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is None and arg.arg not in ("self", "cls"):
                missing.append(f"{node.name}:{node.lineno} param {arg.arg}")
        for star in (args.vararg, args.kwarg):
            if star is not None and star.annotation is None:
                missing.append(f"{node.name}:{node.lineno} *{star.arg}")
        if node.returns is None:
            missing.append(f"{node.name}:{node.lineno} return")
    return missing


@pytest.mark.parametrize(
    "path", PROMOTED, ids=lambda p: p.relative_to(REPO_ROOT).as_posix()
)
def test_promoted_module_is_fully_annotated(path):
    missing = _missing_annotations(path)
    assert missing == [], "\n".join(missing)
