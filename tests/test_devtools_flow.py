"""The whole-program flow analyzer: call graph, taint, REP3xx/REP4xx.

Three layers of coverage:

* **Call-graph substrate** — :class:`repro.devtools.Project` unit tests:
  module naming, aliased-import canonicalization, re-export chains (with
  cycles), method resolution through annotations and base classes,
  dataclass-field typing and the callers index.
* **Taint engine** — RNG provenance propagation through assignments,
  helper returns and parameters, exercised via the ``returns_taint``
  fixpoint and via end-to-end rule behaviour on in-memory projects.
* **Paired fixtures** — every REP3xx/REP4xx rule has a multi-file bad
  project under ``tests/fixtures/flow/`` that must fire exactly that rule
  with an inter-file evidence chain, and a good sibling that must be
  clean.  A final regression test asserts ``src/repro`` itself analyzes
  clean — the CI gate, in-process.

Like the single-file linter's fixtures, the projects here are analyzed
from source text only — the flow analyzer never imports them.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.devtools import (
    DEFAULT_FLOW_CONFIG,
    FLOW_CODES,
    FLOW_RULES,
    Project,
    analyze_paths,
    analyze_sources,
    rule,
)
from repro.devtools.callgraph import (
    ClassInfo,
    FunctionInfo,
    module_name_for_path,
)
from repro.devtools.flow import _FlowAnalyzer

FIXTURES = Path(__file__).parent / "fixtures" / "flow"
REPO_ROOT = Path(__file__).parents[1]

#: Per-rule overrides: fixture projects are tiny free-standing trees, so
#: scope-by-path rules need their scopes pointed at the fixture files.
_FIXTURE_CONFIGS = {
    "REP402": replace(
        DEFAULT_FLOW_CONFIG,
        persistence_suffixes=("state_store.py",),
        persistence_whitelist=("filesafe.py",),
    ),
}


def _fixture_sources(name):
    directory = FIXTURES / name
    return {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(directory.glob("*.py"))
    }


def _analyze_fixture(code, flavour):
    sources = _fixture_sources(f"{code.lower()}_{flavour}")
    config = _FIXTURE_CONFIGS.get(code, DEFAULT_FLOW_CONFIG)
    return analyze_sources(sources, config=config), set(sources)


# --------------------------------------------------------------------------- #
# Rule catalog
# --------------------------------------------------------------------------- #
def test_flow_catalog_covers_both_families():
    assert set(FLOW_CODES) == {r.code for r in FLOW_RULES}
    assert any(code.startswith("REP3") for code in FLOW_CODES)
    assert any(code.startswith("REP4") for code in FLOW_CODES)
    for code in FLOW_CODES:
        assert rule(code).rationale


# --------------------------------------------------------------------------- #
# Call-graph substrate
# --------------------------------------------------------------------------- #
def test_module_name_for_path():
    assert module_name_for_path("src/repro/utils/rng.py") == "repro.utils.rng"
    assert module_name_for_path("src/repro/obs/__init__.py") == "repro.obs"
    assert module_name_for_path("helper.py") == "helper"


def test_aliased_import_canonicalization():
    project = Project.from_sources(
        {
            "app.py": "import numpy as np\nimport pkg.tools as tk\n",
            "pkg/__init__.py": "",
            "pkg/tools.py": "def craft():\n    return 1\n",
        }
    )
    app = project.modules["app"]
    assert (
        project.canonical(app, "np.random.default_rng")
        == "numpy.random.default_rng"
    )
    assert project.canonical(app, "tk.craft") == "pkg.tools.craft"
    resolved = project.lookup("pkg.tools.craft")
    assert isinstance(resolved, FunctionInfo)
    assert resolved.path == "pkg/tools.py"


def test_reexport_chain_through_package_init():
    project = Project.from_sources(
        {
            "pkg/__init__.py": "from pkg.inner import craft\n",
            "pkg/inner.py": "def craft():\n    return 1\n",
            "app.py": "from pkg import craft\n",
        }
    )
    app = project.modules["app"]
    assert project.canonical(app, "craft") == "pkg.inner.craft"
    assert isinstance(project.lookup("pkg.inner.craft"), FunctionInfo)


def test_reexport_cycle_terminates():
    """Mutually re-exporting modules must not hang canonicalization."""
    project = Project.from_sources(
        {
            "a.py": "from b import thing\n",
            "b.py": "from a import thing\n",
        }
    )
    module_a = project.modules["a"]
    # No fixpoint exists; the cycle guard just has to return *something*.
    assert isinstance(project.canonical(module_a, "thing"), str)


def test_method_resolution_via_annotation_and_bases():
    project = Project.from_sources(
        {
            "shapes.py": (
                "class Base:\n"
                "    def area(self):\n"
                "        return 0\n"
                "class Square(Base):\n"
                "    def side(self):\n"
                "        return 1\n"
            ),
            "app.py": (
                "from shapes import Square\n"
                "def measure(shape: Square):\n"
                "    return shape.area() + shape.side()\n"
            ),
        }
    )
    square = project.lookup("shapes.Square")
    assert isinstance(square, ClassInfo)
    inherited = project.method(square, "area")
    assert inherited is not None and inherited.qualname == "shapes.Base.area"

    measure = project.lookup("app.measure")
    scope = project.scope(measure)
    targets = {site.target for site in scope.calls}
    assert "shapes.Base.area" in targets
    assert "shapes.Square.side" in targets


def test_dataclass_field_type_resolution():
    project = Project.from_sources(
        {
            "jobs.py": (
                "import dataclasses\n"
                "import numpy as np\n"
                "@dataclasses.dataclass\n"
                "class Job:\n"
                "    seed_seq: np.random.SeedSequence\n"
            ),
        }
    )
    job = project.lookup("jobs.Job")
    assert isinstance(job, ClassInfo)
    assert project.field_type(job, "seed_seq") == "numpy.random.SeedSequence"
    assert project.field_type(job, "missing") is None


def test_callers_index_maps_cross_module_edges():
    project = Project.from_sources(
        {
            "lib.py": "def helper():\n    return 1\n",
            "app.py": "import lib\ndef run():\n    return lib.helper()\n",
        }
    )
    callers = project.callers()
    assert "lib.helper" in callers
    (caller, node), = callers["lib.helper"]
    assert caller.qualname == "app.run"
    assert node.lineno == 3


# --------------------------------------------------------------------------- #
# Taint engine
# --------------------------------------------------------------------------- #
def test_returns_taint_fixpoint_crosses_modules():
    project = Project.from_sources(
        {
            "leaf.py": (
                "import numpy as np\n"
                "def root_seq(seed):\n"
                "    return np.random.SeedSequence(seed)\n"
            ),
            "mid.py": (
                "import leaf\n"
                "def relay(seed):\n"
                "    return leaf.root_seq(seed)\n"
                "def unrelated():\n"
                "    return 42\n"
            ),
        }
    )
    analyzer = _FlowAnalyzer(project, DEFAULT_FLOW_CONFIG)
    analyzer.compute_returns_taint()
    assert analyzer.returns_taint["leaf.root_seq"] is True
    assert analyzer.returns_taint["mid.relay"] is True
    assert analyzer.returns_taint["mid.unrelated"] is False


def test_provenance_through_helper_is_not_flagged():
    """REP301 follows seeds across modules before flagging — a generator
    built from a helper-returned SeedSequence is fine."""
    sources = {
        "seeds.py": (
            "import numpy as np\n"
            "def shard_seq(seed, index):\n"
            "    return np.random.SeedSequence((seed, index))\n"
        ),
        "sim.py": (
            "import numpy as np\n"
            "import seeds\n"
            "def build(seed, index):\n"
            "    return np.random.default_rng(seeds.shard_seq(seed, index))\n"
        ),
    }
    assert analyze_sources(sources) == []


def test_rng_parameter_names_count_as_provenance():
    sources = {
        "sim.py": (
            "import numpy as np\n"
            "def build(rng_seed):\n"
            "    return np.random.default_rng(rng_seed)\n"
        ),
    }
    assert analyze_sources(sources) == []


def test_noqa_silences_flow_findings():
    sources = _fixture_sources("rep301_bad")
    dirty = analyze_sources(sources)
    assert [v.rule for v in dirty] == ["REP301"]
    target = dirty[0]
    lines = sources[target.path].splitlines()
    lines[target.line - 1] += "  # repro: noqa[REP301]"
    sources[target.path] = "\n".join(lines) + "\n"
    assert analyze_sources(sources) == []


def test_with_select_restricts_flow_rules():
    config = DEFAULT_FLOW_CONFIG.with_select(["REP402"])
    sources = _fixture_sources("rep301_bad")
    assert analyze_sources(sources, config=config) == []


def test_with_select_keeps_only_flow_codes():
    """The CLI hands the *combined* --select set (already validated by
    LinterConfig) to both analyzers; FlowConfig keeps its own codes."""
    config = DEFAULT_FLOW_CONFIG.with_select(["REP103", "REP402"])
    assert config.select == frozenset({"REP402"})


# --------------------------------------------------------------------------- #
# Paired fixtures: every rule fires on bad with a cross-file chain,
# stays silent on good
# --------------------------------------------------------------------------- #
def _mentions_other_file(violation, filenames):
    others = filenames - {violation.path}
    return any(
        name in entry for entry in violation.evidence for name in others
    )


@pytest.mark.parametrize("code", FLOW_CODES)
def test_bad_fixture_fires_rule_with_cross_file_evidence(code):
    violations, filenames = _analyze_fixture(code, "bad")
    assert violations, f"{code} bad fixture produced no violations"
    assert {v.rule for v in violations} == {code}
    assert any(
        _mentions_other_file(v, filenames) for v in violations
    ), f"{code}: no evidence chain crosses a file boundary"
    for violation in violations:
        assert violation.evidence
        assert "[chain:" in violation.message


@pytest.mark.parametrize("code", FLOW_CODES)
def test_good_fixture_is_clean(code):
    violations, _ = _analyze_fixture(code, "good")
    assert violations == [], "\n".join(v.render() for v in violations)


def test_rep402_reaches_path_open_write():
    """A helper writing through ``path.open("w")`` is a raw write too."""
    sources = {
        "disk.py": (
            "def dump(path, text):\n"
            "    with path.open(\"w\") as handle:\n"
            "        handle.write(text)\n"
        ),
        "state_store.py": (
            "from disk import dump\n"
            "def save_state(path, text):\n"
            "    dump(path, text)\n"
        ),
    }
    violations = analyze_sources(sources, config=_FIXTURE_CONFIGS["REP402"])
    assert [(v.rule, v.path, v.line) for v in violations] == [
        ("REP402", "state_store.py", 3)
    ]
    assert "disk.py:2" in violations[0].evidence[-1]


def test_violation_dict_carries_evidence():
    violations, _ = _analyze_fixture("REP402", "bad")
    payload = violations[0].as_dict()
    assert payload["rule"] == "REP402"
    assert isinstance(payload["evidence"], list) and payload["evidence"]


# --------------------------------------------------------------------------- #
# Self-application: the library's own tree is the ultimate good fixture
# --------------------------------------------------------------------------- #
def test_src_repro_flow_analyzes_clean():
    violations = analyze_paths(
        [REPO_ROOT / "src" / "repro"], root=REPO_ROOT
    )
    assert violations == [], "\n".join(v.render() for v in violations)
