"""The determinism linter: every REP1xx rule, noqa, baselines, rng warning.

Each rule is exercised through a *paired fixture*: a ``repNNN_bad.py`` file
that must fire exactly that rule and a ``repNNN_good.py`` sibling showing
the deterministic spelling, which must lint clean.  The fixtures are fed
through :func:`repro.devtools.lint_source` in-process — the linter never
imports them.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.devtools import (
    ALL_RULES,
    Baseline,
    DEFAULT_CONFIG,
    DETERMINISM_RULES,
    FLOW_RULES,
    SCHEMA_RULES,
    Violation,
    apply_baseline,
    iter_python_files,
    lint_paths,
    lint_source,
    rule,
)
from repro.utils.rng import UnseededRNGWarning, as_seed_sequence, ensure_rng

FIXTURES = Path(__file__).parent / "fixtures" / "lint"

#: The path each fixture is linted under.  REP107 only applies inside the
#: persistence scope, so its fixtures are presented as the campaign store;
#: REP110 only applies inside repro.obs, so its fixtures are presented as a
#: telemetry consumer module.
_LINT_PATHS = {
    "REP107": "src/repro/sim/campaign/store.py",
    "REP110": "src/repro/obs/consumers.py",
}

RULE_CODES = [r.code for r in DETERMINISM_RULES]


def _lint_fixture(code: str, flavour: str):
    name = f"{code.lower()}_{flavour}.py"
    source = (FIXTURES / name).read_text(encoding="utf-8")
    path = _LINT_PATHS.get(code, f"src/repro/example/{name}")
    return lint_source(source, path)


# --------------------------------------------------------------------------- #
# The rule catalog itself
# --------------------------------------------------------------------------- #
def test_catalog_has_at_least_eight_determinism_rules():
    assert len(DETERMINISM_RULES) >= 8
    assert len(SCHEMA_RULES) >= 4


def test_catalog_codes_are_unique_and_looked_up():
    assert len(ALL_RULES) == (
        len(DETERMINISM_RULES) + len(SCHEMA_RULES) + len(FLOW_RULES)
    )
    for code in RULE_CODES:
        assert rule(code).code == code
    with pytest.raises(KeyError):
        rule("REP999")


def test_every_rule_has_rationale():
    for item in ALL_RULES.values():
        assert item.summary and item.rationale


# --------------------------------------------------------------------------- #
# Paired fixtures: every rule fires on bad, stays silent on good
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("code", RULE_CODES)
def test_bad_fixture_fires_rule(code):
    violations = _lint_fixture(code, "bad")
    assert violations, f"{code} bad fixture produced no violations"
    assert {v.rule for v in violations} == {code}


@pytest.mark.parametrize("code", RULE_CODES)
def test_good_fixture_is_clean(code):
    assert _lint_fixture(code, "good") == []


def test_bad_fixtures_fire_multiple_forms():
    """Each bad fixture covers more than one spelling of its hazard."""
    for code in ("REP101", "REP102", "REP103", "REP104", "REP105",
                 "REP106", "REP107", "REP108", "REP109", "REP110"):
        assert len(_lint_fixture(code, "bad")) >= 2, code


# --------------------------------------------------------------------------- #
# Targeted rule behaviour
# --------------------------------------------------------------------------- #
def test_rep101_from_import_spelling():
    """A ``from numpy.random import`` cannot hide a legacy call."""
    source = (
        "from numpy.random import seed, normal\n"
        "seed(1)\n"
        "noise = normal(0.0, 1.0)\n"
    )
    violations = lint_source(source, "src/repro/x.py")
    assert [(v.rule, v.line) for v in violations] == [
        ("REP101", 2),
        ("REP101", 3),
    ]


def test_rep103_whitelisted_in_rng_module():
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert lint_source(source, "src/repro/utils/rng.py") == []
    assert lint_source(source, "src/repro/sim/montecarlo.py") != []


def test_rep103_seed_keyword_counts_as_seeded():
    clean = "from numpy.random import default_rng\nrng = default_rng(seed=3)\n"
    assert lint_source(clean, "src/repro/x.py") == []


def test_rep104_allows_perf_counter():
    source = "import time\nelapsed = time.perf_counter()\n"
    assert lint_source(source, "src/repro/x.py") == []


def test_rep110_only_in_obs_scope():
    source = "import time\nelapsed = time.perf_counter()\n"
    assert lint_source(source, "src/repro/sim/montecarlo.py") == []
    scoped = lint_source(source, "src/repro/obs/trace.py")
    assert [v.rule for v in scoped] == ["REP110"]


def test_obs_clock_chokepoint_is_whitelisted():
    source = (
        "import time\n"
        "def wall_time():\n"
        "    return time.time()\n"
        "def monotonic():\n"
        "    return time.perf_counter()\n"
    )
    assert lint_source(source, "src/repro/obs/clock.py") == []


def test_rep110_supersedes_rep104_wall_branch_in_obs():
    """time.time() in obs fires exactly REP110 — never a REP104 double."""
    source = "import time\nstamp = time.time()\n"
    assert [v.rule for v in lint_source(source, "src/repro/obs/events.py")] == [
        "REP110"
    ]


def test_rep104_datetime_branch_still_active_in_obs():
    source = "from datetime import datetime\nwhen = datetime.now()\n"
    assert [v.rule for v in lint_source(source, "src/repro/obs/events.py")] == [
        "REP104"
    ]


#: time-module wall-clock reads beyond time()/time_ns().
_TIME_WALL_READS = (
    "import time\n"
    "a = time.ctime()\n"
    "b = time.localtime()\n"
    "c = time.gmtime()\n"
)


def test_rep104_time_module_wall_reads():
    violations = lint_source(_TIME_WALL_READS, "src/repro/sim/montecarlo.py")
    assert [(v.rule, v.line) for v in violations] == [
        ("REP104", 2),
        ("REP104", 3),
        ("REP104", 4),
    ]


def test_rep110_time_module_wall_reads_in_obs():
    """Inside repro.obs the same reads fire REP110 only, never REP104."""
    violations = lint_source(_TIME_WALL_READS, "src/repro/obs/events.py")
    assert [(v.rule, v.line) for v in violations] == [
        ("REP110", 2),
        ("REP110", 3),
        ("REP110", 4),
    ]


def test_rep106_ignores_integer_comparison():
    source = "def f(n):\n    return n == 0\n"
    assert lint_source(source, "src/repro/x.py") == []


def test_rep107_only_in_persistence_scope():
    source = "def f(p, t):\n    open(p, 'w').write(t)\n"
    assert lint_source(source, "src/repro/analysis/report.py") == []
    scoped = lint_source(source, "src/repro/sim/results.py")
    assert [v.rule for v in scoped] == ["REP107"]


def test_rep107_read_mode_is_fine():
    source = "def f(p):\n    return open(p).read()\n"
    assert lint_source(source, "src/repro/sim/results.py") == []


def test_rep107_open_mode_spellings():
    """Path.open's mode is its first argument; '+' opens for writing; the
    module-level gzip.open takes its mode second, like the builtin."""
    store = "src/repro/sim/campaign/store.py"
    writes = (
        "def save(path, text):\n"
        "    with path.open(\"w\") as handle:\n"
        "        handle.write(text)\n"
        "    with open(path, \"r+\") as handle:\n"
        "        handle.write(text)\n"
    )
    assert [(v.rule, v.line) for v in lint_source(writes, store)] == [
        ("REP107", 2),
        ("REP107", 4),
    ]
    reads = (
        "import gzip\n"
        "def load(path):\n"
        "    path.open().close()\n"
        "    open(path).close()\n"
        "    path.open(\"rb\").close()\n"
        "    return gzip.open(\"data.gz\", \"rb\").read()\n"
    )
    assert lint_source(reads, store) == []


#: Newly audited persistence paths (PR 10 scope widening), each with its
#: own paired fixture: the raw-write spellings that must now fire there
#: and the atomic (or audited-append) spelling that must stay clean.
_PERSISTENCE_FIXTURES = {
    "rep107_pool": "src/repro/fabric/pool.py",
    "rep107_events": "src/repro/obs/events.py",
}


@pytest.mark.parametrize("stem", sorted(_PERSISTENCE_FIXTURES))
def test_rep107_widened_scope_bad_fixture_fires(stem):
    source = (FIXTURES / f"{stem}_bad.py").read_text(encoding="utf-8")
    violations = lint_source(source, _PERSISTENCE_FIXTURES[stem])
    assert len(violations) >= 2, stem
    assert {v.rule for v in violations} == {"REP107"}


@pytest.mark.parametrize("stem", sorted(_PERSISTENCE_FIXTURES))
def test_rep107_widened_scope_good_fixture_is_clean(stem):
    source = (FIXTURES / f"{stem}_good.py").read_text(encoding="utf-8")
    assert lint_source(source, _PERSISTENCE_FIXTURES[stem]) == []


def test_rep107_widened_scope_is_path_sensitive():
    """The same raw write stays legal outside the persistence scope."""
    source = (FIXTURES / "rep107_pool_bad.py").read_text(encoding="utf-8")
    assert lint_source(source, "src/repro/analysis/report.py") == []


def test_syntax_error_raises():
    with pytest.raises(SyntaxError):
        lint_source("def broken(:\n", "src/repro/x.py")


# --------------------------------------------------------------------------- #
# noqa suppression
# --------------------------------------------------------------------------- #
def test_noqa_with_code_suppresses():
    source = "import numpy as np\nr = np.random.default_rng()  # repro: noqa[REP103]\n"
    assert lint_source(source, "src/repro/x.py") == []


def test_bare_noqa_suppresses_everything():
    source = "import numpy as np\nr = np.random.default_rng()  # repro: noqa\n"
    assert lint_source(source, "src/repro/x.py") == []


def test_noqa_with_other_code_does_not_suppress():
    source = "import numpy as np\nr = np.random.default_rng()  # repro: noqa[REP101]\n"
    assert [v.rule for v in lint_source(source, "src/repro/x.py")] == ["REP103"]


def test_noqa_list_of_codes():
    source = (
        "import numpy as np\n"
        "r = np.random.default_rng()  # repro: noqa[REP101, REP103]\n"
    )
    assert lint_source(source, "src/repro/x.py") == []


# --------------------------------------------------------------------------- #
# Config: rule selection
# --------------------------------------------------------------------------- #
def test_with_select_restricts_rules():
    config = DEFAULT_CONFIG.with_select(["REP102"])
    source = "import random\nimport numpy as np\nr = np.random.default_rng()\n"
    assert [v.rule for v in lint_source(source, "src/repro/x.py", config=config)] == [
        "REP102"
    ]


def test_with_select_rejects_unknown_codes():
    with pytest.raises(ValueError, match="REP777"):
        DEFAULT_CONFIG.with_select(["REP777"])


# --------------------------------------------------------------------------- #
# Files and paths
# --------------------------------------------------------------------------- #
def test_iter_python_files_missing_path_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        list(iter_python_files([tmp_path / "nope"]))


def test_lint_paths_reports_relative_posix(tmp_path):
    bad = tmp_path / "pkg" / "mod.py"
    bad.parent.mkdir()
    bad.write_text("import random\n")
    violations = lint_paths([tmp_path], root=tmp_path)
    assert [v.path for v in violations] == ["pkg/mod.py"]
    assert [v.rule for v in violations] == ["REP102"]


# --------------------------------------------------------------------------- #
# Baselines
# --------------------------------------------------------------------------- #
def _violation(path="a.py", rule_code="REP102", snippet="import random"):
    return Violation(rule_code, path, 1, 0, "msg", snippet)


def test_baseline_roundtrip_and_split(tmp_path):
    known = _violation()
    fresh = _violation(snippet="from random import shuffle")
    baseline_path = tmp_path / "baseline.json"
    Baseline.from_violations([known]).save(baseline_path)

    new, matched = apply_baseline([known, fresh], baseline_path)
    assert matched == [known]
    assert new == [fresh]


def test_baseline_is_line_number_independent(tmp_path):
    path = tmp_path / "baseline.json"
    Baseline.from_violations([_violation()]).save(path)
    moved = Violation("REP102", "a.py", 99, 4, "msg", "import random")
    new, matched = apply_baseline([moved], path)
    assert new == [] and matched == [moved]


def test_baseline_multiset_budget(tmp_path):
    path = tmp_path / "baseline.json"
    Baseline.from_violations([_violation()]).save(path)
    # The same identity twice: one absorbed, the duplicate is new debt.
    first, second = _violation(), _violation()
    new, matched = apply_baseline([first, second], path)
    assert len(matched) == 1 and len(new) == 1


def test_baseline_rejects_unknown_format(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"format": "other", "violations": []}))
    with pytest.raises(ValueError):
        Baseline.load(path)


# --------------------------------------------------------------------------- #
# The library itself stays clean (the CI gate, in-process)
# --------------------------------------------------------------------------- #
def test_src_repro_has_no_new_violations():
    repo_root = Path(__file__).parents[1]
    violations = lint_paths([repo_root / "src" / "repro"], root=repo_root)
    baseline = repo_root / ".repro-lint-baseline.json"
    if baseline.exists():
        violations, _ = apply_baseline(violations, baseline)
    assert violations == [], "\n".join(v.render() for v in violations)


# --------------------------------------------------------------------------- #
# The unseeded-RNG fallback warns (the REP103 runtime chokepoint)
# --------------------------------------------------------------------------- #
def test_ensure_rng_none_warns():
    with pytest.warns(UnseededRNGWarning):
        ensure_rng(None)


def test_as_seed_sequence_none_warns():
    with pytest.warns(UnseededRNGWarning):
        as_seed_sequence(None)


def test_seeded_calls_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnseededRNGWarning)
        ensure_rng(123)
        ensure_rng(np.random.default_rng(5))
        as_seed_sequence(np.random.SeedSequence(7))
