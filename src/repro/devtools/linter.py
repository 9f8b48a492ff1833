"""AST-based determinism linter (the ``REP1xx`` rules).

The linter parses library source with :mod:`ast` — it never imports the
code under analysis — and reports :class:`Violation`\\ s against the rule
catalog in :mod:`repro.devtools.rules`.  It is importable machinery first
and a CLI second: tests feed sources through :func:`lint_source` directly,
the ``repro lint`` command wraps :func:`lint_paths`.

Suppression and debt management:

* a trailing ``# repro: noqa[REP103]`` comment (comma-separated codes, or
  bare ``# repro: noqa`` for all rules) silences violations on that line;
* a committed baseline (:mod:`repro.devtools.baseline`) lets pre-existing
  violations burn down instead of blocking the gate.

Violations identify themselves by ``(path, rule, stripped source line)``
rather than line numbers, so unrelated edits above a baselined violation do
not invalidate the baseline.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.devtools.rules import ALL_RULES, DETERMINISM_RULES

__all__ = [
    "Violation",
    "LinterConfig",
    "DEFAULT_CONFIG",
    "lint_source",
    "lint_paths",
    "iter_python_files",
]


@dataclass(frozen=True)
class Violation:
    """One rule violation at a source location.

    ``snippet`` (the stripped source line) plus ``path`` and ``rule`` form
    the violation's *identity* — what ``noqa`` cannot silence is matched
    against baselines by identity, so baselined debt survives unrelated
    edits that only shift line numbers.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    snippet: str = ""

    @property
    def identity(self) -> tuple[str, str, str]:
        """Baseline-matching key: ``(path, rule, snippet)``."""
        return (self.path, self.rule, self.snippet)

    def render(self) -> str:
        """Human-readable one-line form (``path:line:col: CODE message``)."""
        return f"{self.path}:{self.line}:{self.column}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly form (``repro lint --format json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "column": self.column,
            "message": self.message,
            "snippet": self.snippet,
        }


@dataclass(frozen=True)
class LinterConfig:
    """What the determinism linter enforces and where.

    Attributes
    ----------
    select:
        Rule codes to enforce (default: every ``REP1xx`` rule).
    unseeded_whitelist:
        Path suffixes (posix form) where REP103's unseeded fallback is the
        documented, warning-emitting default — only
        ``repro/utils/rng.py`` by default.
    persistence_suffixes:
        Path suffixes whose writes REP107 constrains to the atomic helper:
        the campaign store and everything that persists curves.
    persistence_whitelist:
        Path suffixes exempt from REP107 inside the persistence scope —
        the atomic-write helper itself must, of course, write.
    obs_scopes:
        Path fragments marking the telemetry subsystem, where REP110
        requires every clock read — wall *and* monotonic — to go through
        the audited ``repro.obs.clock`` chokepoint.  Inside this scope
        REP104's time-module branch stands down in favour of REP110 (its
        datetime branch still applies).
    wall_clock_whitelist:
        Path suffixes exempt from both REP104 and REP110: the audited
        clock chokepoint itself, which exists precisely to contain the
        raw ``time`` calls.
    """

    select: frozenset[str] = frozenset(r.code for r in DETERMINISM_RULES)
    unseeded_whitelist: tuple[str, ...] = ("repro/utils/rng.py",)
    persistence_suffixes: tuple[str, ...] = (
        "repro/sim/campaign/store.py",
        "repro/sim/campaign/spec.py",
        "repro/sim/results.py",
        "repro/fabric/broker.py",
        "repro/fabric/pool.py",
        "repro/obs/metrics.py",
        "repro/obs/events.py",
    )
    persistence_whitelist: tuple[str, ...] = ("repro/utils/files.py",)
    obs_scopes: tuple[str, ...] = ("repro/obs/",)
    wall_clock_whitelist: tuple[str, ...] = ("repro/obs/clock.py",)

    def with_select(self, codes: Iterable[str]) -> "LinterConfig":
        """A copy enforcing only ``codes`` (validated against the catalog)."""
        wanted = frozenset(codes)
        unknown = sorted(wanted - set(ALL_RULES))
        if unknown:
            raise ValueError(f"unknown rule code(s): {unknown}")
        return replace(self, select=wanted)


DEFAULT_CONFIG = LinterConfig()

# --------------------------------------------------------------------------- #
# Suppression comments
# --------------------------------------------------------------------------- #
_NOQA = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)

#: Sentinel meaning "every rule suppressed on this line".
_ALL_CODES = frozenset({"*"})


def _noqa_directives(source: str) -> dict[int, frozenset[str]]:
    """Map 1-based line numbers to the rule codes suppressed on them."""
    directives: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA.search(text)
        if not match:
            continue
        codes = match.group("codes")
        if codes is None:
            directives[lineno] = _ALL_CODES
        else:
            directives[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip()
            )
    return directives


def _suppressed(
    violation: Violation, directives: dict[int, frozenset[str]]
) -> bool:
    codes = directives.get(violation.line)
    if codes is None:
        return False
    return codes is _ALL_CODES or "*" in codes or violation.rule in codes


# --------------------------------------------------------------------------- #
# Name-resolution helpers
# --------------------------------------------------------------------------- #
def _dotted(node: ast.expr) -> str | None:
    """The dotted-name form of a Name/Attribute chain, or ``None``."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


#: Legacy global-state entry points of ``numpy.random`` — everything that
#: draws from (or mutates) the hidden module-level RandomState.
_LEGACY_NUMPY_RANDOM = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "random_integers", "choice", "shuffle",
        "permutation", "bytes", "normal", "standard_normal", "uniform",
        "binomial", "poisson", "exponential", "beta", "gamma", "gumbel",
        "laplace", "logistic", "lognormal", "rayleigh", "triangular",
        "vonmises", "wald", "weibull", "zipf", "get_state", "set_state",
        "RandomState",
    }
)

_WALL_CLOCK_TIME = frozenset({"time", "time_ns"})
_WALL_CLOCK_DATETIME = frozenset({"now", "utcnow", "today"})
#: Every clock-reading function of the ``time`` module — what REP110 keeps
#: out of repro.obs consumers (superset of the wall-clock pair REP104 flags).
_TIMING_FUNCTIONS = frozenset(
    {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
        "thread_time", "thread_time_ns",
    }
)
_POOL_METHODS = frozenset(
    {
        "map", "map_async", "imap", "imap_unordered", "apply",
        "apply_async", "starmap", "starmap_async", "submit",
    }
)
_ENTROPY_CALLS = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})
_SET_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter", "join"})


def _is_set_expr(node: ast.expr) -> bool:
    """Whether ``node`` evaluates to a set with certainty (literal/ctor)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_float_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_literal(node.operand)
    return False


# --------------------------------------------------------------------------- #
# The visitor
# --------------------------------------------------------------------------- #
class _DeterminismVisitor(ast.NodeVisitor):
    """Single-pass AST walk emitting determinism violations."""

    def __init__(self, path: str, source_lines: Sequence[str], config: LinterConfig):
        self.path = path
        self.lines = source_lines
        self.config = config
        self.violations: list[Violation] = []
        # Import tracking — alias name -> canonical module / object.
        self.numpy_random_aliases: set[str] = set()      # bound to numpy.random
        self.numpy_aliases: set[str] = set()             # bound to numpy
        self.default_rng_names: set[str] = set()         # from numpy.random import default_rng
        self.seed_sequence_names: set[str] = set()       # ... import SeedSequence
        self.time_module_aliases: set[str] = set()
        self.wall_clock_names: set[str] = set()          # from time import time
        self.timing_names: set[str] = set()              # ... import perf_counter, ...
        self.datetime_module_aliases: set[str] = set()
        self.datetime_class_aliases: set[str] = set()    # from datetime import datetime
        self.date_class_aliases: set[str] = set()        # from datetime import date
        self.os_aliases: set[str] = set()
        self.uuid_aliases: set[str] = set()
        self.secrets_aliases: set[str] = set()
        self.entropy_names: set[str] = set()             # from uuid import uuid4, ...
        # Nested-function names per enclosing function scope (REP108).
        self._function_depth = 0
        self.nested_functions: set[str] = set()

    # -- plumbing ------------------------------------------------------- #
    def _emit(self, code: str, node: ast.AST, message: str) -> None:
        if code not in self.config.select:
            return
        line = getattr(node, "lineno", 1)
        column = getattr(node, "col_offset", 0)
        snippet = (
            self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        )
        self.violations.append(
            Violation(code, self.path, line, column, message, snippet)
        )

    def _path_matches(self, suffixes: tuple[str, ...]) -> bool:
        return any(self.path.endswith(suffix) for suffix in suffixes)

    @property
    def _persistence_scope(self) -> bool:
        return self._path_matches(
            self.config.persistence_suffixes
        ) and not self._path_matches(self.config.persistence_whitelist)

    @property
    def _obs_scope(self) -> bool:
        """Inside repro.obs but not the audited clock chokepoint itself."""
        return any(
            fragment in self.path for fragment in self.config.obs_scopes
        ) and not self._path_matches(self.config.wall_clock_whitelist)

    # -- imports -------------------------------------------------------- #
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._emit(
                    "REP102",
                    node,
                    "library code must not use the stdlib `random` module; "
                    "derive numpy Generators via repro.utils.rng instead",
                )
            elif alias.name == "numpy.random":
                # `import numpy.random` binds `numpy`; with asname it binds
                # the submodule directly.
                if alias.asname:
                    self.numpy_random_aliases.add(alias.asname)
                else:
                    self.numpy_aliases.add("numpy")
            elif alias.name == "numpy":
                self.numpy_aliases.add(bound)
            elif alias.name == "time":
                self.time_module_aliases.add(bound)
            elif alias.name == "datetime":
                self.datetime_module_aliases.add(bound)
            elif alias.name == "os":
                self.os_aliases.add(bound)
            elif alias.name == "uuid":
                self.uuid_aliases.add(bound)
            elif alias.name == "secrets":
                self.secrets_aliases.add(bound)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level == 0 and module == "random":
            self._emit(
                "REP102",
                node,
                "library code must not use the stdlib `random` module; "
                "derive numpy Generators via repro.utils.rng instead",
            )
        for alias in node.names:
            bound = alias.asname or alias.name
            if module == "numpy" and alias.name == "random":
                self.numpy_random_aliases.add(bound)
            elif module == "numpy.random":
                if alias.name == "default_rng":
                    self.default_rng_names.add(bound)
                elif alias.name == "SeedSequence":
                    self.seed_sequence_names.add(bound)
            elif module == "time" and alias.name in _TIMING_FUNCTIONS:
                if alias.name in _WALL_CLOCK_TIME:
                    self.wall_clock_names.add(bound)
                self.timing_names.add(bound)
            elif module == "datetime":
                if alias.name == "datetime":
                    self.datetime_class_aliases.add(bound)
                elif alias.name == "date":
                    self.date_class_aliases.add(bound)
            elif module == "os" and alias.name == "urandom":
                self.entropy_names.add(bound)
            elif module == "uuid" and alias.name in ("uuid1", "uuid4"):
                self.entropy_names.add(bound)
            elif module == "secrets":
                self.entropy_names.add(bound)
        self.generic_visit(node)

    # -- scopes (REP108 bookkeeping) ------------------------------------ #
    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self._function_depth > 0:
            self.nested_functions.add(node.name)
        self._function_depth += 1
        self.generic_visit(node)
        self._function_depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- calls ---------------------------------------------------------- #
    def visit_Call(self, node: ast.Call) -> None:
        self._check_numpy_random_call(node)
        self._check_wall_clock(node)
        self._check_obs_clock_bypass(node)
        self._check_set_consumer(node)
        self._check_persistence_write(node)
        self._check_pool_target(node)
        self._check_entropy(node)
        self.generic_visit(node)

    def _numpy_random_attr(self, func: ast.expr) -> str | None:
        """``attr`` when ``func`` is ``<numpy.random>.attr``, else ``None``."""
        if not isinstance(func, ast.Attribute):
            return None
        value = func.value
        if isinstance(value, ast.Name) and value.id in self.numpy_random_aliases:
            return func.attr
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in self.numpy_aliases
        ):
            return func.attr
        return None

    def _check_numpy_random_call(self, node: ast.Call) -> None:
        attr = self._numpy_random_attr(node.func)
        name: str | None = None
        if attr is not None:
            if attr in _LEGACY_NUMPY_RANDOM:
                self._emit(
                    "REP101",
                    node,
                    f"legacy global numpy.random.{attr}() draws from hidden "
                    "process state; use an explicit Generator from "
                    "repro.utils.rng",
                )
                return
            name = attr
        elif isinstance(node.func, ast.Name):
            if node.func.id in self.default_rng_names:
                name = "default_rng"
            elif node.func.id in self.seed_sequence_names:
                name = "SeedSequence"
        if name in ("default_rng", "SeedSequence"):
            seeded = bool(node.args) or any(
                kw.arg in ("seed", "entropy") for kw in node.keywords
            )
            if not seeded and not self._path_matches(
                self.config.unseeded_whitelist
            ):
                self._emit(
                    "REP103",
                    node,
                    f"unseeded {name}() falls back to OS entropy and cannot "
                    "be reproduced; pass an explicit seed or a spawned "
                    "SeedSequence (repro.utils.rng)",
                )

    def _check_wall_clock(self, node: ast.Call) -> None:
        if self._path_matches(self.config.wall_clock_whitelist):
            return  # the audited repro.obs.clock chokepoint
        func = node.func
        # Inside repro.obs the time-module branch stands down: REP110 covers
        # every direct time-module clock call there (wall and monotonic).
        obs = self._obs_scope
        if isinstance(func, ast.Name) and func.id in self.wall_clock_names:
            if not obs:
                self._emit(
                    "REP104",
                    node,
                    "wall-clock read: time.time() must not feed seeds, "
                    "filenames or stored metadata (use perf_counter for "
                    "durations)",
                )
            return
        if not isinstance(func, ast.Attribute):
            return
        value = func.value
        if (
            func.attr in _WALL_CLOCK_TIME
            and isinstance(value, ast.Name)
            and value.id in self.time_module_aliases
        ):
            if not obs:
                self._emit(
                    "REP104",
                    node,
                    f"wall-clock read: time.{func.attr}() must not feed "
                    "seeds, filenames or stored metadata (use perf_counter "
                    "for durations)",
                )
            return
        if func.attr in _WALL_CLOCK_DATETIME:
            target: str | None = None
            if isinstance(value, ast.Name):
                if value.id in self.datetime_class_aliases:
                    target = f"datetime.{func.attr}"
                elif value.id in self.date_class_aliases and func.attr == "today":
                    target = "date.today"
            elif (
                isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id in self.datetime_module_aliases
                and value.attr in ("datetime", "date")
            ):
                target = f"{value.attr}.{func.attr}"
            if target is not None:
                self._emit(
                    "REP104",
                    node,
                    f"wall-clock read: {target}() must not feed seeds, "
                    "filenames or stored metadata",
                )

    def _check_obs_clock_bypass(self, node: ast.Call) -> None:
        if not self._obs_scope:
            return
        func = node.func
        called: str | None = None
        if isinstance(func, ast.Name) and func.id in self.timing_names:
            called = func.id
        elif (
            isinstance(func, ast.Attribute)
            and func.attr in _TIMING_FUNCTIONS
            and isinstance(func.value, ast.Name)
            and func.value.id in self.time_module_aliases
        ):
            called = func.attr
        if called is not None:
            self._emit(
                "REP110",
                node,
                f"time.{called}() bypasses the audited telemetry clock; "
                "repro.obs code must read clocks through repro.obs.clock "
                "(monotonic()/wall_time()) only",
            )

    def _emit_set_iteration(self, node: ast.AST) -> None:
        self._emit(
            "REP105",
            node,
            "iteration order over a set is undefined; iterate sorted(...) "
            "or a deterministic sequence before results or output",
        )

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._emit_set_iteration(node.iter)
        self.generic_visit(node)

    def _check_comprehension(
        self, node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp
    ) -> None:
        for comp in node.generators:
            if _is_set_expr(comp.iter):
                self._emit_set_iteration(comp.iter)
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_SetComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def _check_set_consumer(self, node: ast.Call) -> None:
        func = node.func
        name: str | None = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            name = "join"
        if name in _SET_CONSUMERS and node.args and _is_set_expr(node.args[0]):
            self._emit_set_iteration(node.args[0])

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)) and (
                _is_float_literal(left) or _is_float_literal(right)
            ):
                self._emit(
                    "REP106",
                    node,
                    "exact float equality is platform/rounding dependent; "
                    "compare with a tolerance (math.isclose) or restructure",
                )
                break
        self.generic_visit(node)

    def _check_persistence_write(self, node: ast.Call) -> None:
        if not self._persistence_scope:
            return
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode: ast.expr | None = None
            if len(node.args) >= 2:
                mode = node.args[1]
            for kw in node.keywords:
                if kw.arg == "mode":
                    mode = kw.value
            if (
                isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)
                and any(c in mode.value for c in "wax")
            ):
                self._emit(
                    "REP107",
                    node,
                    "persistence code must write via "
                    "repro.utils.files.atomic_write_text (temp file + "
                    "rename), not open() — readers may observe a partial "
                    "file",
                )
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            self._emit(
                "REP107",
                node,
                f"persistence code must write via "
                f"repro.utils.files.atomic_write_text, not "
                f".{func.attr}() — readers may observe a partial file",
            )

    def _check_pool_target(self, node: ast.Call) -> None:
        func = node.func
        candidates: list[ast.expr] = []
        if isinstance(func, ast.Attribute) and func.attr in _POOL_METHODS:
            if node.args:
                candidates.append(node.args[0])
            candidates.extend(
                kw.value for kw in node.keywords if kw.arg == "func"
            )
        # Pool(initializer=...) / ProcessPoolExecutor(initializer=...)
        candidates.extend(
            kw.value for kw in node.keywords if kw.arg == "initializer"
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Lambda):
                self._emit(
                    "REP108",
                    candidate,
                    "a lambda cannot be pickled to worker processes; pool "
                    "targets must be module-level functions",
                )
            elif (
                isinstance(candidate, ast.Name)
                and candidate.id in self.nested_functions
            ):
                self._emit(
                    "REP108",
                    candidate,
                    f"nested function {candidate.id!r} cannot be pickled to "
                    "worker processes under the spawn start method; pool "
                    "targets must be module-level functions",
                )

    def _check_entropy(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.entropy_names:
            self._emit(
                "REP109",
                node,
                f"{func.id}() draws ambient OS entropy outside the "
                "SeedSequence tree; derive randomness from the experiment "
                "seed instead",
            )
            return
        dotted = _dotted(func) if isinstance(func, ast.Attribute) else None
        if dotted is None:
            return
        head, _, rest = dotted.partition(".")
        if head in self.os_aliases and rest == "urandom":
            canonical = "os.urandom"
        elif head in self.uuid_aliases and rest in ("uuid1", "uuid4"):
            canonical = f"uuid.{rest}"
        elif head in self.secrets_aliases and rest:
            canonical = f"secrets.{rest}"
        else:
            return
        self._emit(
            "REP109",
            node,
            f"{canonical}() draws ambient OS entropy outside the "
            "SeedSequence tree; derive randomness from the experiment seed "
            "instead",
        )


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def lint_source(
    source: str,
    path: str | Path = "<string>",
    *,
    config: LinterConfig = DEFAULT_CONFIG,
) -> list[Violation]:
    """Lint one source string; returns violations not silenced by ``noqa``.

    ``path`` participates in path-scoped rules (REP103's whitelist, REP107's
    persistence scope) and is reported verbatim, normalized to posix form.
    A syntactically invalid source raises ``SyntaxError`` — the linter gates
    code that must at least parse.
    """
    posix = Path(path).as_posix() if not isinstance(path, str) else path
    tree = ast.parse(source, filename=posix)
    visitor = _DeterminismVisitor(posix, source.splitlines(), config)
    visitor.visit(tree)
    directives = _noqa_directives(source)
    kept = [v for v in visitor.violations if not _suppressed(v, directives)]
    kept.sort(key=lambda v: (v.line, v.column, v.rule))
    return kept


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted.

    Missing paths raise ``FileNotFoundError`` — a typoed directory silently
    linting nothing would report a clean run it never performed.
    """
    seen: set[Path] = set()
    collected: list[Path] = []
    for entry in paths:
        target = Path(entry)
        if target.is_dir():
            found = sorted(target.rglob("*.py"))
        elif target.is_file():
            found = [target]
        else:
            raise FileNotFoundError(f"no such file or directory: {target}")
        for item in found:
            if item not in seen:
                seen.add(item)
                collected.append(item)
    return iter(sorted(collected))


def lint_paths(
    paths: Iterable[str | Path],
    *,
    root: str | Path | None = None,
    config: LinterConfig = DEFAULT_CONFIG,
) -> list[Violation]:
    """Lint every ``.py`` file under ``paths``.

    Paths in violations are reported relative to ``root`` (default: the
    current directory) in posix form when possible, so baselines recorded on
    one machine match on another.
    """
    base = Path(root) if root is not None else Path.cwd()
    violations: list[Violation] = []
    for file_path in iter_python_files(paths):
        try:
            reported = file_path.resolve().relative_to(base.resolve()).as_posix()
        except ValueError:
            reported = file_path.as_posix()
        source = file_path.read_text(encoding="utf-8")
        violations.extend(lint_source(source, reported, config=config))
    violations.sort(key=lambda v: (v.path, v.line, v.column, v.rule))
    return violations
