"""AST-based determinism linter (the ``REP1xx`` rules).

The linter parses library source with :mod:`ast` — it never imports the
code under analysis — and reports :class:`Violation`\\ s against the rule
catalog in :mod:`repro.devtools.rules`.  It is importable machinery first
and a CLI second: tests feed sources through :func:`lint_source` directly,
the ``repro lint`` command wraps :func:`lint_paths`.

Every call target is resolved to a canonical dotted name through the
module's import table (:func:`repro.devtools.callgraph.import_table`, the
resolver the flow analyzer uses too), so a ``from``-import such as
``from numpy.random import seed`` or ``from time import ctime as now``
cannot hide a call site.  Each hazard the rules match is defined once,
below, and :mod:`repro.devtools.flow` reuses the ones it shares: wall-clock
reads, pool dispatch methods, :func:`raw_write` and the persistence scope.

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

from repro.devtools.callgraph import dotted_name, import_table
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
    """Which determinism rules the linter enforces.

    Attributes
    ----------
    select:
        Rule codes to enforce (default: every ``REP1xx`` rule).
    """

    select: frozenset[str] = frozenset(r.code for r in DETERMINISM_RULES)

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
# Where the path-scoped rules apply (posix path suffixes)
# --------------------------------------------------------------------------- #
#: The audited RNG module.  REP103's unseeded fallback is its documented,
#: warning-emitting default, and the flow rules let it materialize
#: Generators without provenance.
RNG_CHOKEPOINT = "repro/utils/rng.py"
#: The campaign store and everything else that persists state.  REP107
#: holds their own writes to the atomic helper; REP402 holds every project
#: function they call to it.
PERSISTENCE_SCOPE = (
    "repro/sim/campaign/store.py",
    "repro/sim/campaign/spec.py",
    "repro/sim/results.py",
    "repro/fabric/broker.py",
    "repro/fabric/pool.py",
    "repro/obs/events.py",
)
#: Exempt from REP107 and REP402: the atomic-write helper itself must, of
#: course, write.
PERSISTENCE_WHITELIST = ("repro/utils/files.py",)
#: The telemetry subsystem (a path fragment), where REP110 requires every
#: clock read — wall *and* monotonic — to go through the audited
#: ``repro.obs.clock`` chokepoint.
_OBS_SCOPE = "repro/obs/"
#: The clock chokepoint itself, exempt from REP104 and REP110: it exists
#: precisely to contain the raw ``time`` calls.
_CLOCK_CHOKEPOINT = "repro/obs/clock.py"

# --------------------------------------------------------------------------- #
# The hazards, as canonical dotted names
# --------------------------------------------------------------------------- #
#: Legacy global-state entry points of ``numpy.random`` — everything that
#: draws from (or mutates) the hidden module-level RandomState (REP101).
LEGACY_NUMPY_RANDOM = frozenset(
    f"numpy.random.{name}"
    for name in (
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "random_integers", "choice", "shuffle",
        "permutation", "bytes", "normal", "standard_normal", "uniform",
        "binomial", "poisson", "exponential", "beta", "gamma", "gumbel",
        "laplace", "logistic", "lognormal", "rayleigh", "triangular",
        "vonmises", "wald", "weibull", "zipf", "get_state", "set_state",
        "RandomState",
    )
)
#: Constructors that fall back to OS entropy when given no seed (REP103).
SEEDABLE = frozenset({"numpy.random.default_rng", "numpy.random.SeedSequence"})
#: Wall-clock reads: REP104 in library code, and REP401 anywhere a broker
#: mutator's call chain reaches.
WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
#: Every clock read of the ``time`` module, wall and duration alike.
#: Inside repro.obs each one fires REP110, which supersedes REP104 there.
TIME_CLOCKS = frozenset(
    {name for name in WALL_CLOCK if name.startswith("time.")}
    | {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
    }
)
#: Ambient OS entropy outside the SeedSequence tree (REP109), as is every
#: function of the ``secrets`` module.
AMBIENT_ENTROPY = frozenset({"os.urandom", "uuid.uuid1", "uuid.uuid4"})
#: Methods that hand a callable to a worker pool or executor: REP108 wants
#: their targets picklable, REP303 a fresh RNG for every dispatch.
POOL_METHODS = frozenset(
    {
        "apply",
        "apply_async",
        "map",
        "map_async",
        "starmap",
        "starmap_async",
        "imap",
        "imap_unordered",
        "submit",
    }
)
#: Module-level ``open`` functions that take the mode second, like the
#: builtin.
_MODULE_OPENS = frozenset(
    f"{module}.open"
    for module in ("io", "gzip", "bz2", "lzma", "codecs", "tarfile")
)
_SET_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter", "join"})


def raw_write(call: ast.Call) -> str | None:
    """How ``call`` writes a file in place, or ``None`` if it does not.

    A raw write is what REP107 forbids in the persistence modules and
    REP402 in every project function they call.  ``write_text`` and
    ``write_bytes`` always write.  An ``open`` writes when its mode
    contains ``w``, ``a``, ``x`` or ``+``.  The mode is the ``mode=``
    keyword; otherwise the second positional argument of the builtin and
    of the module-level ``io``/``gzip``/``bz2``/``lzma``/``codecs``/
    ``tarfile`` ``open``; otherwise the first positional argument of any
    other ``.open`` (``Path.open``).
    """
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in (
        "write_text",
        "write_bytes",
    ):
        return f".{func.attr}()"
    name = dotted_name(func)
    if name == "open" or name in _MODULE_OPENS:
        position = 1
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        name, position = ".open", 0
    else:
        return None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None and len(call.args) > position:
        mode = call.args[position]
    if (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(flag in mode.value for flag in "wax+")
    ):
        return f"{name}(mode={mode.value!r})"
    return None


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

    def __init__(
        self,
        path: str,
        source_lines: Sequence[str],
        config: LinterConfig,
        imports: dict[str, str],
    ) -> None:
        self.path = path
        self.lines = source_lines
        self.config = config
        #: Local name -> canonical dotted target (callgraph.import_table).
        self.imports = imports
        self.violations: list[Violation] = []
        self.persistence_scope = path.endswith(PERSISTENCE_SCOPE) and not (
            path.endswith(PERSISTENCE_WHITELIST)
        )
        self.clock_chokepoint = path.endswith(_CLOCK_CHOKEPOINT)
        self.obs_scope = _OBS_SCOPE in path and not self.clock_chokepoint
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

    def _callee(self, func: ast.expr) -> str | None:
        """Canonical dotted name of an imported call target, else ``None``."""
        dotted = dotted_name(func)
        if dotted is None:
            return None
        head, dot, rest = dotted.partition(".")
        mapped = self.imports.get(head)
        return None if mapped is None else mapped + dot + rest

    # -- imports -------------------------------------------------------- #
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self._emit(
                    "REP102",
                    node,
                    "library code must not use the stdlib `random` module; "
                    "derive numpy Generators via repro.utils.rng instead",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module == "random":
            self._emit(
                "REP102",
                node,
                "library code must not use the stdlib `random` module; "
                "derive numpy Generators via repro.utils.rng instead",
            )
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
        callee = self._callee(node.func)
        if callee is not None:
            self._check_numpy_random_call(node, callee)
            self._check_clock(node, callee)
            self._check_entropy(node, callee)
        self._check_set_consumer(node)
        self._check_persistence_write(node)
        self._check_pool_target(node)
        self.generic_visit(node)

    def _check_numpy_random_call(self, node: ast.Call, callee: str) -> None:
        if callee in LEGACY_NUMPY_RANDOM:
            self._emit(
                "REP101",
                node,
                f"legacy global {callee}() draws from hidden process state; "
                "use an explicit Generator from repro.utils.rng",
            )
        elif callee in SEEDABLE:
            seeded = bool(node.args) or any(
                kw.arg in ("seed", "entropy") for kw in node.keywords
            )
            if not seeded and not self.path.endswith(RNG_CHOKEPOINT):
                name = callee.rpartition(".")[2]
                self._emit(
                    "REP103",
                    node,
                    f"unseeded {name}() falls back to OS entropy and cannot "
                    "be reproduced; pass an explicit seed or a spawned "
                    "SeedSequence (repro.utils.rng)",
                )

    def _check_clock(self, node: ast.Call, callee: str) -> None:
        if self.clock_chokepoint:
            return  # the audited repro.obs.clock chokepoint
        # Inside repro.obs, REP110 covers every time-module clock read, so
        # one call never fires twice; datetime reads still fire REP104.
        if self.obs_scope and callee in TIME_CLOCKS:
            self._emit(
                "REP110",
                node,
                f"{callee}() bypasses the audited telemetry clock; "
                "repro.obs code must read clocks through repro.obs.clock "
                "(monotonic()/wall_time()) only",
            )
        elif callee in WALL_CLOCK:
            hint = (
                " (use perf_counter for durations)"
                if callee.startswith("time.")
                else ""
            )
            self._emit(
                "REP104",
                node,
                f"wall-clock read: {callee}() must not feed seeds, "
                f"filenames or stored metadata{hint}",
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
        if not self.persistence_scope:
            return
        kind = raw_write(node)
        if kind is not None:
            self._emit(
                "REP107",
                node,
                "persistence code must write via "
                "repro.utils.files.atomic_write_text (temp file + rename), "
                f"not {kind} — readers may observe a partial file",
            )

    def _check_pool_target(self, node: ast.Call) -> None:
        func = node.func
        candidates: list[ast.expr] = []
        if isinstance(func, ast.Attribute) and func.attr in POOL_METHODS:
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

    def _check_entropy(self, node: ast.Call, callee: str) -> None:
        if callee in AMBIENT_ENTROPY or callee.startswith("secrets."):
            self._emit(
                "REP109",
                node,
                f"{callee}() draws ambient OS entropy outside the "
                "SeedSequence tree; derive randomness from the experiment "
                "seed instead",
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
    visitor = _DeterminismVisitor(
        posix, source.splitlines(), config, import_table(tree, posix)
    )
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
