"""Whole-program flow rules: RNG provenance taint and fabric protocol.

The single-file linter (:mod:`repro.devtools.linter`, ``REP1xx``) cannot
see the invariants that actually carry the platform's guarantees, because
they live *between* functions: every ``Generator`` must descend from a
``SeedSequence`` chokepoint even when the seed crosses three modules on
the way, and every broker mutation must take its clock as an argument no
matter how deep the helper stack goes.  This module runs on the project
symbol table and call graph of :mod:`repro.devtools.callgraph` and emits
two interprocedural rule families:

* ``REP3xx`` — *RNG provenance taint*.  Values minted at ``SeedSequence``
  / ``default_rng`` / the ``repro.utils.rng`` chokepoints (or arriving as
  seed-like parameters) are tracked through assignments, tuple unpacking,
  calls, returns and dataclass fields.  REP301 flags Generators
  materialized without provenance, REP302 functions that conjure their
  own RNG from literals instead of accepting provenance, REP303 one RNG
  object reaching several shard/worker dispatch sites, REP304 RNG state
  frozen into default arguments or captured by closures.
* ``REP4xx`` — *fabric/persistence protocol*.  REP401: broker
  state-mutators must take explicit ``now`` and never reach a wall-clock
  read through any call chain.  REP402: persistence-scope code must not
  reach a raw (non-atomic) write through project helpers.  It shares
  :func:`~repro.devtools.linter.raw_write` with REP107, which checks the
  persistence modules' own code; REP402 checks every project function
  they call, so neither rule covers the other.  REP403: modules driving a
  broker must respect the lease lifecycle (submit→lease→heartbeat→
  complete/reclaim).

Calls are matched by canonical name after import-alias resolution through
:func:`~repro.devtools.callgraph.import_table`, the resolver the per-file
linter uses too, so a ``from``-import
(``from numpy.random import default_rng as mk``) cannot hide a call site
from either analyzer.  The hazards both analyzers match (wall-clock reads,
pool dispatch methods, raw writes and the persistence scope) are defined
once, in :mod:`repro.devtools.linter`.

Findings are :class:`FlowViolation`\\ s — ordinary linter violations (same
identity, ``noqa`` and baseline machinery) that additionally carry the
inter-file evidence chain (``def at a.py:10 -> call at b.py:42``) both as
structured data and appended to the message, so a report names every hop
the value took.  Resolution is conservative: anything the call graph
cannot prove stays clean.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.callgraph import (
    LIFECYCLE_METHODS,
    MODULE_SCOPE,
    CallSite,
    ClassInfo,
    FunctionInfo,
    FunctionScope,
    ModuleInfo,
    Project,
    annotation_name,
    dotted_name,
    stmt_bodies,
)
from repro.devtools.linter import (
    PERSISTENCE_SCOPE,
    PERSISTENCE_WHITELIST,
    POOL_METHODS,
    RNG_CHOKEPOINT,
    SEEDABLE,
    WALL_CLOCK,
    Violation,
    _noqa_directives,
    _suppressed,
    iter_python_files,
    raw_write,
)

__all__ = [
    "FLOW_CODES",
    "FlowConfig",
    "FlowViolation",
    "DEFAULT_FLOW_CONFIG",
    "analyze_paths",
    "analyze_project",
    "analyze_sources",
]

#: Every rule this analyzer can emit.
FLOW_CODES: tuple[str, ...] = (
    "REP301",
    "REP302",
    "REP303",
    "REP304",
    "REP401",
    "REP402",
    "REP403",
)

#: Taint lattice: clean < carrier (object built around RNG state) < direct
#: (an actual Generator / SeedSequence value).
_CLEAN, _CARRIER, _DIRECT = 0, 1, 2


@dataclass(frozen=True)
class FlowViolation(Violation):
    """A linter violation plus the inter-file evidence chain behind it."""

    evidence: tuple[str, ...] = ()

    def as_dict(self) -> dict[str, object]:
        payload = super().as_dict()
        payload["evidence"] = list(self.evidence)
        return payload


@dataclass(frozen=True)
class FlowConfig:
    """Which flow rules run, and where REP402 looks.

    The persistence scope and whitelist are posix path suffixes, shared
    with REP107 by default; fixture projects point them at their own
    files.
    """

    select: frozenset[str] = frozenset(FLOW_CODES)
    persistence_suffixes: tuple[str, ...] = PERSISTENCE_SCOPE
    persistence_whitelist: tuple[str, ...] = PERSISTENCE_WHITELIST

    def with_select(self, codes: Iterable[str]) -> "FlowConfig":
        """A copy enforcing only the flow codes in ``codes``."""
        wanted = frozenset(codes) & set(FLOW_CODES)
        return replace(self, select=wanted)


DEFAULT_FLOW_CONFIG = FlowConfig()


#: Canonical callables that materialize a Generator (REP301 sites).
_GENERATOR_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
    }
)
#: Canonical callables whose result *is* RNG provenance: the seedable
#: numpy constructors, Generator and the repro.utils.rng chokepoints.
_RNG_SOURCES = (
    SEEDABLE
    | _GENERATOR_CONSTRUCTORS
    | frozenset(
        {
            "repro.utils.rng.ensure_rng",
            "repro.utils.rng.as_seed_sequence",
            "repro.utils.rng.spawn_seed_sequences",
            "repro.utils.rng.spawn_rngs",
        }
    )
)
#: Parameter/attribute names treated as seed provenance.
_RNG_NAME_HINTS = frozenset(
    {
        "rng",
        "rngs",
        "seed",
        "seeds",
        "seedseq",
        "seedseqs",
        "seed_seq",
        "seed_seqs",
        "seed_sequence",
        "seed_sequences",
        "generator",
        "generators",
        "bit_generator",
        "bitgen",
    }
)
#: Annotation class names treated as seed provenance.
_RNG_ANNOTATION_HINTS = (
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "SeedLike",
)
#: Method names whose call result carries provenance.
_TAINT_METHODS = frozenset({"spawn", "seed_sequence"})
#: Lifecycle methods that mutate broker state on a clock (REP401).
_TIME_MUTATORS = frozenset({"submit", "lease", "heartbeat", "reclaim"})
#: What no broker method may reach (REP401): every wall-clock read,
#: including the audited telemetry chokepoint's.
_BROKER_CLOCK_READS = WALL_CLOCK | frozenset(
    {
        "repro.obs.clock.wall_time",
        "repro.obs.clock.wall_iso",
    }
)
#: The broker *implementation* — exempt from the consumer-side REP403.
_BROKER_IMPL = "repro/fabric/broker.py"


# --------------------------------------------------------------------------- #
# Analyzer
# --------------------------------------------------------------------------- #
class _FlowAnalyzer:
    def __init__(self, project: Project, config: FlowConfig) -> None:
        self.project = project
        self.config = config
        self.violations: list[FlowViolation] = []
        #: qualname -> function returns a provenance-carrying value.
        self.returns_taint: dict[str, bool] = {}
        self._raw_write_cache: dict[str, list[tuple[int, str]]] = {}
        self._noqa: dict[str, dict[int, frozenset[str]]] = {}

    # ------------------------------------------------------------------ #
    # Shared machinery
    # ------------------------------------------------------------------ #
    def rng_like_name(self, name: str) -> bool:
        base = name.strip("_").lower()
        if base in _RNG_NAME_HINTS:
            return True
        return base.endswith(
            ("_rng", "_seed", "_seed_seq", "_seed_sequence", "_generator")
        )

    def rng_like_annotation(self, anno: ast.expr | None) -> bool:
        name = annotation_name(anno)
        if name is None:
            return False
        terminal = name.split(".")[-1]
        return terminal in _RNG_ANNOTATION_HINTS

    def initial_env(self, fn: FunctionInfo) -> dict[str, int]:
        env: dict[str, int] = {}
        for param in fn.params:
            if param in ("self", "cls"):
                continue
            if self.rng_like_name(param) or self.rng_like_annotation(
                fn.param_annotation(param)
            ):
                env[param] = _DIRECT
        return env

    def call_target(
        self, scope: FunctionScope, node: ast.Call
    ) -> tuple[str | None, FunctionInfo | ClassInfo | None]:
        site = scope.call_for(node)
        if site is not None:
            return site.target, site.resolved
        return self.project.resolve_call(scope, node)

    def taint(
        self, scope: FunctionScope, env: dict[str, int], expr: ast.expr
    ) -> int:
        """The taint level of ``expr`` under ``env`` (conservative)."""
        if isinstance(expr, ast.Name):
            return env.get(expr.id, _CLEAN)
        if isinstance(expr, ast.Await):
            return self.taint(scope, env, expr.value)
        if isinstance(expr, ast.NamedExpr):
            level = self.taint(scope, env, expr.value)
            if isinstance(expr.target, ast.Name) and level > env.get(
                expr.target.id, _CLEAN
            ):
                env[expr.target.id] = level
            return level
        if isinstance(expr, ast.Attribute):
            if self.rng_like_name(expr.attr):
                return _DIRECT
            return _CLEAN
        if isinstance(expr, ast.Subscript):
            inner = self.taint(scope, env, expr.value)
            return _DIRECT if inner == _DIRECT else _CLEAN
        if isinstance(expr, ast.Starred):
            return self.taint(scope, env, expr.value)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            levels = [self.taint(scope, env, e) for e in expr.elts]
            return max(levels, default=_CLEAN)
        if isinstance(expr, ast.IfExp):
            return max(
                self.taint(scope, env, expr.body),
                self.taint(scope, env, expr.orelse),
            )
        if isinstance(expr, ast.BoolOp):
            levels = [self.taint(scope, env, v) for v in expr.values]
            return max(levels, default=_CLEAN)
        if isinstance(expr, ast.Call):
            target, resolved = self.call_target(scope, expr)
            if target in _RNG_SOURCES:
                return _DIRECT
            if isinstance(resolved, FunctionInfo) and self.returns_taint.get(
                resolved.qualname, False
            ):
                return _DIRECT
            args = list(expr.args) + [kw.value for kw in expr.keywords]
            if isinstance(expr.func, ast.Attribute):
                attr = expr.func.attr
                if attr == "spawn":
                    receiver = self.taint(scope, env, expr.func.value)
                    return _DIRECT if receiver != _CLEAN else _CLEAN
                if attr in _TAINT_METHODS:
                    return _DIRECT
            if target in ("int", "float", "abs", "tuple", "list", "sorted"):
                levels = [self.taint(scope, env, a) for a in args]
                return max(levels, default=_CLEAN)
            if any(self.taint(scope, env, a) == _DIRECT for a in args):
                return _CARRIER
            return _CLEAN
        return _CLEAN

    def taint_env(self, fn: FunctionInfo) -> dict[str, int]:
        """Final (over-approximated) taint of every local of ``fn``."""
        scope = self.project.scope(fn)
        env = self.initial_env(fn)
        # Two monotone passes reach the local fixpoint even when a loop
        # feeds a name tainted later in document order.
        for _ in range(2):
            self._taint_walk(scope, env, fn.node.body)
        return env

    def _taint_walk(
        self,
        scope: FunctionScope,
        env: dict[str, int],
        statements: Iterable[ast.stmt],
    ) -> None:
        for stmt in statements:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # nested scopes keep their own locals
            if isinstance(stmt, ast.Assign):
                level = self.taint(scope, env, stmt.value)
                for target in stmt.targets:
                    self._bind(env, target, level)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                level = self.taint(scope, env, stmt.value)
                self._bind(env, stmt.target, level)
            elif isinstance(stmt, ast.AugAssign):
                level = self.taint(scope, env, stmt.value)
                self._bind(env, stmt.target, level)
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                level = self.taint(scope, env, stmt.iter)
                self._bind(env, stmt.target, level)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if item.optional_vars is not None:
                        level = self.taint(scope, env, item.context_expr)
                        self._bind(env, item.optional_vars, level)
            else:
                # Evaluate for walrus side effects.
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        self.taint(scope, env, child)
            for body in stmt_bodies(stmt):
                self._taint_walk(scope, env, body)

    def _bind(self, env: dict[str, int], target: ast.expr, level: int) -> None:
        if level == _CLEAN:
            return
        if isinstance(target, ast.Name):
            if level > env.get(target.id, _CLEAN):
                env[target.id] = level
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(env, element, level)
        elif isinstance(target, ast.Starred):
            self._bind(env, target.value, level)

    def compute_returns_taint(self) -> None:
        functions = [
            fn
            for fn in self.project.iter_functions()
            if fn.name != MODULE_SCOPE
        ]
        for fn in functions:
            self.returns_taint[fn.qualname] = False
        for _ in range(6):
            changed = False
            for fn in functions:
                if self.returns_taint[fn.qualname]:
                    continue
                env = self.taint_env(fn)
                scope = self.project.scope(fn)
                for node in self._own_returns(fn.node):
                    if node.value is not None and (
                        self.taint(scope, env, node.value) == _DIRECT
                    ):
                        self.returns_taint[fn.qualname] = True
                        changed = True
                        break
            if not changed:
                break

    @staticmethod
    def _own_returns(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[ast.Return]:
        collected: list[ast.Return] = []

        def walk(statements: Iterable[ast.stmt]) -> None:
            for stmt in statements:
                if isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if isinstance(stmt, ast.Return):
                    collected.append(stmt)
                for body in stmt_bodies(stmt):
                    walk(body)

        walk(node.body)
        return collected

    # ------------------------------------------------------------------ #
    # Evidence helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _def_ref(fn: FunctionInfo) -> str:
        return f"def {fn.display} at {fn.path}:{fn.lineno}"

    def _cross_file_caller(self, fn: FunctionInfo) -> str | None:
        for caller, node in self.project.callers().get(fn.qualname, []):
            if caller.path != fn.path:
                return f"called from {caller.path}:{node.lineno}"
        return None

    def emit(
        self,
        code: str,
        path: str,
        node: ast.AST,
        message: str,
        evidence: Sequence[str],
    ) -> None:
        module = self.project.by_path[path]
        chain = tuple(evidence)
        text = message
        if chain:
            text = f"{message} [chain: {' -> '.join(chain)}]"
        self.violations.append(
            FlowViolation(
                rule=code,
                path=path,
                line=getattr(node, "lineno", 1),
                column=getattr(node, "col_offset", 0),
                message=text,
                snippet=module.snippet(getattr(node, "lineno", 1)),
                evidence=chain,
            )
        )

    # ------------------------------------------------------------------ #
    # Top level
    # ------------------------------------------------------------------ #
    def run(self) -> list[FlowViolation]:
        self.compute_returns_taint()
        for fn in self.project.iter_functions():
            env = self.taint_env(fn)
            self.check_generator_sites(fn, env)
            self.check_conjured_rng(fn)
            self.check_dispatch_fanout(fn, env)
            self.check_captured_state(fn, env)
        self.check_broker_clocks()
        self.check_persistence_reach()
        self.check_lease_lifecycle()
        return self.violations

    # ------------------------------------------------------------------ #
    # REP301 — Generator materialized outside the chokepoints
    # ------------------------------------------------------------------ #
    def check_generator_sites(
        self, fn: FunctionInfo, env: dict[str, int]
    ) -> None:
        if fn.path.endswith(RNG_CHOKEPOINT):
            return
        scope = self.project.scope(fn)
        for site in scope.calls:
            if site.target not in _GENERATOR_CONSTRUCTORS:
                continue
            call = site.node
            args = list(call.args) + [kw.value for kw in call.keywords]
            if args and any(
                self.taint(scope, env, a) != _CLEAN for a in args
            ):
                continue
            evidence: list[str] = []
            if fn.name != MODULE_SCOPE:
                evidence.append(self._def_ref(fn))
            for arg in args:
                if isinstance(arg, ast.Call):
                    _, resolved = self.call_target(scope, arg)
                    if isinstance(resolved, FunctionInfo):
                        evidence.append(
                            f"{self._def_ref(resolved)} "
                            "(returns no RNG provenance)"
                        )
            if fn.name != MODULE_SCOPE:
                caller = self._cross_file_caller(fn)
                if caller is not None:
                    evidence.append(caller)
            detail = (
                "with no seed argument"
                if not args
                else "whose seed carries no SeedSequence provenance"
            )
            self.emit(
                "REP301",
                fn.path,
                call,
                f"Generator materialized outside the RNG chokepoints "
                f"{detail}; derive it from the experiment's SeedSequence "
                "spawn tree",
                evidence,
            )

    # ------------------------------------------------------------------ #
    # REP302 — function conjures its RNG from literals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _is_literal(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant):
            return True
        if isinstance(expr, ast.UnaryOp) and isinstance(
            expr.operand, ast.Constant
        ):
            return True
        if isinstance(expr, (ast.Tuple, ast.List)):
            return all(_FlowAnalyzer._is_literal(e) for e in expr.elts)
        return False

    def check_conjured_rng(self, fn: FunctionInfo) -> None:
        if fn.name == MODULE_SCOPE or fn.path.endswith(RNG_CHOKEPOINT):
            return
        has_seed_param = any(
            self.rng_like_name(p)
            or self.rng_like_annotation(fn.param_annotation(p))
            for p in fn.params
        )
        if has_seed_param:
            return
        scope = self.project.scope(fn)
        for site in scope.calls:
            if site.target not in _RNG_SOURCES:
                continue
            call = site.node
            args = list(call.args) + [kw.value for kw in call.keywords]
            if not args or not all(self._is_literal(a) for a in args):
                continue
            evidence = [self._def_ref(fn)]
            if isinstance(site.resolved, FunctionInfo):
                evidence.append(self._def_ref(site.resolved))
            caller = self._cross_file_caller(fn)
            if caller is not None:
                evidence.append(caller)
            self.emit(
                "REP302",
                fn.path,
                call,
                f"{fn.display}() conjures RNG provenance from a hardcoded "
                "literal instead of accepting a seed/rng parameter; thread "
                "provenance in from the caller",
                evidence,
            )

    # ------------------------------------------------------------------ #
    # REP303 — one RNG object reaching several dispatch sites
    # ------------------------------------------------------------------ #
    def check_dispatch_fanout(
        self, fn: FunctionInfo, env: dict[str, int]
    ) -> None:
        scope = self.project.scope(fn)
        events: list[tuple[str, ast.Call, ast.stmt | None]] = []

        def walk(
            statements: Iterable[ast.stmt], loop: ast.stmt | None
        ) -> None:
            for stmt in statements:
                if isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                # Expressions evaluated directly by this statement carry
                # the *current* loop context; child bodies recurse below
                # with the statement itself as the innermost loop.
                for child in ast.iter_child_nodes(stmt):
                    if not isinstance(child, ast.expr):
                        continue
                    for node in ast.walk(child):
                        if (
                            isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in POOL_METHODS
                        ):
                            for name in self._tainted_name_args(node, env):
                                events.append((name, node, loop))
                inner = (
                    stmt
                    if isinstance(stmt, (ast.For, ast.AsyncFor, ast.While))
                    else loop
                )
                for body in stmt_bodies(stmt):
                    walk(body, inner)

        walk(fn.node.body, None)
        if not events:
            return

        by_name: dict[str, list[tuple[ast.Call, ast.stmt | None]]] = {}
        for name, call, loop in events:
            entries = by_name.setdefault(name, [])
            if not any(existing is call for existing, _ in entries):
                entries.append((call, loop))

        for name, entries in by_name.items():
            if len(entries) >= 2:
                first_call = entries[0][0]
                flagged = entries[1][0]
                evidence = self._dispatch_evidence(scope, fn, flagged)
                evidence.insert(
                    0, f"first dispatch at {fn.path}:{first_call.lineno}"
                )
                self.emit(
                    "REP303",
                    fn.path,
                    flagged,
                    f"RNG object {name!r} reaches {len(entries)} dispatch "
                    "sites; every shard must receive its own spawned "
                    "SeedSequence child",
                    evidence,
                )
                continue
            call, loop = entries[0]
            if loop is None:
                continue
            assigns = scope.assign_lines.get(name, [])
            end = getattr(loop, "end_lineno", loop.lineno) or loop.lineno
            defined_in_loop = any(
                loop.lineno <= line <= end for line in assigns if line > 0
            )
            if defined_in_loop:
                continue
            evidence = self._dispatch_evidence(scope, fn, call)
            origin = min((line for line in assigns if line > 0), default=None)
            if origin is not None:
                evidence.insert(
                    0, f"{name!r} bound outside the loop at {fn.path}:{origin}"
                )
            else:
                evidence.insert(0, f"{name!r} enters as a parameter")
            self.emit(
                "REP303",
                fn.path,
                call,
                f"loop-invariant RNG object {name!r} dispatched to every "
                "iteration's shard; spawn a fresh SeedSequence child per "
                "dispatch",
                evidence,
            )

    def _tainted_name_args(
        self, call: ast.Call, env: dict[str, int]
    ) -> list[str]:
        names: list[str] = []
        candidates: list[ast.expr] = list(call.args) + [
            kw.value for kw in call.keywords
        ]
        flattened: list[ast.expr] = []
        for candidate in candidates:
            if isinstance(candidate, (ast.Tuple, ast.List)):
                flattened.extend(candidate.elts)
            else:
                flattened.append(candidate)
        for expr in flattened:
            if isinstance(expr, ast.Name) and env.get(expr.id) == _DIRECT:
                if expr.id not in names:
                    names.append(expr.id)
        return names

    def _dispatch_evidence(
        self, scope: FunctionScope, fn: FunctionInfo, call: ast.Call
    ) -> list[str]:
        evidence = [self._def_ref(fn)] if fn.name != MODULE_SCOPE else []
        if call.args:
            target = call.args[0]
            if isinstance(target, ast.Name):
                module = self.project.modules[fn.module]
                resolved = self.project.lookup(
                    self.project.canonical(module, target.id)
                )
                if isinstance(resolved, FunctionInfo):
                    evidence.append(
                        f"dispatch target {self._def_ref(resolved)}"
                    )
        return evidence

    # ------------------------------------------------------------------ #
    # REP304 — RNG state in defaults or closures
    # ------------------------------------------------------------------ #
    def check_captured_state(
        self, fn: FunctionInfo, env: dict[str, int]
    ) -> None:
        scope = self.project.scope(fn)
        if fn.name != MODULE_SCOPE:
            for param, default in fn.defaults():
                level = self.taint(scope, {}, default)
                if level == _CLEAN:
                    continue
                evidence = [self._def_ref(fn)]
                if isinstance(default, ast.Call):
                    _, resolved = self.call_target(scope, default)
                    if isinstance(resolved, FunctionInfo):
                        evidence.append(self._def_ref(resolved))
                caller = self._cross_file_caller(fn)
                if caller is not None:
                    evidence.append(caller)
                self.emit(
                    "REP304",
                    fn.path,
                    default,
                    f"default value of {param!r} holds RNG state created "
                    "once at def time and shared across every call; default "
                    "to None and derive provenance inside",
                    evidence,
                )
        for nested in self._nested_defs(fn.node):
            for name in sorted(self._free_reads(nested)):
                if env.get(name) != _DIRECT:
                    continue
                origin = min(
                    (
                        line
                        for line in scope.assign_lines.get(name, [])
                        if line > 0
                    ),
                    default=None,
                )
                evidence = []
                if fn.name != MODULE_SCOPE:
                    evidence.append(self._def_ref(fn))
                if origin is not None:
                    evidence.append(
                        f"{name!r} bound at {fn.path}:{origin}"
                    )
                self.emit(
                    "REP304",
                    fn.path,
                    nested,
                    f"closure captures RNG object {name!r} from the "
                    "enclosing scope; pass it as a parameter so the "
                    "provenance stays explicit",
                    evidence,
                )

    @staticmethod
    def _nested_defs(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda]:
        nested: list[ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda] = []
        for child in ast.walk(node):
            if child is node:
                continue
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                nested.append(child)
        return nested

    @staticmethod
    def _free_reads(
        node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda,
    ) -> set[str]:
        bound = {arg.arg for arg in node.args.args}
        bound.update(arg.arg for arg in node.args.posonlyargs)
        bound.update(arg.arg for arg in node.args.kwonlyargs)
        if node.args.vararg:
            bound.add(node.args.vararg.arg)
        if node.args.kwarg:
            bound.add(node.args.kwarg.arg)
        body = node.body if isinstance(node.body, list) else [node.body]
        reads: set[str] = set()
        for stmt in body:
            for child in ast.walk(stmt):
                if isinstance(child, ast.Name):
                    if isinstance(child.ctx, ast.Store):
                        bound.add(child.id)
                    elif isinstance(child.ctx, ast.Load):
                        reads.add(child.id)
                elif isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    bound.add(child.name)
        return reads - bound

    # ------------------------------------------------------------------ #
    # REP401 — broker mutators: explicit now, no wall-clock reach
    # ------------------------------------------------------------------ #
    def _broker_protocol(self) -> ClassInfo | None:
        named: ClassInfo | None = None
        for module in self.project.modules.values():
            for klass in module.classes.values():
                if klass.name == "Broker":
                    return klass
                if named is None and klass.is_broker_shaped:
                    named = klass
        return named

    def check_broker_clocks(self) -> None:
        protocol = self._broker_protocol()
        for module_name in sorted(self.project.modules):
            module = self.project.modules[module_name]
            for klass in module.classes.values():
                if not klass.is_broker_shaped:
                    continue
                for mname in sorted(_TIME_MUTATORS & set(klass.methods)):
                    method = klass.methods[mname]
                    if "now" in method.params:
                        continue
                    evidence = [self._def_ref(method)]
                    if (
                        protocol is not None
                        and protocol is not klass
                        and mname in protocol.methods
                    ):
                        evidence.append(
                            f"protocol {self._def_ref(protocol.methods[mname])} "
                            "takes explicit now"
                        )
                    self.emit(
                        "REP401",
                        klass.path,
                        method.node,
                        f"broker state mutator {klass.name}.{mname}() must "
                        "take an explicit `now` parameter — fabric time is "
                        "injected, never read",
                        evidence,
                    )
                for method in klass.methods.values():
                    chain = self._wall_clock_chain(method)
                    if chain is not None:
                        self.emit(
                            "REP401",
                            klass.path,
                            method.node,
                            f"{klass.name}.{method.name}() reaches a "
                            "wall-clock read; broker state must move only "
                            "on the injected `now`",
                            chain,
                        )

    def _wall_clock_chain(self, method: FunctionInfo) -> list[str] | None:
        queue: list[tuple[FunctionInfo, list[str]]] = [
            (method, [self._def_ref(method)])
        ]
        visited: set[str] = {method.qualname}
        for _ in range(512):
            if not queue:
                return None
            current, path = queue.pop(0)
            scope = self.project.scope(current)
            for site in scope.calls:
                if site.target in _BROKER_CLOCK_READS:
                    return path + [
                        f"wall-clock call {site.target} at "
                        f"{current.path}:{site.node.lineno}"
                    ]
            if len(path) >= 6:
                continue
            for site in scope.calls:
                resolved = site.resolved
                if (
                    isinstance(resolved, FunctionInfo)
                    and resolved.qualname not in visited
                ):
                    visited.add(resolved.qualname)
                    queue.append(
                        (
                            resolved,
                            path
                            + [
                                f"call at {current.path}:{site.node.lineno}",
                                self._def_ref(resolved),
                            ],
                        )
                    )
        return None

    # ------------------------------------------------------------------ #
    # REP402 — persistence scope must not reach raw writes
    # ------------------------------------------------------------------ #
    def _module_noqa(self, module: ModuleInfo) -> dict[int, frozenset[str]]:
        cached = self._noqa.get(module.path)
        if cached is None:
            cached = _noqa_directives(module.source)
            self._noqa[module.path] = cached
        return cached

    def _raw_write_sites(self, fn: FunctionInfo) -> list[tuple[int, str]]:
        cached = self._raw_write_cache.get(fn.qualname)
        if cached is not None:
            return cached
        module = self.project.modules[fn.module]
        noqa = self._module_noqa(module)
        sites: list[tuple[int, str]] = []
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            kind = raw_write(node)
            if kind is None:
                continue
            codes = noqa.get(node.lineno)
            if codes is not None and (
                "*" in codes or {"REP107", "REP402"} & codes
            ):
                continue  # sanctioned (audited) write
            sites.append((node.lineno, kind))
        self._raw_write_cache[fn.qualname] = sites
        return sites

    def check_persistence_reach(self) -> None:
        config = self.config
        for fn in self.project.iter_functions():
            if not fn.path.endswith(config.persistence_suffixes):
                continue
            if fn.path.endswith(config.persistence_whitelist):
                continue
            self._persistence_bfs(fn)

    def _persistence_bfs(self, origin: FunctionInfo) -> None:
        whitelist = self.config.persistence_whitelist
        visited: set[str] = {origin.qualname}
        queue: list[tuple[FunctionInfo, list[str], ast.Call | None]] = [
            (origin, [self._def_ref(origin)], None)
        ]
        while queue:
            current, path, first_call = queue.pop(0)
            scope = self.project.scope(current)
            for site in scope.calls:
                resolved = site.resolved
                if not isinstance(resolved, FunctionInfo):
                    continue
                if resolved.path.endswith(whitelist):
                    continue
                if resolved.qualname in visited:
                    continue
                visited.add(resolved.qualname)
                entry_call = first_call if first_call is not None else site.node
                hop = path + [
                    f"call at {current.path}:{site.node.lineno}",
                    self._def_ref(resolved),
                ]
                raw = self._raw_write_sites(resolved)
                if raw:
                    line, kind = raw[0]
                    self.emit(
                        "REP402",
                        origin.path,
                        entry_call,
                        "persistence code reaches a raw (non-atomic) write "
                        f"through {resolved.display}(); route the state "
                        "transition through repro.utils.files "
                        "atomic helpers",
                        hop + [f"raw write {kind} at {resolved.path}:{line}"],
                    )
                    continue
                if len(hop) < 11:
                    queue.append((resolved, hop, entry_call))

    # ------------------------------------------------------------------ #
    # REP403 — lease lifecycle order at broker call sites
    # ------------------------------------------------------------------ #
    def _broker_receiver(
        self, scope: FunctionScope, receiver: ast.expr
    ) -> bool:
        name = dotted_name(receiver)
        if name is not None:
            terminal = name.split(".")[-1].strip("_").lower()
            if "broker" in terminal:
                return True
        typed = self.project.expr_class(scope, receiver)
        if typed is not None:
            resolved = self.project.lookup(typed)
            if isinstance(resolved, ClassInfo) and resolved.is_broker_shaped:
                return True
        return False

    def check_lease_lifecycle(self) -> None:
        protocol = self._broker_protocol()
        for module_name in sorted(self.project.modules):
            module = self.project.modules[module_name]
            if module.path.endswith(_BROKER_IMPL):
                continue
            if any(k.is_broker_shaped for k in module.classes.values()):
                continue
            used: dict[str, tuple[FunctionInfo, ast.Call]] = {}
            for fn in list(module.functions.values()) + [
                m
                for k in module.classes.values()
                for m in k.methods.values()
            ]:
                scope = self.project.scope(fn)
                for site in scope.calls:
                    node = site.node
                    if not isinstance(node.func, ast.Attribute):
                        continue
                    attr = node.func.attr
                    if attr not in LIFECYCLE_METHODS:
                        continue
                    if not self._broker_receiver(scope, node.func.value):
                        continue
                    used.setdefault(attr, (fn, node))
            if not used:
                continue
            self._lifecycle_verdict(module, used, protocol)

    def _lifecycle_verdict(
        self,
        module: ModuleInfo,
        used: dict[str, tuple[FunctionInfo, ast.Call]],
        protocol: ClassInfo | None,
    ) -> None:
        def protocol_ref(method: str) -> str | None:
            if protocol is not None and method in protocol.methods:
                return f"protocol {self._def_ref(protocol.methods[method])}"
            return None

        if ("heartbeat" in used or "complete" in used) and "lease" not in used:
            attr = "heartbeat" if "heartbeat" in used else "complete"
            fn, node = used[attr]
            evidence = [self._def_ref(fn)]
            ref = protocol_ref("lease")
            if ref is not None:
                evidence.append(f"{ref} never called in {module.path}")
            self.emit(
                "REP403",
                module.path,
                node,
                f"module {attr}s leases it never acquired: the lifecycle is "
                "submit -> lease -> heartbeat -> complete/reclaim",
                evidence,
            )
        if "lease" in used and "complete" not in used:
            fn, node = used["lease"]
            evidence = [self._def_ref(fn)]
            ref = protocol_ref("complete")
            if ref is not None:
                evidence.append(f"{ref} never called in {module.path}")
            self.emit(
                "REP403",
                module.path,
                node,
                "module leases shard jobs but never completes them; leased "
                "work must end in complete() (or be reclaimed by the pool)",
                evidence,
            )


# --------------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------------- #
def analyze_project(
    project: Project, *, config: FlowConfig = DEFAULT_FLOW_CONFIG
) -> list[FlowViolation]:
    """Run every selected flow rule over ``project``.

    ``noqa`` directives are honoured exactly like the single-file linter's:
    a trailing ``# repro: noqa[REP303]`` on the flagged line silences the
    finding.
    """
    raw = _FlowAnalyzer(project, config).run()
    kept: list[FlowViolation] = []
    directives_by_path: dict[str, dict[int, frozenset[str]]] = {}
    for violation in raw:
        if violation.rule not in config.select:
            continue
        directives = directives_by_path.get(violation.path)
        if directives is None:
            module = project.by_path.get(violation.path)
            directives = (
                _noqa_directives(module.source) if module is not None else {}
            )
            directives_by_path[violation.path] = directives
        if _suppressed(violation, directives):
            continue
        kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.column, v.rule))
    return kept


def analyze_sources(
    sources: dict[str, str], *, config: FlowConfig = DEFAULT_FLOW_CONFIG
) -> list[FlowViolation]:
    """Analyze in-memory ``{path: source}`` modules (tests, docs)."""
    return analyze_project(Project.from_sources(sources), config=config)


def analyze_paths(
    paths: Iterable[str | Path],
    *,
    root: str | Path | None = None,
    config: FlowConfig = DEFAULT_FLOW_CONFIG,
) -> list[FlowViolation]:
    """Analyze every ``.py`` file under ``paths`` as one program.

    Paths in findings are reported relative to ``root`` (default: current
    directory) in posix form, matching :func:`repro.devtools.linter
    .lint_paths` so flow findings share the baseline namespace.
    """
    files = list(iter_python_files(paths))
    project = Project.from_paths(files, root=root)
    return analyze_project(project, config=config)
