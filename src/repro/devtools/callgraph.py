"""Project-wide symbol table and call graph for the flow analyzer.

The whole-program rules (:mod:`repro.devtools.flow`, ``REP3xx``/``REP4xx``)
need to follow values across function and module boundaries: a seed minted
in ``repro/fabric/jobs.py`` must be recognizable when it reaches a
``default_rng`` call in ``repro/fabric/pool.py``.  This module supplies the
substrate — parsed modules, their import alias tables, every function and
class (with annotated dataclass fields), best-effort local type inference,
and resolved call sites — under the same safety contract as the linter:
**analysis is AST-only and never imports the code it inspects**.

Resolution is deliberately conservative.  Names are canonicalized through
import aliases (``np`` → ``numpy``, re-exports through ``__init__``
modules are followed transitively), receivers are typed from parameter and
return annotations and constructor calls, and anything unresolvable simply
resolves to ``None`` — rules must treat unknown as clean, never as guilty.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "CallSite",
    "FunctionScope",
    "Project",
    "annotation_name",
    "import_table",
    "module_name_for_path",
]

#: Pseudo-function name holding a module's top-level (non-def) statements.
MODULE_SCOPE = "<module>"

#: The broker lease-lifecycle methods (REP403); a class defining three of
#: them is broker-shaped.
LIFECYCLE_METHODS = frozenset(
    {"submit", "lease", "heartbeat", "complete", "reclaim"}
)


def module_name_for_path(path: str) -> str:
    """Dotted module name for a reported (posix, repo-relative) path.

    ``src/repro/fabric/jobs.py`` → ``repro.fabric.jobs``; a package's
    ``__init__.py`` names the package itself.  Paths outside a ``src``
    layout (test fixtures, tools) name modules by their relative parts.
    """
    parts = list(Path(path).with_suffix("").parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<root>"


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method as the symbol table sees it."""

    qualname: str
    module: str
    path: str
    lineno: int
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: tuple[str, ...]

    @property
    def display(self) -> str:
        """``Class.name`` for methods, bare ``name`` otherwise."""
        return f"{self.cls}.{self.name}" if self.cls else self.name

    def param_annotation(self, name: str) -> ast.expr | None:
        for arg in _all_args(self.node.args):
            if arg.arg == name:
                return arg.annotation
        return None

    def defaults(self) -> list[tuple[str, ast.expr]]:
        """``(param name, default expression)`` pairs, positional + kwonly."""
        args = self.node.args
        pairs: list[tuple[str, ast.expr]] = []
        positional = list(args.posonlyargs) + list(args.args)
        for arg, default in zip(
            positional[len(positional) - len(args.defaults):], args.defaults
        ):
            pairs.append((arg.arg, default))
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults):
            if kw_default is not None:
                pairs.append((arg.arg, kw_default))
        return pairs


@dataclass
class ClassInfo:
    """One class: methods, annotated fields, base names."""

    qualname: str
    module: str
    path: str
    lineno: int
    name: str
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: Class-level ``name: Annotation`` statements (dataclass fields).
    fields: dict[str, ast.expr] = field(default_factory=dict)

    @property
    def is_broker_shaped(self) -> bool:
        """Broker by name or by shape (≥3 lease-lifecycle methods)."""
        if self.name.endswith("Broker"):
            return True
        return len(LIFECYCLE_METHODS & set(self.methods)) >= 3


@dataclass
class ModuleInfo:
    """One parsed module with its alias table and symbol registry."""

    name: str
    path: str
    source: str
    tree: ast.Module
    #: Local name → dotted target (``np`` → ``numpy``,
    #: ``ShardJob`` → ``repro.fabric.jobs.ShardJob``).
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def snippet(self, lineno: int) -> str:
        lines = self.source.splitlines()
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""


@dataclass(frozen=True)
class CallSite:
    """One resolved (best-effort) call inside a function scope."""

    node: ast.Call
    #: Canonical dotted target (``numpy.random.default_rng``), if known.
    target: str | None
    #: Project symbol the call reaches, if the target is project-internal.
    resolved: FunctionInfo | ClassInfo | None
    #: True when the call sits inside a nested def/lambda of the scope.
    in_nested: bool


@dataclass
class FunctionScope:
    """Per-function analysis product: local types and resolved calls."""

    function: FunctionInfo
    #: Local name → canonical class dotted name (best effort).
    types: dict[str, str] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)
    #: Local name → line numbers of its assignments (parameters get 0).
    assign_lines: dict[str, list[int]] = field(default_factory=dict)

    def call_for(self, node: ast.Call) -> CallSite | None:
        for site in self.calls:
            if site.node is node:
                return site
        return None


def _all_args(args: ast.arguments) -> list[ast.arg]:
    collected = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
    if args.vararg:
        collected.append(args.vararg)
    if args.kwarg:
        collected.append(args.kwarg)
    return collected


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def annotation_name(node: ast.expr | None) -> str | None:
    """The dotted class name an annotation points at, stripped of wrappers.

    Handles quoted annotations (``"FilesystemBroker"``), ``Optional[X]``,
    ``X | None`` and bare subscripts (``list[X]`` resolves to ``list``).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return annotation_name(parsed)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            name = annotation_name(side)
            if name not in (None, "None"):
                return name
        return None
    if isinstance(node, ast.Subscript):
        base = dotted_name(node.value)
        if base is not None and base.split(".")[-1] == "Optional":
            return annotation_name(node.slice)
        return base
    name = dotted_name(node)
    return None if name == "None" else name


class Project:
    """Symbol tables, name resolution and call scopes over a file set."""

    def __init__(self, modules: dict[str, ModuleInfo]) -> None:
        self.modules = modules
        self.by_path: dict[str, ModuleInfo] = {
            info.path: info for info in modules.values()
        }
        self._scopes: dict[str, FunctionScope] = {}
        self._pseudo: dict[str, FunctionInfo] = {}
        self._callers: dict[str, list[tuple[FunctionInfo, ast.Call]]] | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Project":
        """Build from ``{reported posix path: source text}`` (tests, docs)."""
        modules: dict[str, ModuleInfo] = {}
        for path in sorted(sources):
            info = _parse_module(path, sources[path])
            modules[info.name] = info
        return cls(modules)

    @classmethod
    def from_paths(
        cls, files: Iterable[Path], *, root: str | Path | None = None
    ) -> "Project":
        """Build from files on disk, reporting paths relative to ``root``."""
        base = Path(root) if root is not None else Path.cwd()
        sources: dict[str, str] = {}
        for file_path in files:
            try:
                reported = (
                    file_path.resolve().relative_to(base.resolve()).as_posix()
                )
            except ValueError:
                reported = file_path.as_posix()
            sources[reported] = file_path.read_text(encoding="utf-8")
        return cls.from_sources(sources)

    # ------------------------------------------------------------------ #
    # Name resolution
    # ------------------------------------------------------------------ #
    def canonical(self, module: ModuleInfo, local_dotted: str) -> str:
        """Canonical dotted form of a name as written inside ``module``.

        Follows the module's own alias table, then re-export chains through
        other project modules (``repro.utils.ensure_rng`` →
        ``repro.utils.rng.ensure_rng``), with a cycle guard.
        """
        parts = local_dotted.split(".")
        mapped = module.imports.get(parts[0])
        if mapped is not None:
            local_dotted = ".".join([mapped] + parts[1:])
        elif parts[0] in module.functions or parts[0] in module.classes:
            local_dotted = f"{module.name}.{local_dotted}"
        return self._canonicalize(local_dotted)

    def _canonicalize(self, dotted: str) -> str:
        for _ in range(16):
            owner, remainder = self._split_module(dotted)
            if owner is None or not remainder:
                return dotted
            head = remainder[0]
            mapped = owner.imports.get(head)
            if mapped is None:
                return dotted
            candidate = ".".join([mapped] + remainder[1:])
            if candidate == dotted:
                return dotted
            dotted = candidate
        return dotted

    def _split_module(
        self, dotted: str
    ) -> tuple[ModuleInfo | None, list[str]]:
        """Longest project-module prefix of ``dotted`` plus the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return self.modules[prefix], parts[cut:]
        return None, parts

    def lookup(
        self, canonical: str
    ) -> FunctionInfo | ClassInfo | ModuleInfo | None:
        """The project symbol a canonical dotted name denotes, if any."""
        owner, remainder = self._split_module(canonical)
        if owner is None:
            return None
        if not remainder:
            return owner
        head = remainder[0]
        if head in owner.functions and len(remainder) == 1:
            return owner.functions[head]
        if head in owner.classes:
            klass = owner.classes[head]
            if len(remainder) == 1:
                return klass
            if len(remainder) == 2:
                return self.method(klass, remainder[1])
        return None

    def method(self, klass: ClassInfo, name: str) -> FunctionInfo | None:
        """Resolve ``name`` on ``klass``, walking base classes."""
        seen: set[str] = set()
        queue = [klass]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            owner = self.modules.get(current.module)
            if owner is None:
                continue
            for base in current.bases:
                resolved = self.lookup(self.canonical(owner, base))
                if isinstance(resolved, ClassInfo):
                    queue.append(resolved)
        return None

    def field_type(self, klass: ClassInfo, name: str) -> str | None:
        """Canonical class name of an annotated field, walking bases."""
        seen: set[str] = set()
        queue = [klass]
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            owner = self.modules.get(current.module)
            if name in current.fields and owner is not None:
                anno = annotation_name(current.fields[name])
                if anno is not None:
                    return self.canonical(owner, anno)
                return None
            if owner is None:
                continue
            for base in current.bases:
                resolved = self.lookup(self.canonical(owner, base))
                if isinstance(resolved, ClassInfo):
                    queue.append(resolved)
        return None

    # ------------------------------------------------------------------ #
    # Scopes, types and call resolution
    # ------------------------------------------------------------------ #
    def iter_functions(self) -> Iterator[FunctionInfo]:
        """Every function and method, plus one ``<module>`` pseudo-scope
        per module (its top-level statements), in sorted module order."""
        for name in sorted(self.modules):
            info = self.modules[name]
            for fn in info.functions.values():
                yield fn
            for klass in info.classes.values():
                yield from klass.methods.values()
            yield self._module_pseudo_function(info)

    def _module_pseudo_function(self, info: ModuleInfo) -> FunctionInfo:
        cached = self._pseudo.get(info.name)
        if cached is not None:
            return cached
        node = ast.FunctionDef(
            name=MODULE_SCOPE,
            args=ast.arguments(
                posonlyargs=[], args=[], vararg=None, kwonlyargs=[],
                kw_defaults=[], kwarg=None, defaults=[],
            ),
            body=[
                stmt
                for stmt in info.tree.body
                if not isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                )
            ],
            decorator_list=[],
            returns=None,
        )
        ast.fix_missing_locations(node)
        node.lineno = 1
        pseudo = FunctionInfo(
            qualname=f"{info.name}.{MODULE_SCOPE}",
            module=info.name,
            path=info.path,
            lineno=1,
            name=MODULE_SCOPE,
            cls=None,
            node=node,
            params=(),
        )
        self._pseudo[info.name] = pseudo
        return pseudo

    def scope(self, fn: FunctionInfo) -> FunctionScope:
        """The analyzed scope of ``fn`` (cached)."""
        cached = self._scopes.get(fn.qualname)
        if cached is not None and cached.function is fn:
            return cached
        scope = _analyze_scope(self, fn)
        self._scopes[fn.qualname] = scope
        return scope

    def callers(self) -> dict[str, list[tuple[FunctionInfo, ast.Call]]]:
        """Resolved-target qualname → call sites reaching it (cached)."""
        if self._callers is None:
            callers: dict[str, list[tuple[FunctionInfo, ast.Call]]] = {}
            for fn in self.iter_functions():
                for site in self.scope(fn).calls:
                    if isinstance(site.resolved, (FunctionInfo, ClassInfo)):
                        callers.setdefault(site.resolved.qualname, []).append(
                            (fn, site.node)
                        )
            self._callers = callers
        return self._callers

    def expr_class(
        self, scope: FunctionScope, expr: ast.expr
    ) -> str | None:
        """Canonical class name of ``expr``'s static type, best effort."""
        module = self.modules[scope.function.module]
        if isinstance(expr, ast.Await):
            return self.expr_class(scope, expr.value)
        if isinstance(expr, ast.Name):
            return scope.types.get(expr.id)
        if isinstance(expr, ast.Call):
            site = scope.call_for(expr)
            if site is None:
                return None
            if isinstance(site.resolved, ClassInfo):
                return site.resolved.qualname
            if isinstance(site.resolved, FunctionInfo):
                return self._return_class(site.resolved)
            return None
        if isinstance(expr, ast.Attribute):
            base = self.expr_class(scope, expr.value)
            if base is None:
                return None
            resolved = self.lookup(base)
            if isinstance(resolved, ClassInfo):
                return self.field_type(resolved, expr.attr)
            return None
        return None

    def _return_class(self, fn: FunctionInfo) -> str | None:
        owner = self.modules.get(fn.module)
        anno = annotation_name(fn.node.returns)
        if owner is None or anno is None:
            return None
        canonical = self.canonical(owner, anno)
        return canonical

    def resolve_call(
        self, scope: FunctionScope, node: ast.Call
    ) -> tuple[str | None, FunctionInfo | ClassInfo | None]:
        """Canonical target name and project symbol for a call, if known."""
        module = self.modules[scope.function.module]
        func = node.func
        full = dotted_name(func)
        if full is not None:
            canonical = self.canonical(module, full)
            resolved = self.lookup(canonical)
            if isinstance(resolved, (FunctionInfo, ClassInfo)):
                return canonical, resolved
            # `self.method()` and typed-receiver methods resolve below;
            # a plain external dotted name (numpy.random.default_rng)
            # stays canonical with no project symbol.
            if not isinstance(func, ast.Attribute):
                return canonical, None
        if isinstance(func, ast.Attribute):
            receiver = self.expr_class(scope, func.value)
            if receiver is not None:
                klass = self.lookup(receiver)
                if isinstance(klass, ClassInfo):
                    method = self.method(klass, func.attr)
                    if method is not None:
                        return method.qualname, method
            if full is not None:
                return self.canonical(module, full), None
        return None, None


# --------------------------------------------------------------------------- #
# Module parsing
# --------------------------------------------------------------------------- #
def _parse_module(path: str, source: str) -> ModuleInfo:
    tree = ast.parse(source, filename=path)
    name = module_name_for_path(path)
    info = ModuleInfo(name=name, path=path, source=source, tree=tree)
    info.imports = import_table(tree, path)
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = _function_info(info, stmt, cls=None)
        elif isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = _class_info(info, stmt)
    return info


def import_table(tree: ast.AST, path: str) -> dict[str, str]:
    """Local name → dotted target for every import anywhere in ``tree``.

    ``np`` → ``numpy``, ``default_rng`` → ``numpy.random.default_rng``; the
    first binding of a name wins.  ``path`` is the reported path of the
    module, against which relative imports resolve.  The per-file linter
    and the project symbol table both resolve call targets through this
    one table.
    """
    imports: dict[str, str] = {}
    package_parts = module_name_for_path(path).split(".")
    is_package = path.endswith("__init__.py")
    for stmt in ast.walk(tree):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                imports.setdefault(local, target)
        elif isinstance(stmt, ast.ImportFrom):
            base: list[str]
            if stmt.level == 0:
                base = (stmt.module or "").split(".") if stmt.module else []
            else:
                keep = package_parts if is_package else package_parts[:-1]
                drop = stmt.level - 1
                base = keep[: len(keep) - drop] if drop else list(keep)
                if stmt.module:
                    base = base + stmt.module.split(".")
            prefix = ".".join(p for p in base if p)
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                target = f"{prefix}.{alias.name}" if prefix else alias.name
                imports.setdefault(local, target)
    return imports


def _function_info(
    info: ModuleInfo,
    node: ast.FunctionDef | ast.AsyncFunctionDef,
    cls: str | None,
) -> FunctionInfo:
    params = tuple(arg.arg for arg in _all_args(node.args))
    qual = (
        f"{info.name}.{cls}.{node.name}" if cls else f"{info.name}.{node.name}"
    )
    return FunctionInfo(
        qualname=qual,
        module=info.name,
        path=info.path,
        lineno=node.lineno,
        name=node.name,
        cls=cls,
        node=node,
        params=params,
    )


def _class_info(info: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    bases = tuple(
        name for name in (dotted_name(base) for base in node.bases)
        if name is not None
    )
    klass = ClassInfo(
        qualname=f"{info.name}.{node.name}",
        module=info.name,
        path=info.path,
        lineno=node.lineno,
        name=node.name,
        node=node,
        bases=bases,
    )
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            klass.methods[stmt.name] = _function_info(info, stmt, cls=node.name)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(
            stmt.target, ast.Name
        ):
            klass.fields[stmt.target.id] = stmt.annotation
    return klass


# --------------------------------------------------------------------------- #
# Scope analysis
# --------------------------------------------------------------------------- #
def _analyze_scope(project: Project, fn: FunctionInfo) -> FunctionScope:
    scope = FunctionScope(function=fn)
    module = project.modules[fn.module]

    for arg in _all_args(fn.node.args):
        scope.assign_lines.setdefault(arg.arg, []).append(0)
        anno = annotation_name(arg.annotation)
        if anno is not None:
            scope.types[arg.arg] = project.canonical(module, anno)
    if fn.cls is not None and fn.params and fn.params[0] in ("self", "cls"):
        scope.types[fn.params[0]] = f"{fn.module}.{fn.cls}"

    _walk_statements(project, scope, fn.node.body, in_nested=False)
    return scope


def _walk_statements(
    project: Project,
    scope: FunctionScope,
    statements: Iterable[ast.stmt],
    *,
    in_nested: bool,
) -> None:
    for stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested def: its body belongs to this scope's call record
            # (reachability) but is marked nested; defaults evaluate here.
            for default in list(stmt.args.defaults) + [
                d for d in stmt.args.kw_defaults if d is not None
            ]:
                _resolve_expression(project, scope, default, in_nested)
            _walk_statements(project, scope, stmt.body, in_nested=True)
            continue
        if isinstance(stmt, ast.ClassDef):
            _walk_statements(project, scope, stmt.body, in_nested=True)
            continue
        for target_name, lineno in _assigned_names(stmt):
            scope.assign_lines.setdefault(target_name, []).append(lineno)
        if isinstance(stmt, ast.Assign):
            _resolve_expression(project, scope, stmt.value, in_nested)
            if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
                inferred = project.expr_class(scope, stmt.value)
                if inferred is not None:
                    scope.types[stmt.targets[0].id] = inferred
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                _resolve_expression(project, scope, stmt.value, in_nested)
            if isinstance(stmt.target, ast.Name):
                anno = annotation_name(stmt.annotation)
                if anno is not None:
                    module = project.modules[scope.function.module]
                    scope.types[stmt.target.id] = project.canonical(
                        module, anno
                    )
        else:
            for value in _stmt_expressions(stmt):
                _resolve_expression(project, scope, value, in_nested)
        for body in stmt_bodies(stmt):
            _walk_statements(project, scope, body, in_nested=in_nested)


def _assigned_names(stmt: ast.stmt) -> list[tuple[str, int]]:
    names: list[tuple[str, int]] = []

    def collect(target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            names.append((target.id, target.lineno))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                collect(element)
        elif isinstance(target, ast.Starred):
            collect(target.value)

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            collect(target)
    elif isinstance(stmt, ast.AnnAssign):
        collect(stmt.target)
    elif isinstance(stmt, ast.AugAssign):
        collect(stmt.target)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        collect(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                collect(item.optional_vars)
    return names


def _stmt_expressions(stmt: ast.stmt) -> list[ast.expr]:
    """Expressions evaluated directly by ``stmt`` (not in child bodies)."""
    values: list[ast.expr] = []
    if isinstance(stmt, ast.Expr):
        values.append(stmt.value)
    elif isinstance(stmt, ast.Return) and stmt.value is not None:
        values.append(stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        values.append(stmt.value)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        values.append(stmt.iter)
    elif isinstance(stmt, (ast.While, ast.If)):
        values.append(stmt.test)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        values.extend(item.context_expr for item in stmt.items)
    elif isinstance(stmt, ast.Raise):
        values.extend(v for v in (stmt.exc, stmt.cause) if v is not None)
    elif isinstance(stmt, ast.Assert):
        values.append(stmt.test)
        if stmt.msg is not None:
            values.append(stmt.msg)
    elif isinstance(stmt, ast.Delete):
        values.extend(stmt.targets)
    return values


def stmt_bodies(stmt: ast.stmt) -> list[list[ast.stmt]]:
    """The statement blocks nested in ``stmt``, handlers included."""
    bodies: list[list[ast.stmt]] = []
    for attr in ("body", "orelse", "finalbody"):
        block = getattr(stmt, attr, None)
        if isinstance(block, list) and block and isinstance(
            block[0], ast.stmt
        ):
            bodies.append(block)
    for handler in getattr(stmt, "handlers", []) or []:
        bodies.append(handler.body)
    return bodies


def _resolve_expression(
    project: Project,
    scope: FunctionScope,
    expr: ast.expr,
    in_nested: bool,
) -> None:
    """Record a :class:`CallSite` for every call inside ``expr``."""
    for node in ast.walk(expr):
        if isinstance(node, (ast.Lambda,)):
            continue
        if isinstance(node, ast.Call):
            target, resolved = project.resolve_call(scope, node)
            scope.calls.append(
                CallSite(
                    node=node,
                    target=target,
                    resolved=resolved,
                    in_nested=in_nested or _inside_lambda(expr, node),
                )
            )


def _inside_lambda(root: ast.expr, call: ast.Call) -> bool:
    for node in ast.walk(root):
        if isinstance(node, ast.Lambda):
            for inner in ast.walk(node.body):
                if inner is call:
                    return True
    return False
