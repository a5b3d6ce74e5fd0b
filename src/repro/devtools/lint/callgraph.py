"""Whole-tree symbol table, cross-module call graph, and flow facts.

The per-file rules (DPZ1xx-7xx) see one statement at a time; the
concurrency family (DPZ8xx) needs to know *who calls whom across the
whole tree* -- a worker task closure handed to ``parallel_map`` is only
three lines long, but the state it can corrupt lives behind every
function transitively reachable from it.  This module builds that
global view once per lint run:

* a **symbol table** of every module-level def, class and method,
  keyed by dotted qualified name (``repro.store.cache.ChunkCache.put``);
* per-module **import maps** (``import x.y as z`` / ``from x import y``,
  including relative imports), chained so a name re-exported through a
  package ``__init__`` still resolves to its defining module;
* a **call graph** over those symbols, resolving bare calls, attribute
  calls through imports, ``self.method()`` within a class, ``Cls()``
  constructor-then-method chains, and -- as a last resort -- methods
  whose bare name is unique across the whole tree;
* **worker-reachability**: the set of functions reachable from any
  task closure passed to ``parallel_map`` or an executor's
  ``submit``, computed by BFS over the call graph;
* per-function **flow facts**: lock acquisitions (``with lock:``
  blocks with the lexically-held lock set at entry), resolved calls
  with the held set at the call site, and shared-state mutations
  (module globals, enclosing-closure variables, ``self`` fields)
  tagged with the locks lexically guarding them.

Everything here is a static over/under-approximation in the usual
sanitizer tradition: unresolvable calls produce no edge (the rules
under-report rather than guess), and ``threading.local`` state -- which
is private per thread by construction -- is exempt from mutation
tracking.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.lint.engine import FileContext

__all__ = [
    "FunctionInfo",
    "ModuleInfo",
    "Mutation",
    "Acquisition",
    "ResolvedCall",
    "FunctionFacts",
    "Project",
    "build_project",
    "dotted",
]

#: Constructors whose result is a lock object.
_LOCK_CTORS = frozenset({
    "Lock", "RLock", "checked_lock", "checked_rlock",
})

#: Constructors whose result is per-thread state (exempt from sharing).
_THREAD_LOCAL_CTORS = frozenset({"local"})

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort",
    "appendleft", "popleft", "move_to_end", "__setitem__",
})

#: Functions whose first positional argument is a worker task closure
#: (``Executor.submit`` is how ``parallel_map`` itself dispatches).
_FAN_OUT_FNS = frozenset({"parallel_map", "submit"})

#: How many alias links to follow when resolving a re-exported name.
_MAX_ALIAS_CHAIN = 8


def dotted(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute chains; ``None`` for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def _base_name(node: ast.expr) -> str | None:
    """Innermost ``Name`` of an attribute/subscript chain, else None."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _ctor_name(expr: ast.expr) -> str | None:
    """Bare constructor name of a ``Call`` value (``threading.Lock()``
    and ``Lock()`` both report ``Lock``)."""
    if not isinstance(expr, ast.Call):
        return None
    name = dotted(expr.func)
    if name is None:
        return None
    return name.split(".")[-1]


@dataclass
class FunctionInfo:
    """One function/method/task-closure in the symbol table."""

    qualname: str
    module: str
    name: str
    node: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
    cls: str | None = None
    parent: str | None = None
    local_names: frozenset[str] = frozenset()
    lineno: int = 0


@dataclass
class ModuleInfo:
    """Per-module import map and module-scope state inventory."""

    name: str
    path: str
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    globals: frozenset[str] = frozenset()
    locks: frozenset[str] = frozenset()
    thread_locals: frozenset[str] = frozenset()


@dataclass(frozen=True)
class Mutation:
    """One shared-state mutation site inside a function.

    ``kind`` is ``"global"`` (module-level name), ``"closure"``
    (variable of an enclosing function) or ``"field"`` (``self.X``);
    ``held`` is the tuple of lock ids lexically guarding the site.
    """

    kind: str
    name: str
    node: ast.AST
    held: tuple[str, ...]
    detail: str = ""

    @property
    def guarded(self) -> bool:
        return bool(self.held)


@dataclass(frozen=True)
class Acquisition:
    """One ``with <lock>:`` block: lock id + locks already held."""

    lock: str
    node: ast.With
    held: tuple[str, ...]


@dataclass(frozen=True)
class ResolvedCall:
    """One resolved call site with the lexically-held lock set."""

    callee: str
    node: ast.Call
    held: tuple[str, ...]


@dataclass
class FunctionFacts:
    """Flow facts for one function (see module docstring)."""

    qualname: str
    acquisitions: list[Acquisition] = field(default_factory=list)
    calls: list[ResolvedCall] = field(default_factory=list)
    mutations: list[Mutation] = field(default_factory=list)


class Project:
    """The whole-tree analysis product handed to project-scope rules."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.contexts: dict[str, "FileContext"] = {}
        #: bare method name -> qualnames of every class method so named.
        self.methods_by_name: dict[str, list[str]] = {}
        #: class qualname -> lock attribute names (``self.X = Lock()``).
        self.class_locks: dict[str, frozenset[str]] = {}
        #: class qualname -> ``threading.local`` attribute names.
        self.class_thread_locals: dict[str, frozenset[str]] = {}
        self.edges: dict[str, set[str]] = {}
        self.worker_roots: set[str] = set()
        self.worker_reachable: set[str] = set()
        self.facts: dict[str, FunctionFacts] = {}

    # -- queries ----------------------------------------------------------

    def is_worker_reachable(self, qualname: str) -> bool:
        """True when ``qualname`` can run inside a worker task."""
        return qualname in self.worker_reachable

    def callees(self, qualname: str) -> frozenset[str]:
        """Direct call-graph successors of one function."""
        return frozenset(self.edges.get(qualname, ()))

    def summary(self) -> dict[str, int]:
        """Compact call-graph digest for the v2 JSON report."""
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "edges": sum(len(v) for v in self.edges.values()),
            "worker_roots": len(self.worker_roots),
            "worker_reachable_functions": len(self.worker_reachable),
        }

    # -- name resolution --------------------------------------------------

    def resolve_absolute(self, target: str) -> str | None:
        """Resolve a dotted absolute name, following re-export aliases.

        ``repro.parallel.parallel_map`` resolves through the package
        ``__init__``'s ``from repro.parallel.executor import
        parallel_map`` to ``repro.parallel.executor.parallel_map``.
        """
        seen = 0
        while seen < _MAX_ALIAS_CHAIN:
            seen += 1
            if target in self.functions:
                return target
            head, _, leaf = target.rpartition(".")
            if not head:
                return None
            mod = self.modules.get(head)
            if mod is None or leaf not in mod.imports:
                return None
            target = mod.imports[leaf]
        return None

    def resolve_call(self, call: ast.Call, info: FunctionInfo) -> str | None:
        """Resolve a call inside ``info`` to a symbol-table qualname."""
        func = call.func
        mod = self.modules.get(info.module)
        imports = mod.imports if mod is not None else {}
        if isinstance(func, ast.Name):
            return self._resolve_name(func.id, info, imports)
        if isinstance(func, ast.Attribute):
            # self.method() / cls.method() inside a class body.
            if isinstance(func.value, ast.Name) \
                    and func.value.id in ("self", "cls") \
                    and info.cls is not None:
                cand = f"{info.cls}.{func.attr}"
                if cand in self.functions:
                    return cand
                return self._unique_method(func.attr)
            # Cls().method(): resolve the constructor, then the method.
            if isinstance(func.value, ast.Call):
                ctor = dotted(func.value.func)
                if ctor is not None:
                    cls = self._resolve_dotted(ctor, info, imports,
                                               want_class=True)
                    if cls is not None:
                        cand = f"{cls}.{func.attr}"
                        if cand in self.functions:
                            return cand
                return self._unique_method(func.attr)
            name = dotted(func)
            if name is not None:
                resolved = self._resolve_dotted(name, info, imports)
                if resolved is not None:
                    return resolved
            return self._unique_method(func.attr)
        return None

    def _resolve_name(self, name: str, info: FunctionInfo,
                      imports: dict[str, str]) -> str | None:
        # A def nested inside this function (or an enclosing one).
        scope: str | None = info.qualname
        while scope is not None:
            cand = f"{scope}.{name}"
            if cand in self.functions:
                return cand
            scope = self.functions[scope].parent \
                if scope in self.functions else None
        # A sibling method, when called from inside a class body.
        if info.cls is not None:
            cand = f"{info.cls}.{name}"
            if cand in self.functions:
                return cand
        cand = f"{info.module}.{name}"
        if cand in self.functions:
            return cand
        if name in imports:
            # Resolve through re-exports when the target is in-tree;
            # otherwise return the absolute dotted path itself so
            # name-based rules (DPZ802) can still match it.
            return self.resolve_absolute(imports[name]) or imports[name]
        return None

    def _resolve_dotted(self, name: str, info: FunctionInfo,
                        imports: dict[str, str], *,
                        want_class: bool = False) -> str | None:
        head, _, rest = name.partition(".")
        if head in imports:
            target = imports[head] + (f".{rest}" if rest else "")
        else:
            target = f"{info.module}.{name}"
        if want_class:
            # A class "resolves" when any of its methods is known.
            resolved = self.resolve_absolute(target)
            if resolved is not None and self.functions[resolved].cls:
                return self.functions[resolved].cls
            if target in self.class_locks or any(
                    q.startswith(target + ".") for q in self.functions):
                return target
            # Follow a re-export chain to the defining module.
            chained = self._chase_alias(target)
            if chained is not None and (chained in self.class_locks or any(
                    q.startswith(chained + ".") for q in self.functions)):
                return chained
            return None
        resolved = self.resolve_absolute(target)
        if resolved is not None:
            return resolved
        # import repro.store.cache; repro.store.cache.fn() -- the head
        # binding covers the whole chain.
        if name in imports:
            return self.resolve_absolute(imports[name]) or imports[name]
        if head in imports:
            # Absolute but outside the linted tree: return the dotted
            # path so name-based rules (DPZ802) can still match it.
            return self._chase_alias(target) or target
        return None

    def _chase_alias(self, target: str) -> str | None:
        seen = 0
        while seen < _MAX_ALIAS_CHAIN:
            seen += 1
            head, _, leaf = target.rpartition(".")
            mod = self.modules.get(head)
            if mod is None or leaf not in mod.imports:
                return target if seen > 1 else None
            target = mod.imports[leaf]
        return target

    def _unique_method(self, name: str) -> str | None:
        """Last-resort attribute-call resolution by unique bare name."""
        owners = self.methods_by_name.get(name, [])
        if len(owners) == 1:
            return owners[0]
        return None


# -- per-module collection ---------------------------------------------------


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: str | None) -> str:
    """Absolute module path of a ``from ...x import y`` statement."""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base


def _collect_module(ctx: "FileContext") -> ModuleInfo:
    is_package = Path(ctx.path).name == "__init__.py"
    info = ModuleInfo(name=ctx.module, path=ctx.path,
                      is_package=is_package)
    globals_: set[str] = set()
    locks: set[str] = set()
    tlocals: set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.imports.setdefault(
                    local, alias.name if alias.asname else local)
        elif isinstance(node, ast.ImportFrom):
            base = (_resolve_relative(ctx.module, is_package,
                                      node.level, node.module)
                    if node.level else (node.module or ""))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                info.imports.setdefault(local, f"{base}.{alias.name}")
    for stmt in ctx.tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            globals_.add(stmt.name)
            continue
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            globals_.add(target.id)
            ctor = _ctor_name(value) if value is not None else None
            if ctor in _LOCK_CTORS:
                locks.add(target.id)
            elif ctor in _THREAD_LOCAL_CTORS:
                tlocals.add(target.id)
    info.globals = frozenset(globals_)
    info.locks = frozenset(locks)
    info.thread_locals = frozenset(tlocals)
    return info


def _local_names(fn: ast.FunctionDef | ast.AsyncFunctionDef | ast.Lambda
                 ) -> frozenset[str]:
    """Names bound in a function's own scope (params + assignments)."""
    names: set[str] = set()
    args = fn.args
    for a in (args.posonlyargs + args.args + args.kwonlyargs):
        names.add(a.arg)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    body: list[ast.stmt] | list[ast.expr] = (
        fn.body if isinstance(fn.body, list) else [fn.body])

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    names.add(child.name)
                continue
            if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                                  ast.For, ast.AsyncFor, ast.withitem,
                                  ast.comprehension)):
                for tgt in _assignment_targets(child):
                    if isinstance(tgt, ast.Name):
                        names.add(tgt.id)
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    names.add(alias.asname
                              or alias.name.split(".")[0])
            if isinstance(child, ast.ExceptHandler) and child.name:
                names.add(child.name)
            visit(child)

    for stmt in body:
        visit(stmt)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                             ast.For, ast.AsyncFor)):
            for tgt in _assignment_targets(stmt):
                if isinstance(tgt, ast.Name):
                    names.add(tgt.id)
    return frozenset(names)


def _assignment_targets(node: ast.AST) -> Iterator[ast.expr]:
    """Every bind target of an assignment-like node (flattening tuples)."""
    raw: Sequence[ast.expr | None]
    if isinstance(node, ast.Assign):
        raw = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        raw = [node.target]
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        raw = [node.target]
    elif isinstance(node, ast.withitem):
        raw = [node.optional_vars]
    elif isinstance(node, ast.comprehension):
        raw = [node.target]
    else:
        raw = []
    for tgt in raw:
        if tgt is None:
            continue
        if isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                yield elt
        else:
            yield tgt


def _collect_functions(ctx: "FileContext", project: Project) -> None:
    module = ctx.module

    def visit(node: ast.AST, stack: list[str], cls: str | None,
              parent: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = ".".join([module] + stack + [child.name])
                info = FunctionInfo(
                    qualname=qual, module=module, name=child.name,
                    node=child, cls=cls, parent=parent,
                    local_names=_local_names(child),
                    lineno=child.lineno)
                project.functions[qual] = info
                if cls is not None:
                    project.methods_by_name.setdefault(
                        child.name, []).append(qual)
                visit(child, stack + [child.name], None, qual)
            elif isinstance(child, ast.ClassDef):
                cls_qual = ".".join([module] + stack + [child.name])
                _collect_class_attrs(child, cls_qual, project)
                visit(child, stack + [child.name], cls_qual, parent)
            else:
                visit(child, stack, cls, parent)

    visit(ctx.tree, [], None, None)


def _collect_class_attrs(cls: ast.ClassDef, cls_qual: str,
                         project: Project) -> None:
    locks: set[str] = set()
    tlocals: set[str] = set()
    for node in ast.walk(cls):
        if not isinstance(node, ast.Assign):
            continue
        ctor = _ctor_name(node.value)
        if ctor not in _LOCK_CTORS and ctor not in _THREAD_LOCAL_CTORS:
            continue
        for target in node.targets:
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                if ctor in _LOCK_CTORS:
                    locks.add(target.attr)
                else:
                    tlocals.add(target.attr)
    project.class_locks[cls_qual] = frozenset(locks)
    project.class_thread_locals[cls_qual] = frozenset(tlocals)


# -- lock identification -----------------------------------------------------


def _lock_id(expr: ast.expr, info: FunctionInfo,
             project: Project) -> str | None:
    """Canonical lock id of a ``with`` item's context expression.

    Known locks resolve to their definition site
    (``repro.parallel.executor._pool_lock``,
    ``repro.store.cache.ChunkCache._lock``); unknown names whose last
    component *looks* like a lock (contains ``lock``) get a
    best-effort id so ordering is still tracked -- lock-order analysis
    works on lock *classes*, exactly like kernel lockdep.
    """
    # with lock.acquire-style wrappers are out of scope: `with X:` only.
    name = dotted(expr)
    if name is None:
        return None
    mod = project.modules.get(info.module)
    parts = name.split(".")
    if parts[0] in ("self", "cls") and info.cls is not None \
            and len(parts) >= 2:
        attr = parts[1]
        if attr in project.class_locks.get(info.cls, frozenset()):
            return f"{info.cls}.{attr}"
        if "lock" in attr.lower():
            return f"{info.cls}.{attr}"
        return None
    if len(parts) == 1:
        if mod is not None and parts[0] in mod.locks:
            return f"{info.module}.{parts[0]}"
        if mod is not None and parts[0] in mod.imports \
                and "lock" in parts[0].lower():
            return mod.imports[parts[0]]
        if "lock" in parts[0].lower():
            return f"{info.module}.{parts[0]}"
        return None
    if "lock" in parts[-1].lower():
        # obj._lock on a receiver we cannot type: key by attribute name
        # so every instance of the same field shares one lock class.
        return f"<attr>.{parts[-1]}"
    return None


# -- per-function fact extraction --------------------------------------------


def _closure_names(info: FunctionInfo, project: Project) -> frozenset[str]:
    """Variables of enclosing function scopes visible to ``info``."""
    names: set[str] = set()
    parent = info.parent
    while parent is not None and parent in project.functions:
        pinfo = project.functions[parent]
        names.update(pinfo.local_names)
        parent = pinfo.parent
    return frozenset(names - set(info.local_names))


def _collect_facts(info: FunctionInfo, project: Project) -> FunctionFacts:
    facts = FunctionFacts(qualname=info.qualname)
    mod = project.modules.get(info.module)
    module_globals = mod.globals if mod is not None else frozenset()
    module_tlocals = mod.thread_locals if mod is not None else frozenset()
    module_locks = mod.locks if mod is not None else frozenset()
    closure = _closure_names(info, project)
    cls_locks = project.class_locks.get(info.cls or "", frozenset())
    cls_tlocals = project.class_thread_locals.get(info.cls or "",
                                                  frozenset())
    fn_node = info.node
    global_decls: set[str] = set()
    nonlocal_decls: set[str] = set()
    body = fn_node.body if isinstance(fn_node.body, list) else [fn_node.body]
    for node in body:
        for sub in ast.walk(node):
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                continue
            if isinstance(sub, ast.Global):
                global_decls.update(sub.names)
            elif isinstance(sub, ast.Nonlocal):
                nonlocal_decls.update(sub.names)

    def classify(name: str) -> str | None:
        """Shared-state kind of a mutated base name, or None."""
        if name in module_tlocals or name in module_locks:
            return None
        if name in info.local_names and name not in global_decls \
                and name not in nonlocal_decls:
            return None
        if name in nonlocal_decls or name in closure:
            return "closure"
        if name in global_decls or name in module_globals:
            return "global"
        return None

    def field_of(target: ast.expr) -> str | None:
        """``self.X...`` chains -> field ``X`` (exempting locals)."""
        node = target
        chain: list[str] = []
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            if isinstance(node, ast.Attribute):
                chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "self" and chain:
            fld = chain[-1]
            if fld in cls_locks or fld in cls_tlocals:
                return None
            return fld
        return None

    def record_mutation(target: ast.expr, node: ast.AST,
                        held: tuple[str, ...], detail: str) -> None:
        if isinstance(target, ast.Name):
            kind = classify(target.id)
            if kind is not None:
                facts.mutations.append(Mutation(
                    kind=kind, name=target.id, node=node, held=held,
                    detail=detail))
            return
        fld = field_of(target)
        if fld is not None and info.cls is not None:
            facts.mutations.append(Mutation(
                kind="field", name=fld, node=node, held=held,
                detail=detail))
            return
        base = _base_name(target)
        if base is not None and base not in ("self", "cls"):
            kind = classify(base)
            if kind is not None:
                facts.mutations.append(Mutation(
                    kind=kind, name=base, node=node, held=held,
                    detail=detail))

    def walk(node: ast.AST, held: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            walk_node(child, held)

    def walk_node(child: ast.AST, held: tuple[str, ...]) -> None:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda, ast.ClassDef)):
            return  # nested scopes carry their own facts
        if isinstance(child, (ast.With, ast.AsyncWith)):
            inner = held
            for item in child.items:
                lock = _lock_id(item.context_expr, info, project)
                if lock is not None:
                    facts.acquisitions.append(
                        Acquisition(lock=lock, node=child, held=inner))
                    inner = inner + (lock,)
                elif isinstance(item.context_expr, ast.Call):
                    # A `with f():` header is a call too: record it
                    # (and its argument subtree) as a call edge.
                    walk_node(item.context_expr, held)
            for stmt in child.body:
                walk_node(stmt, inner)
            return
        if isinstance(child, ast.Call):
            callee = project.resolve_call(child, info)
            facts.calls.append(ResolvedCall(
                callee=callee or _call_label(child), node=child,
                held=held))
            func = child.func
            if isinstance(func, ast.Attribute) \
                    and func.attr in _MUTATOR_METHODS:
                record_mutation(func.value, child, held,
                                f".{func.attr}()")
        elif isinstance(child, (ast.Assign, ast.AnnAssign)):
            for tgt in _assignment_targets(child):
                if isinstance(tgt, ast.Name):
                    # A plain name assignment only mutates shared
                    # state when declared global/nonlocal; otherwise
                    # it binds a function-local.
                    if tgt.id in global_decls or tgt.id in nonlocal_decls:
                        record_mutation(tgt, child, held, "assignment")
                else:
                    record_mutation(tgt, child, held, "assignment")
        elif isinstance(child, ast.AugAssign):
            tgt = child.target
            if isinstance(tgt, ast.Name):
                if tgt.id in global_decls or tgt.id in nonlocal_decls:
                    record_mutation(tgt, child, held, "augmented "
                                    "assignment")
            else:
                record_mutation(tgt, child, held, "augmented assignment")
        elif isinstance(child, ast.Delete):
            for tgt in child.targets:
                record_mutation(tgt, child, held, "del")
        walk(child, held)

    for stmt in body:
        walk_node(stmt, ())
    return facts


def _call_label(call: ast.Call) -> str:
    """Unresolved-call placeholder (still useful for seed detection)."""
    name = dotted(call.func)
    return f"<unresolved>.{name}" if name else "<unresolved>"


# -- worker-reachability -----------------------------------------------------


def _seed_workers(project: Project) -> None:
    for qual, info in list(project.functions.items()):
        facts = project.facts[qual]
        for rc in facts.calls:
            if rc.callee.rsplit(".", 1)[-1] not in _FAN_OUT_FNS:
                continue
            call = rc.node
            if not call.args:
                continue
            task = call.args[0]
            root: str | None = None
            if isinstance(task, ast.Name):
                root = project._resolve_name(
                    task.id, info,
                    project.modules[info.module].imports
                    if info.module in project.modules else {})
            elif isinstance(task, ast.Attribute):
                name = dotted(task)
                if name is not None:
                    root = project._resolve_dotted(
                        name, info,
                        project.modules[info.module].imports
                        if info.module in project.modules else {})
            elif isinstance(task, ast.Lambda):
                root = _register_lambda(task, info, project)
            if root is not None:
                project.worker_roots.add(root)


def _register_lambda(node: ast.Lambda, owner: FunctionInfo,
                     project: Project) -> str:
    qual = f"{owner.qualname}.<lambda:{node.lineno}>"
    info = FunctionInfo(
        qualname=qual, module=owner.module, name="<lambda>",
        node=node, cls=None, parent=owner.qualname,
        local_names=_local_names(node), lineno=node.lineno)
    project.functions[qual] = info
    project.facts[qual] = _collect_facts(info, project)
    project.edges[qual] = {
        rc.callee for rc in project.facts[qual].calls
        if rc.callee in project.functions
    }
    return qual


def _mark_reachable(project: Project) -> None:
    frontier = list(project.worker_roots & set(project.functions))
    seen = set(frontier)
    while frontier:
        qual = frontier.pop()
        for callee in project.edges.get(qual, ()):
            if callee not in seen:
                seen.add(callee)
                frontier.append(callee)
    project.worker_reachable = seen


# -- entry point -------------------------------------------------------------


def build_project(contexts: Iterable["FileContext"]) -> Project:
    """Build the symbol table, call graph and flow facts for a tree."""
    project = Project()
    ctx_list = list(contexts)
    for ctx in ctx_list:
        project.contexts[ctx.module] = ctx
        project.modules[ctx.module] = _collect_module(ctx)
    for ctx in ctx_list:
        _collect_functions(ctx, project)
    for qual, info in list(project.functions.items()):
        project.facts[qual] = _collect_facts(info, project)
    for qual, facts in project.facts.items():
        project.edges[qual] = {
            rc.callee for rc in facts.calls
            if rc.callee in project.functions
        }
    _seed_workers(project)
    _mark_reachable(project)
    return project
