"""DPZ801-DPZ804: concurrency-safety rules over the call graph.

These are the project-scope rules: each receives a whole-tree
:class:`~repro.devtools.lint.callgraph.Project` (symbol table, call
graph, worker-reachability, per-function flow facts) instead of a
single file, because the hazards they enforce are inherently
cross-module -- a three-line task closure handed to ``parallel_map``
can corrupt state behind any function it transitively calls.

* **DPZ801** -- a worker-reachable function mutates a module-level
  global or enclosing-closure variable with no lock lexically held.
  This is the direct data race: N pool threads, one unguarded
  read-modify-write.
* **DPZ802** -- a worker-reachable function calls one of the known
  process-global singleton mutators (codec registration, tracer
  installation, metric reset, run-registry append, trace-file write,
  pool shutdown).  Some of those are internally locked; none of them
  is *semantically* safe mid-fan-out -- unregistering a codec while a
  sibling task compresses with it corrupts the run even though no
  ``dict`` is torn.
* **DPZ803** -- the static lock-order graph (lexical ``with lock:``
  nesting plus interprocedural held-at-call-site edges closed over the
  call graph) contains a cycle: two paths acquire the same pair of
  locks in opposite orders, the classic ABBA deadlock.
* **DPZ804** -- majority-guard inference, after the sanitizer
  tradition (RacerD, lockdep): a ``self.X`` field mutated under a lock
  at most sites but bare at others is almost certainly a guarded field
  with a forgotten guard.  ``__init__``/``__post_init__`` are exempt
  (no concurrent alias can exist yet).

Static analysis under-approximates: an unresolvable call produces no
edge, so these rules miss races they cannot see but do not invent
ones they can't justify.  The runtime companion is
:mod:`repro.devtools.sanitize`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.callgraph import FunctionInfo, Project
from repro.devtools.lint.engine import Finding
from repro.devtools.lint.registry import rule

__all__ = [
    "check_worker_shared_mutation",
    "check_worker_singleton",
    "check_lock_order",
    "check_majority_guard",
    "SINGLETON_MUTATORS",
]

#: Process-global singleton mutators that must not run in worker
#: context (absolute dotted names; re-exports resolve to these).
SINGLETON_MUTATORS: dict[str, str] = {
    "repro.codecs.registry.register_codec":
        "mutates the process-global codec registry",
    "repro.codecs.registry.unregister_codec":
        "mutates the process-global codec registry",
    "repro.observability.tracer.set_tracer":
        "swaps the process-global tracer mid-trace",
    "repro.observability.metrics.metrics_reset":
        "zeroes the process-global metric registry",
    "repro.observability.runlog.append_record":
        "appends to the shared run registry file",
    "repro.observability.emit.write_ndjson":
        "writes the shared trace emit file",
    "repro.parallel.executor.shutdown_pool":
        "tears down the thread pool the task itself runs on",
}

#: Constructor/initializer methods exempt from DPZ804: the instance is
#: thread-confined until construction returns.
_CTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _ctx_finding(project: Project, info: FunctionInfo, rule_id: str,
                 node: ast.AST, message: str) -> Finding | None:
    ctx = project.contexts.get(info.module)
    if ctx is None:
        return None
    return ctx.finding(rule_id, node, message)


@rule("DPZ801", "worker-unguarded-shared-mutation",
      "functions reachable from a parallel_map task may not mutate "
      "module globals or closure variables without a lock",
      "Every pool worker runs the task closure concurrently; an "
      "unguarded read-modify-write on shared state is a data race that "
      "silently corrupts payload bytes -- the exact failure the DPZ "
      "error-bound guarantee cannot survive.",
      scope="project")
def check_worker_shared_mutation(project: Project) -> Iterator[Finding]:
    """Flag unguarded global/closure mutations in worker-reachable code."""
    for qual in sorted(project.worker_reachable):
        info = project.functions.get(qual)
        facts = project.facts.get(qual)
        if info is None or facts is None:
            continue
        for mut in facts.mutations:
            if mut.kind not in ("global", "closure") or mut.guarded:
                continue
            where = ("module-level global" if mut.kind == "global"
                     else "enclosing-closure variable")
            f = _ctx_finding(
                project, info, "DPZ801", mut.node,
                f"{info.name}() is reachable from a worker task and "
                f"mutates {where} {mut.name!r} ({mut.detail}) without "
                f"holding a lock")
            if f is not None:
                yield f


@rule("DPZ802", "worker-singleton-mutation",
      "functions reachable from worker context may not mutate "
      "process-global singletons (codec registry, tracer, metric "
      "reset, run registry, pool lifecycle)",
      "Internal locks make these calls atomic, not safe: swapping the "
      "tracer or unregistering a codec while sibling tasks are "
      "mid-flight changes global behavior under running work.",
      scope="project")
def check_worker_singleton(project: Project) -> Iterator[Finding]:
    """Flag singleton-mutator calls made from worker-reachable code."""
    for qual in sorted(project.worker_reachable):
        info = project.functions.get(qual)
        facts = project.facts.get(qual)
        if info is None or facts is None:
            continue
        for call in facts.calls:
            reason = SINGLETON_MUTATORS.get(call.callee)
            if reason is None:
                continue
            leaf = call.callee.rsplit(".", 1)[-1]
            f = _ctx_finding(
                project, info, "DPZ802", call.node,
                f"{info.name}() is reachable from a worker task and "
                f"calls {leaf}(), which {reason}")
            if f is not None:
                yield f


def _transitive_acquires(project: Project) -> dict[str, frozenset[str]]:
    """Locks each function may acquire, closed over the call graph.

    A simple fixpoint: start from each function's direct ``with lock:``
    blocks and propagate along call edges until stable.  The graph is
    small (hundreds of nodes) so the quadratic worst case is fine.
    """
    acquires: dict[str, set[str]] = {
        q: {a.lock for a in facts.acquisitions}
        for q, facts in project.facts.items()
    }
    changed = True
    while changed:
        changed = False
        for q in project.facts:
            mine = acquires[q]
            before = len(mine)
            for callee in project.edges.get(q, ()):
                mine |= acquires.get(callee, set())
            if len(mine) != before:
                changed = True
    return {q: frozenset(v) for q, v in acquires.items()}


@rule("DPZ803", "inconsistent-lock-order",
      "the static lock-order graph over `with lock:` blocks must be "
      "acyclic",
      "Two call paths that take the same pair of locks in opposite "
      "orders deadlock the first time their timing overlaps; a cycle "
      "in the static order graph is that bug waiting for load.",
      scope="project")
def check_lock_order(project: Project) -> Iterator[Finding]:
    """Flag lock-order edges that participate in a cycle."""
    # edge (a, b): lock b acquired while a held.  Witness: the first
    # (info, node) that exhibits the edge, for anchoring the finding.
    edges: dict[tuple[str, str], tuple[FunctionInfo, ast.AST]] = {}

    def note(a: str, b: str, info: FunctionInfo, node: ast.AST) -> None:
        if a != b:
            edges.setdefault((a, b), (info, node))

    trans = _transitive_acquires(project)
    for qual, facts in project.facts.items():
        info = project.functions.get(qual)
        if info is None:
            continue
        for acq in facts.acquisitions:
            for held in acq.held:
                note(held, acq.lock, info, acq.node)
        for call in facts.calls:
            if not call.held or call.callee not in project.facts:
                continue
            for inner in trans.get(call.callee, frozenset()):
                for held in call.held:
                    note(held, inner, info, call.node)

    succ: dict[str, set[str]] = {}
    for (a, b) in edges:
        succ.setdefault(a, set()).add(b)

    def reaches(src: str, dst: str) -> bool:
        frontier, seen = [src], {src}
        while frontier:
            node = frontier.pop()
            for nxt in succ.get(node, ()):
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    reported: set[frozenset[str]] = set()
    for (a, b), (info, node) in sorted(
            edges.items(), key=lambda kv: (kv[0][0], kv[0][1])):
        if not reaches(b, a):
            continue
        pair = frozenset((a, b))
        if pair in reported:
            continue
        reported.add(pair)
        f = _ctx_finding(
            project, info, "DPZ803", node,
            f"inconsistent lock order: {b!r} is acquired while "
            f"{a!r} is held here, but another path acquires "
            f"{a!r} while holding {b!r} (ABBA deadlock candidate)")
        if f is not None:
            yield f


@rule("DPZ804", "inconsistent-field-guarding",
      "a field guarded by a lock on most mutation paths must not be "
      "mutated bare on others",
      "Majority-guard inference: when a class takes a lock around a "
      "field's mutations almost everywhere, the remaining bare "
      "mutation is a forgotten guard, not a design choice.",
      scope="project")
def check_majority_guard(project: Project) -> Iterator[Finding]:
    """Flag bare mutations of fields that are usually lock-guarded."""
    # (class qualname, field) -> [(guarded?, info, node)]
    sites: dict[tuple[str, str],
                list[tuple[bool, FunctionInfo, ast.AST]]] = {}
    for qual, facts in project.facts.items():
        info = project.functions.get(qual)
        if info is None or info.cls is None:
            continue
        if info.name in _CTOR_METHODS:
            continue
        for mut in facts.mutations:
            if mut.kind != "field":
                continue
            sites.setdefault((info.cls, mut.name), []).append(
                (mut.guarded, info, mut.node))
    for (cls, fld), entries in sorted(sites.items()):
        guarded = sum(1 for g, _, _ in entries if g)
        bare = len(entries) - guarded
        # Majority inference: at least two guarded sites establish the
        # discipline, and guarded sites must outnumber bare ones --
        # otherwise the field plausibly isn't lock-protected at all.
        if guarded < 2 or bare == 0 or guarded <= bare:
            continue
        cls_name = cls.rsplit(".", 1)[-1]
        for is_guarded, info, node in entries:
            if is_guarded:
                continue
            f = _ctx_finding(
                project, info, "DPZ804", node,
                f"field {fld!r} of {cls_name} is mutated under a lock "
                f"at {guarded} site{'s' if guarded != 1 else ''} but "
                f"bare here in {info.name}()")
            if f is not None:
                yield f
