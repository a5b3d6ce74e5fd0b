"""Seeded race-fixture corpus: precision/recall pins for DPZ801-804.

Static concurrency analysis lives or dies on its false-positive rate,
so every DPZ8xx rule ships with a corpus of minimal fixtures: *racy*
snippets the rule *must* flag and *clean* snippets it *must not*.  The
test suite asserts both directions, so a rule that silently stops
finding races fails the build.

Each fixture is one synthetic module linted in isolation through the
same engine path as real files (``FileContext`` -> single-file
``Project`` -> project-scope rules), so the corpus exercises exactly
the production pipeline -- including name-based fallback resolution
for imports that point outside the fixture.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import cast

from repro.devtools.lint.callgraph import build_project
from repro.devtools.lint.engine import FileContext, Finding
from repro.devtools.lint.registry import ProjectCheckFn, Rule, all_rules

__all__ = ["Fixture", "CORPUS", "run_fixture"]


@dataclass(frozen=True)
class Fixture:
    """One corpus entry: a named snippet with an expected verdict."""

    name: str
    racy: bool
    source: str


def _fx(name: str, racy: bool, source: str) -> Fixture:
    return Fixture(name=name, racy=racy,
                   source=textwrap.dedent(source).lstrip("\n"))


#: rule id -> fixtures.  Racy fixtures must produce >= 1 finding of
#: that rule; clean fixtures must produce zero.
CORPUS: dict[str, list[Fixture]] = {
    "DPZ801": [
        _fx("global-counter-bare", True, """
            from repro.parallel import parallel_map

            _seen = {}


            def task(item):
                _seen[item.key] = item
                return item


            def run(items):
                return parallel_map(task, items)
            """),
        _fx("closure-list-append", True, """
            from repro.parallel import parallel_map


            def run(items):
                failures = []

                def task(item):
                    try:
                        return item.work()
                    except ValueError:
                        failures.append(item)
                        return None

                parallel_map(task, items)
                return failures
            """),
        _fx("global-rebind-in-worker-callee", True, """
            from repro.parallel import parallel_map

            _total = 0


            def bump(n):
                global _total
                _total += n


            def task(item):
                bump(item.cost)
                return item


            def run(items):
                return parallel_map(task, items)
            """),
        _fx("global-counter-locked", False, """
            import threading

            from repro.parallel import parallel_map

            _seen = {}
            _seen_lock = threading.Lock()


            def task(item):
                with _seen_lock:
                    _seen[item.key] = item
                return item


            def run(items):
                return parallel_map(task, items)
            """),
        _fx("local-state-only", False, """
            from repro.parallel import parallel_map


            def task(item):
                acc = {}
                acc[item.key] = item.work()
                return acc


            def run(items):
                return parallel_map(task, items)
            """),
        _fx("mutation-outside-worker", False, """
            _seen = {}


            def remember(item):
                _seen[item.key] = item


            def run(items):
                for item in items:
                    remember(item)
            """),
        _fx("threading-local-state", False, """
            import threading

            from repro.parallel import parallel_map

            _scratch = threading.local()


            def task(item):
                _scratch.last = item
                return item.work()


            def run(items):
                return parallel_map(task, items)
            """),
    ],
    "DPZ802": [
        _fx("register-codec-in-task", True, """
            from repro.codecs.registry import register_codec
            from repro.parallel import parallel_map


            def task(item):
                register_codec(item.name, item.enc, item.dec)
                return item.name


            def run(items):
                return parallel_map(task, items)
            """),
        _fx("tracer-swap-in-task", True, """
            from repro.observability.tracer import set_tracer
            from repro.parallel import parallel_map


            def task(item):
                set_tracer(None)
                return item.work()


            def run(items):
                return parallel_map(task, items)
            """),
        _fx("runlog-append-in-worker-callee", True, """
            from repro.observability.runlog import append_record
            from repro.parallel import parallel_map


            def finish(record):
                append_record(record)


            def task(item):
                result = item.work()
                finish(result.record)
                return result


            def run(items):
                return parallel_map(task, items)
            """),
        _fx("register-codec-at-setup", False, """
            from repro.codecs.registry import register_codec
            from repro.parallel import parallel_map


            def task(item):
                return item.work()


            def run(items, codec):
                register_codec(codec.name, codec.enc, codec.dec)
                return parallel_map(task, items)
            """),
        _fx("metric-emission-in-task", False, """
            from repro.observability import counter_inc, observe
            from repro.parallel import parallel_map


            def task(item):
                counter_inc("fixture.items")
                observe("fixture.seconds", item.cost)
                return item.work()


            def run(items):
                return parallel_map(task, items)
            """),
    ],
    "DPZ803": [
        _fx("abba-two-functions", True, """
            import threading

            _a_lock = threading.Lock()
            _b_lock = threading.Lock()


            def forward():
                with _a_lock:
                    with _b_lock:
                        return 1


            def backward():
                with _b_lock:
                    with _a_lock:
                        return 2
            """),
        _fx("abba-through-helper", True, """
            import threading

            _a_lock = threading.Lock()
            _b_lock = threading.Lock()


            def take_a():
                with _a_lock:
                    return 1


            def forward():
                with _b_lock:
                    return take_a()


            def backward():
                with _a_lock:
                    with _b_lock:
                        return 2
            """),
        _fx("consistent-nesting", False, """
            import threading

            _a_lock = threading.Lock()
            _b_lock = threading.Lock()


            def one():
                with _a_lock:
                    with _b_lock:
                        return 1


            def two():
                with _a_lock:
                    with _b_lock:
                        return 2
            """),
        _fx("disjoint-locks", False, """
            import threading

            _a_lock = threading.Lock()
            _b_lock = threading.Lock()


            def one():
                with _a_lock:
                    return 1


            def two():
                with _b_lock:
                    return 2
            """),
    ],
    "DPZ804": [
        _fx("forgotten-guard", True, """
            import threading


            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def drop(self, item):
                    with self._lock:
                        self._items.remove(item)

                def reset(self):
                    self._items = []
            """),
        _fx("guarded-everywhere", False, """
            import threading


            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def reset(self):
                    with self._lock:
                        self._items = []
            """),
        _fx("never-guarded", False, """
            class Plain:
                def __init__(self):
                    self._items = []

                def add(self, item):
                    self._items.append(item)

                def reset(self):
                    self._items = []
            """),
        _fx("init-exempt", False, """
            import threading


            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = []
                    self._items = list(self._items)

                def add(self, item):
                    with self._lock:
                        self._items.append(item)

                def drop(self, item):
                    with self._lock:
                        self._items.remove(item)
            """),
    ],
}


def run_fixture(rule_id: str, fixture: Fixture,
                rules: dict[str, Rule] | None = None) -> list[Finding]:
    """Lint one fixture through the production engine path.

    Returns only findings of ``rule_id``.  The fixture gets a
    synthetic module name outside ``repro.*`` layer scoping, so only
    the project-scope concurrency rules apply meaningfully.
    """
    if rules is None:
        rules = all_rules()
    target = rules.get(rule_id)
    if target is None:
        return []
    path = f"<corpus:{rule_id}:{fixture.name}>"
    ctx = FileContext(path, fixture.source,
                      module=f"corpus_{fixture.name.replace('-', '_')}")
    project = build_project([ctx])
    check = cast(ProjectCheckFn, target.check)
    return [f for f in check(project) if f.rule == rule_id]

