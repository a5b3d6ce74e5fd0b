"""Unit tests for the cross-module call graph (symbol table,
resolution, worker reachability).

Each test builds a tiny in-memory project from FileContext objects
with ``module=`` overrides, then asserts on the resolved edges --
the exact substrate the DPZ8xx rules stand on.
"""

from __future__ import annotations

import textwrap

from repro.devtools.lint.callgraph import build_project
from repro.devtools.lint.engine import FileContext


def _ctx(module: str, source: str) -> FileContext:
    return FileContext(f"<test:{module}>", textwrap.dedent(source),
                       module=module)


def _project(**modules: str):
    return build_project([_ctx(m, src) for m, src in modules.items()])


# -- direct and imported calls -----------------------------------------------

def test_same_module_call_edge():
    p = _project(**{"repro.a": """
        def helper():
            return 1

        def caller():
            return helper()
        """})
    assert p.callees("repro.a.caller") == {"repro.a.helper"}


def test_from_import_resolves_cross_module():
    p = _project(**{
        "repro.a": """
            def f():
                return 1
            """,
        "repro.b": """
            from repro.a import f

            def g():
                return f()
            """,
    })
    assert "repro.a.f" in p.callees("repro.b.g")


def test_from_import_alias_resolves():
    p = _project(**{
        "repro.a": """
            def f():
                return 1
            """,
        "repro.b": """
            from repro.a import f as renamed

            def g():
                return renamed()
            """,
    })
    assert "repro.a.f" in p.callees("repro.b.g")


def test_module_import_attribute_call_resolves():
    p = _project(**{
        "repro.a": """
            def f():
                return 1
            """,
        "repro.b": """
            import repro.a as mod

            def g():
                return mod.f()
            """,
    })
    assert "repro.a.f" in p.callees("repro.b.g")


def test_reexport_chain_resolves():
    """``from pkg import f`` where pkg/__init__ re-exports it."""
    p = _project(**{
        "repro.pkg.impl": """
            def f():
                return 1
            """,
        "repro.pkg": """
            from repro.pkg.impl import f
            """,
        "repro.b": """
            from repro.pkg import f

            def g():
                return f()
            """,
    })
    assert "repro.pkg.impl.f" in p.callees("repro.b.g")


def test_unresolvable_import_keeps_dotted_label():
    """Out-of-tree imports resolve to their absolute dotted name so
    name-keyed rules (DPZ802) can still match them."""
    p = _project(**{"repro.b": """
        from repro.codecs.registry import register_codec

        def g():
            register_codec("x", None, None)
        """})
    facts = p.facts["repro.b.g"]
    assert any(c.callee == "repro.codecs.registry.register_codec"
               for c in facts.calls)
    # No function of that name exists, so no graph edge.
    assert p.callees("repro.b.g") == frozenset()


# -- methods and classes -----------------------------------------------------

def test_self_method_call_resolves_to_own_class():
    p = _project(**{"repro.a": """
        class Box:
            def inner(self):
                return 1

            def outer(self):
                return self.inner()
        """})
    assert p.callees("repro.a.Box.outer") == {"repro.a.Box.inner"}


def test_instantiate_and_call_method():
    p = _project(**{"repro.a": """
        class Box:
            def work(self):
                return 1

        def use():
            return Box().work()
        """})
    assert "repro.a.Box.work" in p.callees("repro.a.use")


def test_unique_method_name_fallback():
    """A method name defined exactly once resolves through an untyped
    receiver; an ambiguous name does not."""
    p = _project(**{"repro.a": """
        class Only:
            def distinctive(self):
                return 1

        def use(box):
            return box.distinctive()
        """})
    assert "repro.a.Only.distinctive" in p.callees("repro.a.use")


def test_ambiguous_method_name_does_not_resolve():
    p = _project(**{"repro.a": """
        class One:
            def shared(self):
                return 1

        class Two:
            def shared(self):
                return 2

        def use(box):
            return box.shared()
        """})
    assert p.callees("repro.a.use") == frozenset()


def test_decorated_def_still_registers_and_resolves():
    p = _project(**{"repro.a": """
        import functools

        def deco(fn):
            return fn

        @deco
        @functools.lru_cache
        def cached():
            return 1

        def use():
            return cached()
        """})
    assert "repro.a.cached" in p.functions
    assert "repro.a.cached" in p.callees("repro.a.use")


def test_nested_def_scope_chain():
    p = _project(**{"repro.a": """
        def outer():
            def inner():
                return 1

            return inner()
        """})
    assert "repro.a.outer.inner" in p.functions
    assert "repro.a.outer.inner" in p.callees("repro.a.outer")


# -- worker reachability -----------------------------------------------------

def test_parallel_map_seeds_task_and_transitive_callees():
    p = _project(**{"repro.a": """
        from repro.parallel import parallel_map

        def leaf():
            return 1

        def task(item):
            return leaf()

        def driver(items):
            return parallel_map(task, items)
        """})
    assert "repro.a.task" in p.worker_roots
    assert p.is_worker_reachable("repro.a.task")
    assert p.is_worker_reachable("repro.a.leaf")
    assert not p.is_worker_reachable("repro.a.driver")


def test_executor_submit_seeds_nested_task():
    p = _project(**{"repro.a": """
        def leaf():
            return 1

        def dispatch(pool, items):
            def task(item):
                return leaf()

            return [pool.submit(task, i).result() for i in items]
        """})
    assert "repro.a.dispatch.task" in p.worker_roots
    assert p.is_worker_reachable("repro.a.leaf")
    assert not p.is_worker_reachable("repro.a.dispatch")


def test_lambda_task_registers_pseudo_function():
    p = _project(**{"repro.a": """
        from repro.parallel import parallel_map

        def driver(items):
            return parallel_map(lambda x: x + 1, items)
        """})
    assert any(".<lambda:" in q for q in p.worker_roots)


def test_summary_counts():
    p = _project(**{"repro.a": """
        from repro.parallel import parallel_map

        def task(item):
            return item

        def driver(items):
            return parallel_map(task, items)
        """})
    s = p.summary()
    assert s["modules"] == 1
    assert s["functions"] == 2
    assert s["worker_roots"] == 1
    assert s["worker_reachable_functions"] == 1


# -- lock and mutation facts -------------------------------------------------

def test_with_lock_records_acquisition_and_guards_mutation():
    p = _project(**{"repro.a": """
        import threading

        _state = {}
        _lock = threading.Lock()

        def write(key, value):
            with _lock:
                _state[key] = value
        """})
    facts = p.facts["repro.a.write"]
    assert [a.lock for a in facts.acquisitions] == ["repro.a._lock"]
    (mut,) = [m for m in facts.mutations if m.kind == "global"]
    assert mut.name == "_state"
    assert mut.guarded


def test_bare_global_mutation_is_unguarded():
    p = _project(**{"repro.a": """
        _state = {}

        def write(key, value):
            _state[key] = value
        """})
    (mut,) = p.facts["repro.a.write"].mutations
    assert mut.kind == "global"
    assert not mut.guarded
