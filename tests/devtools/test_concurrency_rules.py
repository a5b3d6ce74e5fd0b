"""DPZ801-804 concurrency rules: per-rule behavior plus the corpus gate.

The corpus test is the acceptance criterion from the issue: every racy
fixture must flag and no clean fixture may, for all four rules.  The
per-rule tests below pin individual behaviors (lock exemptions,
constructor exemptions, suppression comments) with fixtures linted
through the public ``lint_file`` path.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.lint import lint_file, resolve_selection
from repro.devtools.lint.corpus import CORPUS, run_fixture


def run_rules(tmp_path, select, source, name="fixture.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    findings, suppressed = lint_file(path, resolve_selection(select))
    return findings, suppressed


# -- the corpus gate ---------------------------------------------------------

@pytest.mark.parametrize("rule_id", sorted(CORPUS))
def test_corpus_racy_fixtures_all_flag(rule_id):
    for fixture in CORPUS[rule_id]:
        if not fixture.racy:
            continue
        findings = run_fixture(rule_id, fixture)
        assert findings, (
            f"{rule_id} corpus fixture {fixture.name!r} is racy but "
            f"produced no finding")


@pytest.mark.parametrize("rule_id", sorted(CORPUS))
def test_corpus_clean_fixtures_never_flag(rule_id):
    for fixture in CORPUS[rule_id]:
        if fixture.racy:
            continue
        findings = run_fixture(rule_id, fixture)
        assert findings == [], (
            f"{rule_id} corpus fixture {fixture.name!r} is clean but "
            f"flagged: " + "; ".join(f.message for f in findings))


# -- DPZ801 ------------------------------------------------------------------

def test_dpz801_flags_unguarded_global_in_task(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ801", """\
        from repro.parallel import parallel_map

        _hits = {}

        def task(item):
            _hits[item] = 1
            return item

        def run(items):
            return parallel_map(task, items)
        """)
    assert [f.rule for f in findings] == ["DPZ801"]
    assert "_hits" in findings[0].message
    assert "task()" in findings[0].message


def test_dpz801_lock_guard_silences(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ801", """\
        import threading

        from repro.parallel import parallel_map

        _hits = {}
        _hits_lock = threading.Lock()

        def task(item):
            with _hits_lock:
                _hits[item] = 1
            return item

        def run(items):
            return parallel_map(task, items)
        """)
    assert findings == []


def test_dpz801_suppression_comment(tmp_path):
    findings, suppressed = run_rules(tmp_path, "DPZ801", """\
        from repro.parallel import parallel_map

        _hits = {}

        def task(item):
            _hits[item] = 1  # dpzlint: ignore[DPZ801]
            return item

        def run(items):
            return parallel_map(task, items)
        """)
    assert findings == []
    assert suppressed == 1


def test_dpz801_ignores_non_worker_functions(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ801", """\
        _hits = {}

        def serial(item):
            _hits[item] = 1
        """)
    assert findings == []


# -- DPZ802 ------------------------------------------------------------------

def test_dpz802_flags_registry_mutation_from_task(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ802", """\
        from repro.codecs.registry import unregister_codec
        from repro.parallel import parallel_map

        def task(item):
            unregister_codec(item)
            return item

        def run(items):
            return parallel_map(task, items)
        """)
    assert [f.rule for f in findings] == ["DPZ802"]
    assert "unregister_codec" in findings[0].message


def test_dpz802_allows_same_call_outside_worker(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ802", """\
        from repro.codecs.registry import unregister_codec

        def teardown(name):
            unregister_codec(name)
        """)
    assert findings == []


# -- DPZ803 ------------------------------------------------------------------

def test_dpz803_flags_abba_and_names_both_locks(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ803", """\
        import threading

        _a = threading.Lock()
        _b = threading.Lock()

        def fwd():
            with _a:
                with _b:
                    return 1

        def rev():
            with _b:
                with _a:
                    return 2
        """)
    assert len(findings) == 1
    assert findings[0].rule == "DPZ803"
    assert "_a" in findings[0].message and "_b" in findings[0].message


def test_dpz803_interprocedural_cycle(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ803", """\
        import threading

        _a = threading.Lock()
        _b = threading.Lock()

        def take_b():
            with _b:
                return 1

        def fwd():
            with _a:
                return take_b()

        def rev():
            with _b:
                with _a:
                    return 2
        """)
    assert len(findings) == 1


def test_dpz803_consistent_order_is_clean(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ803", """\
        import threading

        _a = threading.Lock()
        _b = threading.Lock()

        def one():
            with _a:
                with _b:
                    return 1

        def two():
            with _a:
                with _b:
                    return 2
        """)
    assert findings == []


# -- DPZ804 ------------------------------------------------------------------

def test_dpz804_flags_bare_minority_mutation(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ804", """\
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
        """)
    assert [f.rule for f in findings] == ["DPZ804"]
    assert "reset()" in findings[0].message
    assert "_items" in findings[0].message


def test_dpz804_ctor_is_exempt(tmp_path):
    findings, _ = run_rules(tmp_path, "DPZ804", """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []
                self._items = sorted(self._items)

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def drop(self, item):
                with self._lock:
                    self._items.remove(item)
        """)
    assert findings == []


def test_dpz804_no_majority_no_finding(tmp_path):
    """One guarded site does not establish a guard discipline."""
    findings, _ = run_rules(tmp_path, "DPZ804", """\
        import threading

        class Box:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = []

            def add(self, item):
                with self._lock:
                    self._items.append(item)

            def reset(self):
                self._items = []
        """)
    assert findings == []
