"""``dpzlint``: the repo-native static-analysis pass.

A small AST-walking lint engine purpose-built for this codebase's
correctness surface -- invariants that no pytest run exercises
directly, because violating them produces archives that are *wrong
elsewhere* (another CPU, another run, another machine) while every
local test still passes:

* serialization boundaries must pin dtype and endianness (DPZ101),
* randomness must be seeded (DPZ201),
* codec layers may only raise the repro.errors taxonomy (DPZ301/302),
* metric names must come from the central catalog (DPZ401),
* compress/decompress entry points must be traced (DPZ501),
* no mutable default arguments (DPZ601),
* the public API surface must be documented (DPZ701),
* worker-reachable code may not mutate shared state unguarded, call
  process-global singleton mutators, invert lock order, or skip a
  majority-established field guard (DPZ801-DPZ804 -- project-scope
  rules over the cross-module call graph in
  :mod:`repro.devtools.lint.callgraph`).

Run it as ``dpz lint src/`` (human output) or
``dpz lint src/ --format json`` (CI artifact).  Suppress a finding
in-line with ``# dpzlint: ignore[DPZ101]``; see ``LINTS.md`` for the
full rule catalog and rationale.
"""

from repro.devtools.lint.engine import (
    FileContext,
    Finding,
    LintReport,
    PARSE_ERROR_ID,
    iter_python_files,
    lint_file,
    lint_paths,
)
from repro.devtools.lint.registry import (
    Rule,
    all_rules,
    get_rule,
    resolve_selection,
    rule,
)
from repro.devtools.lint.report import (
    JSON_VERSION,
    to_json,
    to_text,
)

__all__ = [
    "FileContext",
    "Finding",
    "LintReport",
    "PARSE_ERROR_ID",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "Rule",
    "rule",
    "all_rules",
    "get_rule",
    "resolve_selection",
    "JSON_VERSION",
    "to_json",
    "to_text",
]
