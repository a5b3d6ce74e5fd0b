"""Rendering lint results: human one-liners and machine JSON.

The JSON document is versioned because CI uploads it as an artifact
and the schema therefore outlives any one checkout.  On top of the
original version-1 shape it carries:

``call_graph``
    Digest of the cross-module analysis (module/function/edge counts,
    worker-reachability) when any project-scope rule ran; ``null``
    otherwise.

Version 3 dropped version 2's ``fixture_corpus``: the race-fixture
corpus gate runs in the test suite, not on every lint call.
"""

from __future__ import annotations

import json
from typing import Any

from repro.devtools.lint.engine import LintReport
from repro.devtools.lint.registry import Rule

__all__ = ["to_text", "to_json", "JSON_VERSION"]

JSON_VERSION = 3


def to_text(report: LintReport, rules: dict[str, Rule]) -> str:
    """Human-readable report: one line per finding plus a summary."""
    lines = [f.render() for f in report.findings]
    if report.findings:
        per_rule = ", ".join(f"{rid}: {n}"
                             for rid, n in report.counts.items())
        lines.append("")
        lines.append(
            f"{len(report.findings)} finding"
            f"{'s' if len(report.findings) != 1 else ''} "
            f"({per_rule}) in {report.files_checked} files"
            + (f"; {report.suppressed} suppressed"
               if report.suppressed else ""))
    else:
        lines.append(
            f"dpzlint: {report.files_checked} files clean"
            + (f" ({report.suppressed} suppressed)"
               if report.suppressed else ""))
    if report.call_graph:
        cg = report.call_graph
        lines.append(
            f"call graph: {cg['modules']} modules, "
            f"{cg['functions']} functions, {cg['edges']} edges, "
            f"{cg['worker_reachable_functions']} worker-reachable")
    return "\n".join(lines)


def to_json(report: LintReport, rules: dict[str, Rule]) -> str:
    """Machine-readable report, current (version-3) schema."""
    doc: dict[str, Any] = {
        "tool": "dpzlint",
        "version": JSON_VERSION,
        "files_checked": report.files_checked,
        "suppressed": report.suppressed,
        "counts": report.counts,
        "rules": {
            r.id: {"name": r.name, "summary": r.summary}
            for r in rules.values()
        },
        "findings": [
            {"rule": f.rule, "path": f.path, "line": f.line,
             "col": f.col, "message": f.message}
            for f in report.findings
        ],
        "call_graph": report.call_graph,
    }
    return json.dumps(doc, indent=2, sort_keys=True)

