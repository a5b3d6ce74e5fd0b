"""DPZ401/DPZ501: observability invariants.

DPZ401 pins every metric name to the central catalog
(:mod:`repro.observability.catalog`), so a typo'd counter name fails
lint instead of silently splitting a time series.  DPZ501 requires
every public compress/decompress entry point to open a tracer span, so
``dpz trace`` never has blind stages.
"""

from __future__ import annotations

import ast
import re
from typing import Collection, Iterator

from repro.devtools.lint.engine import FileContext, Finding
from repro.devtools.lint.registry import rule
from repro.devtools.lint.rules._ast_utils import call_name, walk_functions

__all__ = ["check_metric_catalog", "check_span_coverage"]

#: Metric-emitting helpers whose first argument is the metric name.
_EMITTERS = frozenset({
    "counter_inc", "gauge_set", "gauge_add", "observe",
})

#: Registry factory methods (``registry.counter("name")`` etc.).
_FACTORIES = frozenset({"counter", "gauge", "histogram"})

#: Modules that legitimately pass metric names through variables (the
#: registry plumbing itself).
_CATALOG_EXEMPT = (
    "repro.observability.metrics",
    "repro.observability.catalog",
)

#: Layers whose compress/decompress entry points must be traced.
SPAN_LAYERS = ("repro.baselines", "repro.core.compressor")

#: Layers whose request handlers must be traced, and the method names
#: that count as request handlers there (``ServeApp.handle`` is the
#: worker-pool body every store-touching request funnels through).
SERVE_SPAN_LAYERS = ("repro.serve",)
_SERVE_ENTRY_METHODS = frozenset({"handle"})

#: Module-level one-call wrappers (``sz_compress``) count as entry
#: points too, but delegating into a traced method satisfies the rule.
_ENTRY_FN = re.compile(r"^[a-z0-9]+_(compress|decompress)$")
_ENTRY_METHODS = frozenset({"compress", "decompress", "decompress_many",
                            "compress_with_stats"})


def _load_catalog() -> tuple[frozenset[str], frozenset[str]]:
    from repro.observability.catalog import METRIC_NAMES, METRIC_PREFIXES

    return METRIC_NAMES, METRIC_PREFIXES


def _literal_prefix(expr: ast.expr) -> tuple[str | None, bool]:
    """Return ``(text, is_exact)`` for a statically-known metric name.

    ``is_exact`` is False when only a leading prefix is known (string
    concatenation, f-strings).  ``(None, ...)`` means undecidable.
    """
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value, True
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Add):
        left, exact = _literal_prefix(expr.left)
        if left is not None:
            return left, False
        return None, False
    if isinstance(expr, ast.JoinedStr) and expr.values:
        first = expr.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value, False
    return None, False


@rule("DPZ401", "metric-catalog",
      "every metric name must appear in repro.observability.catalog",
      "A typo'd metric name creates a parallel, silently-empty time "
      "series; the catalog makes the namespace a checked surface.")
def check_metric_catalog(ctx: FileContext) -> Iterator[Finding]:
    """Flag metric emissions whose name is not in the catalog."""
    if not ctx.in_layer("repro"):
        return
    if ctx.module.startswith(_CATALOG_EXEMPT):
        return
    names, prefixes = _load_catalog()
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        target = call_name(node)
        if target is None:
            continue
        leaf = target.split(".")[-1]
        if leaf in _EMITTERS:
            pass
        elif leaf in _FACTORIES and isinstance(node.func, ast.Attribute):
            # Only treat `<recv>.counter("x")` as a registry call when
            # the receiver smells like a registry, not e.g. np.histogram.
            recv = target.rsplit(".", 1)[0].lower()
            if "registry" not in recv and "metrics" not in recv:
                continue
        else:
            continue
        text, exact = _literal_prefix(node.args[0])
        if text is None:
            continue
        if exact and text in names:
            continue
        if any(text.startswith(p) for p in prefixes):
            continue
        if not exact:
            yield ctx.finding(
                "DPZ401", node,
                f"dynamically-built metric name starting with "
                f"{text!r} matches no registered prefix in "
                f"repro.observability.catalog")
        else:
            yield ctx.finding(
                "DPZ401", node,
                f"metric name {text!r} is not in "
                f"repro.observability.catalog; add it there or fix "
                f"the typo")


def _satisfies_span(fn: ast.FunctionDef | ast.AsyncFunctionDef,
                    traced: Collection[str] = ()) -> bool:
    """True when ``fn`` opens a span, delegates to an entry point, or
    calls ``self.<m>()`` for a method ``m`` in ``traced``."""
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        # Delegation to another public entry point (one-call wrappers,
        # compress -> compress_with_stats) inherits its span.  Checked
        # on the raw attribute so `Cls(...).compress(x)` counts even
        # though its receiver has no dotted name.
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _ENTRY_METHODS:
            return True
        # So does a same-class helper that opens one itself.
        if isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id == "self" \
                and node.func.attr in traced:
            return True
        if isinstance(node.func, ast.Name) \
                and node.func.id in _ENTRY_METHODS:
            return True
        name = call_name(node)
        if name is None:
            continue
        if name.split(".")[-1] in ("span", "_stage", "use_tracer"):
            return True
    return False


@rule("DPZ501", "span-coverage",
      "public compress/decompress entry points must open a tracer span",
      "`dpz trace` and the stage-share regression gate read spans; an "
      "untraced codec is invisible to both and its regressions go "
      "unnoticed.")
def check_span_coverage(ctx: FileContext) -> Iterator[Finding]:
    """Flag compress/decompress entry points that never open a span."""
    if ctx.in_layer(*SERVE_SPAN_LAYERS):
        for fn, stack in walk_functions(ctx.tree):
            is_method = bool(stack) and stack[-1][:1].isupper()
            if not (is_method and fn.name in _SERVE_ENTRY_METHODS):
                continue
            if not _satisfies_span(fn):
                yield ctx.finding(
                    "DPZ501", fn,
                    f"{fn.name}() is a serve request handler but opens "
                    f"no tracer span; wrap the work in "
                    f"`with span(\"serve.request\")`")
        return
    if not ctx.in_layer(*SPAN_LAYERS):
        return
    traced: dict[str, set[str]] = {}  # class -> methods that open a span
    for fn, stack in walk_functions(ctx.tree):
        if stack and _satisfies_span(fn):
            traced.setdefault(stack[-1], set()).add(fn.name)
    for fn, stack in walk_functions(ctx.tree):
        if fn.name.startswith("_"):
            continue
        is_method = bool(stack) and stack[-1][:1].isupper()
        if is_method:
            if fn.name not in _ENTRY_METHODS:
                continue
        elif not (_ENTRY_FN.match(fn.name) and not stack):
            continue
        if not _satisfies_span(fn, traced.get(stack[-1], ()) if stack
                               else ()):
            yield ctx.finding(
                "DPZ501", fn,
                f"{fn.name}() is a public codec entry point but opens "
                f"no tracer span; wrap the work in "
                f"`with span(\"<codec>.<op>\")`")
