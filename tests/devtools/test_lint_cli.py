"""The `dpz lint` subcommand: exit codes, JSON schema, and self-check.

The self-check test is the real acceptance gate: the shipped source
tree must lint clean, so every invariant the rules encode is actually
upheld by the code that defines them.
"""

from __future__ import annotations

import json
import os
import textwrap
from pathlib import Path

import repro
from repro import cli
from repro.devtools.lint import (
    JSON_VERSION,
    PARSE_ERROR_ID,
    all_rules,
    lint_paths,
)

CLEAN_SRC = """\
    # dpzlint: module=repro.codecs.fake
    import numpy as np

    def decode(buf):
        return np.frombuffer(buf, dtype="<f4")
"""

DIRTY_SRC = """\
    # dpzlint: module=repro.codecs.fake
    import numpy as np

    def decode(buf):
        return np.frombuffer(buf, dtype=np.float32)
"""


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "clean.py", CLEAN_SRC)
    rc = cli.main(["lint", str(path)])
    assert rc == 0
    assert "clean" in capsys.readouterr().out


def test_lint_dirty_file_exits_one(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY_SRC)
    rc = cli.main(["lint", str(path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert "DPZ101" in out
    assert "dirty.py" in out


def test_lint_json_schema(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY_SRC)
    rc = cli.main(["lint", str(path), "--format", "json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == JSON_VERSION
    assert doc["tool"] == "dpzlint"
    assert doc["files_checked"] == 1
    assert doc["suppressed"] == 0
    assert doc["counts"] == {"DPZ101": 1}
    assert set(doc["rules"]) == set(all_rules())
    (finding,) = doc["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "DPZ101"
    assert finding["path"].endswith("dirty.py")
    assert set(doc["call_graph"]) == {
        "modules", "functions", "edges", "worker_roots",
        "worker_reachable_functions"}
    assert doc["call_graph"]["modules"] == 1
    assert "fixture_corpus" not in doc


def test_lint_select_limits_rules(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY_SRC)
    rc = cli.main(["lint", str(path), "--select", "DPZ201"])
    assert rc == 0
    capsys.readouterr()


def test_lint_out_writes_report_file(tmp_path, capsys):
    path = _write(tmp_path, "dirty.py", DIRTY_SRC)
    out_file = tmp_path / "report.json"
    rc = cli.main(["lint", str(path), "--format", "json",
                   "--out", str(out_file)])
    assert rc == 1
    doc = json.loads(out_file.read_text())
    assert doc["counts"] == {"DPZ101": 1}
    capsys.readouterr()


def test_lint_broken_symlink_reports_dpz000_and_continues(tmp_path, capsys):
    """A directory entry that cannot be read must degrade to one DPZ000
    finding, not a traceback, and the remaining files must still lint."""
    _write(tmp_path, "dirty.py", DIRTY_SRC)
    os.symlink(tmp_path / "does-not-exist.py", tmp_path / "dead.py")
    rc = cli.main(["lint", str(tmp_path)])
    assert rc == 1
    out = capsys.readouterr().out
    assert PARSE_ERROR_ID in out
    assert "could not read file" in out
    assert "DPZ101" in out  # the readable sibling still linted


def test_lint_unreadable_file_via_api(tmp_path):
    os.symlink(tmp_path / "gone.py", tmp_path / "dead.py")
    report = lint_paths([str(tmp_path)])
    assert [f.rule for f in report.findings] == [PARSE_ERROR_ID]
    assert report.files_checked == 1


def test_lint_missing_path_is_usage_error(tmp_path, capsys):
    rc = cli.main(["lint", str(tmp_path / "nope")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_lint_unknown_rule_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "clean.py", CLEAN_SRC)
    rc = cli.main(["lint", str(path), "--select", "DPZ999"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_shipped_tree_lints_clean():
    """`dpz lint src/repro` on the shipped tree must report nothing."""
    src_root = Path(repro.__file__).resolve().parent
    report = lint_paths([str(src_root)])
    assert report.findings == [], "\n".join(
        f.render() for f in report.findings
    )
    assert report.files_checked > 50
