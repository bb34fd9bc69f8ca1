"""Meta-tests: the shipped tree is clean, and seeded violations fail.

These are the acceptance checks for the linter as a CI gate:

* ``lint src`` over the real tree yields zero findings (everything is
  either fixed or carries a justified inline suppression);
* a fixture tree seeded with one violation per rule family makes the
  CLI exit non-zero — per family;
* re-introducing PR 3's ``np.add.at`` confusion-matrix bug (scatter
  with unvalidated labels) is caught by the numeric-safety family.
"""

from pathlib import Path

import pytest

from repro import cli
from repro.analysis import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def test_shipped_tree_has_zero_findings():
    result = lint_paths([SRC])
    assert result.findings == [], "\n".join(
        f.format() for f in result.findings)
    assert result.files_scanned >= 80
    # The manifest wall-clock exemplar is the one sanctioned noqa.
    assert result.suppressed >= 1


def test_cli_lint_exits_zero_on_shipped_tree(capsys):
    assert cli.main(["lint", str(SRC)]) == 0
    assert "clean" in capsys.readouterr().out


_FAMILY_VIOLATIONS = {
    "determinism": ("repro/core/clock.py",
                    "import time\nSTART = time.time()\n"),
    "numeric": ("repro/core/scatter.py",
                "import numpy as np\n"
                "def count(matrix, labels):\n"
                "    np.add.at(matrix, labels, 1)\n"),
    "parallel": ("repro/core/fanout.py",
                 "from repro import runtime\n"
                 "def fit(items):\n"
                 "    return runtime.mapper(4).map(lambda x: x, items)\n"),
    "obs": ("repro/experiments/tableX.py",
            "def run(scale='fast'):\n    return 1\n"),
}


@pytest.mark.parametrize("family", sorted(_FAMILY_VIOLATIONS))
def test_cli_lint_fails_on_seeded_violation(tmp_path, capsys, family):
    rel_path, source = _FAMILY_VIOLATIONS[family]
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    assert cli.main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    result = lint_paths([tmp_path])
    assert {f.family for f in result.findings} == {family}
    for finding in result.findings:
        assert finding.rule in out


def test_cli_lint_fixture_tree_with_all_families(tmp_path, capsys):
    for rel_path, source in _FAMILY_VIOLATIONS.values():
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    assert cli.main(["lint", str(tmp_path)]) == 1
    result = lint_paths([tmp_path])
    assert {f.family for f in result.findings} == {
        "determinism", "numeric", "parallel", "obs"}


def test_cli_update_baseline_then_clean(tmp_path, capsys):
    rel_path, source = _FAMILY_VIOLATIONS["determinism"]
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    baseline = tmp_path / "baseline.json"
    assert cli.main(["lint", str(target), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
    # Grandfathered finding no longer fails the run...
    assert cli.main(["lint", str(target),
                     "--baseline", str(baseline)]) == 0
    assert "1 baselined" in capsys.readouterr().out
    # ...but a fresh violation in the same file still does.
    target.write_text(source + "import numpy as np\n"
                               "X = np.random.rand(3)\n")
    assert cli.main(["lint", str(target),
                     "--baseline", str(baseline)]) == 1


def test_cli_partial_update_baseline_exits_2(tmp_path, capsys):
    # Rewriting the baseline from a --select run would silently drop
    # every entry outside the selection; refuse it before linting.
    rel_path, source = _FAMILY_VIOLATIONS["determinism"]
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    baseline = tmp_path / "baseline.json"
    assert cli.main(["lint", str(target), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
    written = baseline.read_bytes()
    capsys.readouterr()
    assert cli.main(["lint", str(target), "--baseline", str(baseline),
                     "--select", "NUM001", "--update-baseline"]) == 2
    assert "--select" in capsys.readouterr().err
    assert baseline.read_bytes() == written


def test_cli_lint_missing_path_exits_2(tmp_path, capsys):
    # A typo in a CI lint path is bad input, not a clean run.
    missing = tmp_path / "no" / "such" / "path"
    assert cli.main(["lint", str(missing)]) == 2
    captured = capsys.readouterr()
    assert missing.as_posix() in captured.err
    assert "clean" not in captured.out


def test_cli_select_limits_rules(tmp_path):
    rel_path, source = _FAMILY_VIOLATIONS["determinism"]
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    assert cli.main(["lint", str(target), "--select", "NUM001"]) == 0
    assert cli.main(["lint", str(target), "--select", "DET001"]) == 1


def test_cli_json_format_is_parseable(tmp_path, capsys):
    import json

    rel_path, source = _FAMILY_VIOLATIONS["numeric"]
    target = tmp_path / rel_path
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    assert cli.main(["lint", str(target), "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 1
    assert document["counts"] == {"NUM001": 1}


def test_shipped_baseline_is_empty():
    import json

    document = json.loads(
        (REPO_ROOT / "lint-baseline.json").read_text())
    assert document == {"version": 3, "entries": []}


# -- PR 3 regression: the np.add.at confusion-matrix bug --------------------------

#: confusion_matrix as it existed before PR 3's fix: negative labels
#: wrap around and silently corrupt other classes' counts.
_PRE_PR3_CONFUSION_MATRIX = """\
import numpy as np

def confusion_matrix(y_true, y_pred, n_classes=None):
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if n_classes is None:
        n_classes = int(max(y_true.max(), y_pred.max())) + 1
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(matrix, (y_true, y_pred), 1)
    return matrix
"""


def test_reintroducing_pr3_add_at_bug_is_caught():
    result = lint_source(_PRE_PR3_CONFUSION_MATRIX,
                         Path("repro/ml/metrics.py"))
    assert [f.rule for f in result.findings] == ["NUM001"]
    assert result.findings[0].family == "numeric"


def test_current_confusion_matrix_passes():
    path = SRC / "repro" / "ml" / "metrics.py"
    result = lint_source(path.read_text(encoding="utf-8"), path)
    assert result.findings == []
