"""Engine mechanics: suppressions, baselines, scoping, file discovery."""

from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.engine import (_dotted_module_name, resolve_rules,
                                   suppressions)
from repro.baseline import apply_baseline, load_baseline, write_baseline

FIXTURE = Path("repro/core/fixture.py")


# -- suppressions -----------------------------------------------------------------


def test_targeted_noqa_suppresses_only_that_rule():
    src = "import time\nstart = time.time()  # repro: noqa[DET001]\n"
    result = lint_source(src, FIXTURE)
    assert result.findings == []
    assert result.suppressed == 1


def test_bare_noqa_suppresses_every_rule_on_the_line():
    src = "import time\nstart = time.time()  # repro: noqa\n"
    result = lint_source(src, FIXTURE)
    assert result.findings == []
    assert result.suppressed == 1


def test_noqa_for_other_rule_does_not_suppress():
    src = "import time\nstart = time.time()  # repro: noqa[NUM001]\n"
    result = lint_source(src, FIXTURE)
    assert [f.rule for f in result.findings] == ["DET001"]


def test_noqa_on_other_line_does_not_suppress():
    src = ("import time\n"
           "# repro: noqa[DET001]\n"
           "start = time.time()\n")
    result = lint_source(src, FIXTURE)
    assert [f.rule for f in result.findings] == ["DET001"]


def test_noqa_inside_string_literal_is_not_a_suppression():
    src = ("import time\n"
           "doc = 'use # repro: noqa[DET001] sparingly'\n"
           "start = time.time()\n")
    result = lint_source(src, FIXTURE)
    assert [f.rule for f in result.findings] == ["DET001"]


def test_suppression_scan_parses_comma_separated_ids():
    src = "x = 1  # repro: noqa[DET001, NUM002]\n"
    assert suppressions(src) == {1: {"DET001", "NUM002"}}


def test_noqa_on_first_line_of_multiline_statement():
    # The call spans two physical lines and the finding anchors on the
    # second; a noqa on the statement's first line must still apply.
    src = ("import time\n"
           "start = (  # repro: noqa[DET001]\n"
           "    time.time())\n")
    result = lint_source(src, FIXTURE)
    assert result.findings == []
    assert result.suppressed == 1


def test_noqa_on_decorator_line_covers_the_def():
    # SEED002 anchors on the ``def`` line; a suppression written on the
    # decorator (the visual first line of the statement) must count.
    src = ("import functools\n"
           "@functools.lru_cache()  # repro: noqa[SEED002]\n"
           "def simulate(seed, n):\n"
           "    return list(range(n))\n")
    result = lint_source(src, FIXTURE)
    assert result.findings == []
    assert result.suppressed == 1


def test_noqa_inside_multiline_statement_interior_line():
    src = ("import time\n"
           "start = (\n"
           "    time.time())  # repro: noqa[DET001]\n")
    result = lint_source(src, FIXTURE)
    assert result.findings == []
    assert result.suppressed == 1


def test_manifest_noqa_exemplar_is_live():
    """The shipped exemplar suppression keeps manifest.py clean."""
    path = Path(__file__).resolve().parents[2] \
        / "src" / "repro" / "obs" / "manifest.py"
    source = path.read_text(encoding="utf-8")
    assert "# repro: noqa[DET001]" in source
    result = lint_source(source, path)
    assert result.findings == []
    assert result.suppressed >= 1


# -- lint baselines: path-free fingerprints ---------------------------------------


def test_baseline_fingerprint_survives_line_shift():
    src_a = "import time\nstart = time.time()\n"
    src_b = "import time\n\n\n# moved down\nstart = time.time()\n"
    finding_a = lint_source(src_a, FIXTURE).findings[0]
    finding_b = lint_source(src_b, FIXTURE).findings[0]
    assert finding_a.line != finding_b.line
    assert finding_a.fingerprint() == finding_b.fingerprint()


def test_baseline_does_not_mask_new_findings(tmp_path):
    old_src = "import time\nstart = time.time()\n"
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, lint_source(old_src, FIXTURE).findings,
                   "lint")

    new_src = ("import time\nimport numpy as np\n"
               "start = time.time()\n"
               "x = np.random.rand(3)\n")
    grandfathered = load_baseline(baseline_file, "lint")
    new, old = apply_baseline(lint_source(new_src, FIXTURE).findings,
                              grandfathered)
    assert [f.rule for f in old] == ["DET001"]
    assert [f.rule for f in new] == ["DET002"]


def test_baseline_survives_file_move(tmp_path):
    # Fingerprints carry no path: a `git mv` (same bytes, new location)
    # keeps every grandfathered finding baselined.
    src = "import time\nstart = time.time()\n"
    old = lint_source(src, Path("repro/core/clock.py")).findings
    baseline_file = tmp_path / "baseline.json"
    write_baseline(baseline_file, old, "lint")

    moved = lint_source(src, Path("repro/runtime2/clock.py")).findings
    assert [f.fingerprint() for f in moved] == [f.fingerprint() for f in old]
    new, grandfathered = apply_baseline(
        moved, load_baseline(baseline_file, "lint"))
    assert new == []
    assert len(grandfathered) == 1


def test_baseline_matching_is_count_bounded(tmp_path):
    # The fingerprint is path-free, so without a bound one baselined
    # line would grandfather every textually identical violation
    # anywhere in the tree — including files written afterwards.  Each
    # entry suppresses at most as many findings as existed at write
    # time; the extra copy surfaces as new.
    src = "import time\nstart = time.time()\n"
    baseline_file = tmp_path / "baseline.json"
    document = write_baseline(baseline_file,
                              lint_source(src, FIXTURE).findings, "lint")
    assert document["entries"][0]["count"] == 1

    grandfathered = load_baseline(baseline_file, "lint")
    copies = (lint_source(src, FIXTURE).findings
              + lint_source(src, Path("repro/core/other.py")).findings)
    new, old = apply_baseline(copies, grandfathered)
    assert len(old) == 1
    assert len(new) == 1
    # ...and the consumed bound does not leak between calls.
    new2, old2 = apply_baseline(
        lint_source(src, FIXTURE).findings, grandfathered)
    assert new2 == [] and len(old2) == 1


# -- module scoping ---------------------------------------------------------------


def test_dotted_module_name_from_repro_tree():
    assert _dotted_module_name(
        Path("src/repro/experiments/table3_lab.py")) \
        == "repro.experiments.table3_lab"
    assert _dotted_module_name(Path("src/repro/obs/__init__.py")) \
        == "repro.obs"
    assert _dotted_module_name(Path("scratch/fixture.py")) == "fixture"


def test_fixture_trees_scope_like_the_real_package(tmp_path):
    # Package-scoped rules key on the path from the last `repro`
    # component, so a fixture tree under tmp_path scopes identically.
    driver = tmp_path / "repro" / "experiments" / "tableX.py"
    driver.parent.mkdir(parents=True)
    driver.write_text("def run(scale='fast'):\n    return 1\n")
    result = lint_paths([tmp_path])
    assert [f.rule for f in result.findings] == ["OBS001"]


# -- engine robustness ------------------------------------------------------------


def test_syntax_error_becomes_eng001_finding():
    result = lint_source("def broken(:\n", Path("repro/core/broken.py"))
    assert [f.rule for f in result.findings] == ["ENG001"]
    assert result.findings[0].family == "engine"


def test_unknown_select_id_raises():
    with pytest.raises(ValueError, match="NOPE"):
        lint_paths([Path("src/repro/analysis")], select=["NOPE"])


def test_findings_are_deterministically_ordered(tmp_path):
    b = tmp_path / "repro" / "b.py"
    a = tmp_path / "repro" / "a.py"
    b.parent.mkdir(parents=True)
    b.write_text("import time\nx = time.time()\ny = time.time()\n")
    a.write_text("import time\nz = time.time()\n")
    result = lint_paths([tmp_path])
    locations = [(f.path, f.line) for f in result.findings]
    assert locations == sorted(locations)
    assert result.files_scanned == 2


def test_select_narrows_findings(tmp_path):
    # One file-scope and one project-scope finding; select keeps only
    # the named rule's, in either scope.
    tree = tmp_path / "repro" / "core"
    tree.mkdir(parents=True)
    (tree / "clock.py").write_text("import time\nSTART = time.time()\n")
    (tree / "rng.py").write_text("import random\nRNG = random.Random(7)\n")
    full = lint_paths([tmp_path])
    assert sorted(f.rule for f in full.findings) == ["DET001", "SEED001"]
    for rule_id in ("DET001", "SEED001"):
        narrowed = lint_paths([tmp_path], select=[rule_id])
        assert [f.rule for f in narrowed.findings] == [rule_id]
        assert narrowed.files_scanned == 2


def test_select_duplicate_ids_run_each_rule_once(tmp_path):
    # A repeated id must not run its rule twice (doubling every
    # finding); ids keep their first-seen order.
    tree = tmp_path / "repro" / "core"
    tree.mkdir(parents=True)
    (tree / "clock.py").write_text("import time\nSTART = time.time()\n")
    result = lint_paths([tmp_path], select=["DET001", "DET001"])
    assert [f.rule for f in result.findings] == ["DET001"]
    assert [rule.id for rule in resolve_rules(
        select=["SEED001", "DET001", "SEED001"])] == ["SEED001", "DET001"]


def test_pycache_and_hidden_dirs_are_skipped(tmp_path):
    tree = tmp_path / "repro"
    (tree / "__pycache__").mkdir(parents=True)
    (tree / ".hidden").mkdir()
    (tree / "__pycache__" / "junk.py").write_text(
        "import time\nx = time.time()\n")
    (tree / ".hidden" / "junk.py").write_text(
        "import time\nx = time.time()\n")
    (tree / "ok.py").write_text("VALUE = 1\n")
    result = lint_paths([tmp_path])
    assert result.findings == []
    assert result.files_scanned == 1


def test_hidden_ancestor_of_the_scanned_root_is_linted(tmp_path):
    # Only components below the scanned root are tested for a leading
    # dot: a checkout under a hidden directory (CI workspaces, tool
    # caches) still lints every file.
    root = tmp_path / ".ci" / "pkg"
    (root / "repro").mkdir(parents=True)
    (root / "repro" / "clock.py").write_text(
        "import time\nx = time.time()\n")
    result = lint_paths([root])
    assert result.files_scanned == 1
    assert [f.rule for f in result.findings] == ["DET001"]


# -- file discovery ----------------------------------------------------------------


def test_iter_python_files_is_sorted_and_deduplicated(tmp_path):
    from repro.analysis.engine import iter_python_files

    tree = tmp_path / "repro"
    tree.mkdir()
    for name in ("b.py", "a.py", "c.py"):
        (tree / name).write_text("VALUE = 1\n")
    # Overlapping inputs (the tree, a file inside it, the tree again)
    # must not produce duplicates, and order is path-sorted.
    files = list(iter_python_files([tmp_path, tree / "b.py", tmp_path]))
    assert files == sorted(files)
    assert [p.name for p in files] == ["a.py", "b.py", "c.py"]


def test_iter_python_files_symlinked_duplicate_counts_once(tmp_path):
    from repro.analysis.engine import iter_python_files

    tree = tmp_path / "repro"
    tree.mkdir()
    real = tree / "real.py"
    real.write_text("import time\nx = time.time()\n")
    try:
        (tree / "alias.py").symlink_to(real)
    except OSError:
        pytest.skip("platform lacks symlink support")
    files = list(iter_python_files([tmp_path]))
    # One physical file: the lexicographically-smallest name survives.
    assert [p.name for p in files] == ["alias.py"]
    result = lint_paths([tmp_path])
    assert len(result.findings) == 1


def test_iter_python_files_symlink_loop_terminates(tmp_path):
    from repro.analysis.engine import iter_python_files

    tree = tmp_path / "repro"
    tree.mkdir()
    (tree / "ok.py").write_text("VALUE = 1\n")
    try:
        (tree / "loop").symlink_to(tree)
    except OSError:
        pytest.skip("platform lacks symlink support")
    files = list(iter_python_files([tmp_path]))
    assert [p.name for p in files] == ["ok.py"]
