"""The one suppression-baseline core, over both finding kinds.

Every case runs on lint findings (rule + normalised-line fingerprint)
and on scan findings (content fingerprint): round trip, deterministic
bytes, count-bounded matching, the empty baseline and strict loading.
Kind-specific semantics stay with their tool: line shifts and file
moves in ``tests/analysis/test_engine.py``, confidence changes in
``tests/scan/test_baseline.py``.
"""

import itertools
import json

import pytest

from repro.analysis.engine import Finding as LintFinding
from repro.baseline import (VERSIONS, apply_baseline, load_baseline,
                            write_baseline)
from repro.scan.findings import EvidenceWindow, make_finding


def lint_finding(index, path="src/repro/core/a.py", line=1):
    return LintFinding(path, line, 0, "DET001", "determinism",
                       "wall-clock read", f"t{index} = time.time()")


def scan_finding(index, victim=None):
    return make_finding("tmsi-exposure", victim or f"tmsi-{index:04d}",
                        f"exposure {index}", "high", 0.5)


MAKERS = {"lint": lint_finding, "scan": scan_finding}


@pytest.fixture(params=sorted(MAKERS))
def kind(request):
    return request.param


def test_round_trip(tmp_path, kind):
    make = MAKERS[kind]
    findings = [make(1), make(2), make(1)]
    path = tmp_path / "baseline.json"
    document = write_baseline(path, findings, kind)
    assert document["version"] == VERSIONS[kind]
    assert json.loads(path.read_text()) == document
    counts = load_baseline(path, kind)
    assert counts == {make(1).fingerprint(): 2, make(2).fingerprint(): 1}
    new, old = apply_baseline(findings, counts)
    assert new == [] and old == findings


def test_bytes_ignore_input_order(tmp_path, kind):
    make = MAKERS[kind]
    findings = [make(3), make(1), make(2), make(1)]
    written = set()
    for index, order in enumerate(itertools.permutations(findings)):
        path = tmp_path / f"{index}.json"
        write_baseline(path, order, kind)
        written.add(path.read_bytes())
    assert len(written) == 1


def test_apply_splits_new_from_baselined(kind):
    make = MAKERS[kind]
    known, fresh = make(1), make(2)
    new, old = apply_baseline([known, fresh], {known.fingerprint(): 1})
    assert new == [fresh]
    assert old == [known]


def test_count_bounded(kind):
    # Two identical findings against a baseline that recorded one: the
    # second surfaces as new, and the consumed bound does not leak into
    # the next call.
    make = MAKERS[kind]
    first, second = make(1), make(1)
    counts = {first.fingerprint(): 1}
    new, old = apply_baseline([first, second], counts)
    assert old == [first] and new == [second]
    assert counts == {first.fingerprint(): 1}
    assert apply_baseline([first], counts) == ([], [first])


def test_empty_baseline(tmp_path, kind):
    make = MAKERS[kind]
    path = tmp_path / "baseline.json"
    assert write_baseline(path, [], kind) == {"version": VERSIONS[kind],
                                              "entries": []}
    assert load_baseline(path, kind) == {}
    findings = [make(1), make(2)]
    assert apply_baseline(findings, {}) == (findings, [])


def _entry(count):
    return [{"fingerprint": "0123456789abcdef", "count": count}]


#: Malformed documents, as functions of the kind's version.
MALFORMED = {
    "wrong-version": lambda v: {"version": v + 1, "entries": []},
    "no-version": lambda v: {"entries": []},
    "not-object": lambda v: [1, 2, 3],
    "no-entries": lambda v: {"not": "a baseline"},
    "entries-not-list": lambda v: {"version": v,
                                   "entries": {"0123456789abcdef": 1}},
    "entry-not-object": lambda v: {"version": v, "entries": [1]},
    "fingerprint-not-string": lambda v: {
        "version": v, "entries": [{"fingerprint": 5, "count": 1}]},
    "count-bool": lambda v: {"version": v, "entries": _entry(True)},
    "count-zero": lambda v: {"version": v, "entries": _entry(0)},
    "count-float": lambda v: {"version": v, "entries": _entry(2.0)},
    "count-string": lambda v: {"version": v, "entries": _entry("2")},
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_rejects_malformed(tmp_path, kind, case):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(MALFORMED[case](VERSIONS[kind])))
    with pytest.raises(ValueError, match=kind):
        load_baseline(path, kind)


def test_count_defaults_to_one(tmp_path, kind):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": VERSIONS[kind],
                                "entries": [{"fingerprint": "ab"}]}))
    assert load_baseline(path, kind) == {"ab": 1}


# -- byte identity with the committed document formats -------------------------------

#: Lint findings covering the writer's choices: a fingerprint shared
#: across files (count 2; the first by path, line, col names the
#: entry), whitespace-only snippet variants, and entries ordered by
#: (path, rule, fingerprint) — not by line.
FIXED_LINT = [
    LintFinding("src/repro/core/b.py", 9, 4, "DET001", "determinism",
                "wall-clock read", "t = time.time()"),
    LintFinding("src/repro/core/a.py", 3, 0, "DET002", "determinism",
                "global RNG draw", "x = np.random.rand(3)"),
    LintFinding("src/repro/core/a.py", 7, 4, "DET001", "determinism",
                "wall-clock read", "t  =  time.time()"),
    LintFinding("src/repro/core/a.py", 8, 0, "DET001", "determinism",
                "wall-clock read", "start = time.time()"),
]

FIXED_SCAN = [
    make_finding("tmsi-exposure", "tmsi-0002", "TMSI 0002 exposed",
                 "high", 0.75,
                 evidence=[EvidenceWindow("cell-1", 0.0, 2.5, "binding")],
                 metrics={"bindings": 3.0}),
    make_finding("app-fingerprint", "tmsi-0001", "YouTube in use",
                 "medium", 0.6),
    make_finding("tmsi-exposure", "tmsi-0001", "TMSI 0001 exposed",
                 "high", 0.9),
    make_finding("tmsi-exposure", "tmsi-0002", "TMSI 0002 exposed",
                 "high", 0.75,
                 evidence=[EvidenceWindow("cell-1", 0.0, 2.5, "binding")],
                 metrics={"bindings": 3.0}),
]

EXPECTED_LINT = """\
{
  "entries": [
    {
      "count": 1,
      "fingerprint": "3c9e29a85e6e5787",
      "path": "src/repro/core/a.py",
      "rule": "DET001",
      "snippet": "start = time.time()"
    },
    {
      "count": 2,
      "fingerprint": "99ceaea07a375164",
      "path": "src/repro/core/a.py",
      "rule": "DET001",
      "snippet": "t  =  time.time()"
    },
    {
      "count": 1,
      "fingerprint": "3737998bad4fb6c5",
      "path": "src/repro/core/a.py",
      "rule": "DET002",
      "snippet": "x = np.random.rand(3)"
    }
  ],
  "version": 3
}
"""

EXPECTED_SCAN = """\
{
  "entries": [
    {
      "count": 1,
      "detector": "app-fingerprint",
      "fingerprint": "8006a1f1d85a293a",
      "summary": "YouTube in use",
      "victim": "tmsi-0001"
    },
    {
      "count": 1,
      "detector": "tmsi-exposure",
      "fingerprint": "5dc6bf3b0b8751f8",
      "summary": "TMSI 0001 exposed",
      "victim": "tmsi-0001"
    },
    {
      "count": 2,
      "detector": "tmsi-exposure",
      "fingerprint": "b77ea957e198b296",
      "summary": "TMSI 0002 exposed",
      "victim": "tmsi-0002"
    }
  ],
  "version": 1
}
"""


@pytest.mark.parametrize("kind, findings, expected", [
    ("lint", FIXED_LINT, EXPECTED_LINT),
    ("scan", FIXED_SCAN, EXPECTED_SCAN),
], ids=["lint", "scan"])
def test_written_bytes_match_the_document_format(tmp_path, kind, findings,
                                                 expected):
    for order in (findings, findings[::-1]):
        path = tmp_path / "baseline.json"
        write_baseline(path, order, kind)
        assert path.read_bytes() == expected.encode("utf-8")
