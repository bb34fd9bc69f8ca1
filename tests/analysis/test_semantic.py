"""Fixtures for the whole-program rule family (SEED/FLOW/CACHE).

Single-module cases go through :func:`lint_source` (which runs the
project pass over a one-module project); the interprocedural cases
write a two-module ``repro`` tree to ``tmp_path`` and lint it through
:func:`lint_paths`, exercising import resolution, the call graph, and
the cross-module fixpoints exactly as the CLI does.
"""

from pathlib import Path

from repro.analysis import lint_paths, lint_source
from repro.analysis.report import render_json

#: Inside the repro tree, outside any scoped package.
GENERIC = Path("repro/core/fixture.py")


def fired(source: str, path: Path = GENERIC):
    result = lint_source(source, path)
    return sorted({f.rule for f in result.findings})


def lint_tree(tmp_path, files):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint the tree."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return lint_paths([tmp_path])


def tree_fired(tmp_path, files):
    return sorted({f.rule for f in lint_tree(tmp_path, files).findings})


# -- SEED001: RNG seed provenance -------------------------------------------------


def test_seed001_positive_constant_seed():
    src = ("import random\n"
           "def sampler():\n"
           "    return random.Random(1234)\n")
    assert fired(src) == ["SEED001"]


def test_seed001_positive_untraceable_value():
    src = ("import random\n"
           "def sampler():\n"
           "    return random.Random(make_seed())\n")
    assert fired(src) == ["SEED001"]


def test_seed001_negative_seed_parameter():
    src = ("import random\n"
           "def sampler(seed):\n"
           "    return random.Random(seed)\n")
    assert fired(src) == []


def test_seed001_negative_seed_through_local_flow():
    src = ("import numpy as np\n"
           "def sampler(seed, index):\n"
           "    mixed = seed * 1000 + index\n"
           "    return np.random.default_rng(mixed)\n")
    assert fired(src) == []


def test_seed001_negative_registered_derivation():
    src = ("import hashlib\n"
           "import random\n"
           "def sampler(label):\n"
           "    digest = hashlib.sha256(label.encode()).digest()\n"
           "    return random.Random(int.from_bytes(digest[:8], 'big'))\n")
    assert fired(src) == []


def test_seed001_covers_faults_package():
    # The fault layer is no longer skipped: a constant seed there is
    # reported once, by SEED001.
    src = ("import random\n"
           "def corrupt():\n"
           "    return random.Random(7)\n")
    assert fired(src, Path("repro/faults/fixture.py")) == ["SEED001"]


def test_seed001_interprocedural_seed_crosses_modules(tmp_path):
    # The seed flows caller -> helper parameter -> construction: clean,
    # and provable only with the cross-module call graph.
    rules = tree_fired(tmp_path, {
        "repro/core/helpers.py": (
            "import random\n"
            "def build_rng(seed):\n"
            "    return random.Random(seed)\n"),
        "repro/core/driver.py": (
            "from repro.core.helpers import build_rng\n"
            "def run(seed):\n"
            "    rng = build_rng(seed)\n"
            "    return rng.random()\n"),
    })
    assert rules == []


# -- SEED002: dead seed parameters ------------------------------------------------


def test_seed002_positive_locally_dead_seed():
    src = ("def simulate(seed, n):\n"
           "    return list(range(n))\n")
    assert fired(src) == ["SEED002"]


def test_seed002_negative_seed_reaches_rng():
    src = ("import random\n"
           "def simulate(seed, n):\n"
           "    rng = random.Random(seed)\n"
           "    return [rng.random() for _ in range(n)]\n")
    assert fired(src) == []


def test_seed002_negative_abstract_stub():
    # Trivial bodies have unknown overriders: never a dead seed.
    src = ("import abc\n"
           "class Model(abc.ABC):\n"
           "    @abc.abstractmethod\n"
           "    def generate(self, rng):\n"
           "        ...\n")
    assert fired(src) == []


def test_seed002_negative_forward_into_abstract_dispatch():
    src = ("class Model:\n"
           "    def session(self, rng):\n"
           "        return self._generate(rng)\n"
           "    def _generate(self, rng):\n"
           "        raise NotImplementedError\n")
    assert fired(src) == []


def test_seed002_interprocedural_dead_in_transit(tmp_path):
    # The callee accepts the seed and drops it; both ends are dead, and
    # the caller's verdict needs the callee's summary from the other
    # module.
    result = lint_tree(tmp_path, {
        "repro/core/helpers.py": (
            "def consume(seed, n):\n"
            "    return list(range(n))\n"),
        "repro/core/driver.py": (
            "from repro.core.helpers import consume\n"
            "def run(seed):\n"
            "    return consume(seed, 4)\n"),
    })
    assert sorted({f.rule for f in result.findings}) == ["SEED002"]
    assert len(result.findings) == 2  # helper AND forwarding caller


def test_seed002_interprocedural_live_through_chain(tmp_path):
    rules = tree_fired(tmp_path, {
        "repro/core/helpers.py": (
            "import random\n"
            "def consume(seed, n):\n"
            "    rng = random.Random(seed)\n"
            "    return [rng.random() for _ in range(n)]\n"),
        "repro/core/driver.py": (
            "from repro.core.helpers import consume\n"
            "def run(seed):\n"
            "    return consume(seed, 4)\n"),
    })
    assert rules == []


# -- FLOW001: ParallelMap worker purity -------------------------------------------


def test_flow001_positive_worker_mutates_module_global():
    src = ("from repro.runtime import ParallelMap\n"
           "_SEEN = {}\n"
           "def work(item):\n"
           "    _SEEN[item] = True\n"
           "    return item\n"
           "def run(items):\n"
           "    return ParallelMap(4).map(work, items)\n")
    assert "FLOW001" in fired(src)


def test_flow001_negative_pure_worker():
    src = ("from repro.runtime import ParallelMap\n"
           "def work(item):\n"
           "    return item * 2\n"
           "def run(items):\n"
           "    return ParallelMap(4).map(work, items)\n")
    assert fired(src) == []


def test_flow001_interprocedural_mutation_via_callee(tmp_path):
    # The worker itself is clean; a helper it calls (in another module)
    # appends to a module-global — the witness must travel the call
    # graph back to the fan-out site.
    result = lint_tree(tmp_path, {
        "repro/core/recorder.py": (
            "_LOG = []\n"
            "def note(item):\n"
            "    _LOG.append(item)\n"),
        "repro/core/driver.py": (
            "from repro.runtime import ParallelMap\n"
            "from repro.core.recorder import note\n"
            "def work(item):\n"
            "    note(item)\n"
            "    return item\n"
            "def run(items):\n"
            "    return ParallelMap(4).map(work, items)\n"),
    })
    flow = [f for f in result.findings if f.rule == "FLOW001"]
    assert len(flow) == 1
    assert "via" in flow[0].message


# -- FLOW002: writes into mmap-aliased views --------------------------------------


def test_flow002_positive_write_into_loader_view():
    src = ("from repro.sniffer.trace import TraceSet\n"
           "def clamp(path):\n"
           "    traces = TraceSet.from_npz(path, mmap_mode='r')\n"
           "    view = traces.traces[0].times_s\n"
           "    view[0] = 0.0\n"
           "    return view\n")
    assert fired(src) == ["FLOW002"]


def test_flow002_negative_copy_before_write():
    src = ("from repro.sniffer.trace import TraceSet\n"
           "def clamp(path):\n"
           "    traces = TraceSet.from_npz(path, mmap_mode='r')\n"
           "    owned = traces.traces[0].times_s.copy()\n"
           "    owned[0] = 0.0\n"
           "    return owned\n")
    assert fired(src) == []


def test_flow002_negative_dict_insert_is_not_array_write():
    src = ("from repro.sniffer.trace import TraceSet\n"
           "def annotate(path):\n"
           "    traces = TraceSet.from_npz(path, mmap_mode='r')\n"
           "    columns = {'times_s': traces.traces[0].times_s}\n"
           "    columns['meta'] = True\n"
           "    return columns\n")
    assert fired(src) == []


def test_flow002_interprocedural_tainted_arg_written_by_callee(tmp_path):
    result = lint_tree(tmp_path, {
        "repro/core/mutate.py": (
            "def zero_head(arr, n):\n"
            "    arr[:n] = 0\n"
            "    return arr\n"),
        "repro/core/driver.py": (
            "from repro.sniffer.trace import TraceSet\n"
            "from repro.core.mutate import zero_head\n"
            "def run(path):\n"
            "    traces = TraceSet.from_npz(path, mmap_mode='r')\n"
            "    view = traces.traces[0].times_s\n"
            "    return zero_head(view, 4)\n"),
    })
    flow = [f for f in result.findings if f.rule == "FLOW002"]
    assert any("zero_head" in f.message for f in flow)


# -- CACHE001: cache-key completeness ---------------------------------------------


def test_cache001_positive_key_omits_parameter():
    src = ("def collect(cache, app, day):\n"
           "    value = simulate(app, day)\n"
           "    cache.put(cache.key(app=app), value)\n")
    assert "CACHE001" in fired(src)


def test_cache001_negative_key_covers_all_parameters():
    src = ("def collect(cache, app, day):\n"
           "    value = simulate(app, day)\n"
           "    cache.put(cache.key(app=app, day=day), value)\n")
    assert fired(src) == []


def test_cache001_interprocedural_key_helper(tmp_path):
    # The key is built by a helper in another module that folds in only
    # `app`; the cached value also reads `day`.  Coverage must be
    # resolved through the helper's key-parameter summary.
    result = lint_tree(tmp_path, {
        "repro/core/keys.py": (
            "def trace_key(cache, app):\n"
            "    return cache.key(app=app)\n"),
        "repro/core/collect.py": (
            "from repro.core.keys import trace_key\n"
            "def collect(cache, app, day):\n"
            "    value = simulate(app, day)\n"
            "    cache.put(trace_key(cache, app), value)\n"),
    })
    cache_findings = [f for f in result.findings if f.rule == "CACHE001"]
    assert len(cache_findings) == 1
    assert "`day`" in cache_findings[0].message


def test_cache001_interprocedural_complete_key_helper(tmp_path):
    rules = tree_fired(tmp_path, {
        "repro/core/keys.py": (
            "def trace_key(cache, app, day):\n"
            "    return cache.key(app=app, day=day)\n"),
        "repro/core/collect.py": (
            "from repro.core.keys import trace_key\n"
            "def collect(cache, app, day):\n"
            "    value = simulate(app, day)\n"
            "    cache.put(trace_key(cache, app, day), value)\n"),
    })
    assert "CACHE001" not in rules


def test_cache001_unresolvable_key_is_skipped():
    # A key built by code the analysis cannot see must not guess.
    src = ("import mystery\n"
           "def collect(cache, app, day):\n"
           "    value = simulate(app, day)\n"
           "    cache.put(mystery.key_for(app), value)\n")
    assert "CACHE001" not in fired(src)


# -- project-pass module set ------------------------------------------------------


def test_import_cycle_members_report_their_own_findings(tmp_path):
    # Modules that import each other share one import closure; each
    # still reports the project finding anchored in its own source.
    result = lint_tree(tmp_path, {
        "repro/core/a.py": ("import repro.core.b\n"
                            "import random\n"
                            "RNG = random.Random(12345)\n"),
        "repro/core/b.py": ("import repro.core.a\n"
                            "import random\n"
                            "RNG = random.Random(678)\n"),
    })
    assert [(f.rule, Path(f.path).name) for f in result.findings] == [
        ("SEED001", "a.py"), ("SEED001", "b.py")]


def test_dotted_name_collision_analyses_the_first_file(tmp_path):
    # Two trees both carry repro.core.util: the project pass keeps the
    # first in scan order while the file-scope rules still see both
    # files, and the output does not depend on the path argument order.
    source = ("import random\nimport time\n"
              "RNG = random.Random(1)\n"
              "START = time.time()\n")
    for root in ("one", "two"):
        target = tmp_path / root / "repro" / "core" / "util.py"
        target.parent.mkdir(parents=True)
        target.write_text(source)
    one, two = tmp_path / "one", tmp_path / "two"
    forward = lint_paths([one, two])
    assert [(f.rule, Path(f.path).parts[-4]) for f in forward.findings] \
        == [("SEED001", "one"), ("DET001", "one"), ("DET001", "two")]
    assert render_json(lint_paths([two, one])) == render_json(forward)
