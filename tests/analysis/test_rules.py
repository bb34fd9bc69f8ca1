"""One positive and one negative fixture per rule.

Each case lints a small snippet through the real engine (same parse,
dispatch, and suppression path as the CLI) and asserts on the rule ids
that fire.  Paths are chosen so package-scoped rules see the module
layout they scope on.
"""

from pathlib import Path

import pytest

from repro.analysis import lint_source

#: Default fixture path: inside the repro tree, outside any scoped
#: package, so unscoped rules apply and scoped ones don't.
GENERIC = Path("repro/core/fixture.py")


def rules_fired(source: str, path: Path = GENERIC):
    result = lint_source(source, path)
    return sorted({f.rule for f in result.findings})


# -- DET001: wall-clock reads -----------------------------------------------------


def test_det001_positive_time_time():
    assert rules_fired("import time\nstart = time.time()\n") == ["DET001"]


def test_det001_positive_datetime_now():
    src = "from datetime import datetime\nstamp = datetime.now()\n"
    assert "DET001" in rules_fired(src)


def test_det001_negative_perf_counter():
    src = "import time\nelapsed = time.perf_counter()\n"
    assert rules_fired(src) == []


# -- DET002: unseeded / global RNG ------------------------------------------------


def test_det002_positive_global_sampler():
    src = "import numpy as np\nx = np.random.rand(4)\n"
    assert rules_fired(src) == ["DET002"]


def test_det002_positive_unseeded_default_rng():
    src = "import numpy as np\nrng = np.random.default_rng()\n"
    assert rules_fired(src) == ["DET002"]


def test_det002_positive_stdlib_global():
    src = "import random\nrandom.shuffle(items)\n"
    assert rules_fired(src) == ["DET002"]


def test_det002_negative_seeded_rng():
    # Seeds arrive through a parameter: clean for DET002 *and* for
    # SEED001's whole-program provenance check.
    src = ("import numpy as np\nimport random\n"
           "def draw(seed):\n"
           "    rng = np.random.default_rng(seed)\n"
           "    r = random.Random(seed)\n"
           "    return rng.integers(0, 10), r.random()\n")
    assert rules_fired(src) == []


# -- DET003: set iteration --------------------------------------------------------


def test_det003_positive_for_over_union():
    src = ("def f(a, b):\n"
           "    out = []\n"
           "    for item in set(a) | set(b):\n"
           "        out.append(item)\n"
           "    return out\n")
    assert rules_fired(src) == ["DET003"]


def test_det003_positive_list_of_set():
    assert rules_fired("order = list({3, 1, 2})\n") == ["DET003"]


def test_det003_negative_sorted_set():
    src = ("def f(a, b):\n"
           "    return [item for item in sorted(set(a) | set(b))]\n")
    assert rules_fired(src) == []


# -- SEED001 in repro.faults: draws trace to a seed parameter --------------------

#: Inside repro.faults, where SEED001 also checks sampler draws.
_FAULTS = Path("repro/faults/fixture.py")


def test_seed001_faults_positive_constant_seed():
    src = ("import numpy as np\n"
           "def make_trace(n=10):\n"
           "    rng = np.random.default_rng(42)\n"
           "    return rng.uniform(0.0, 1.0, n)\n")
    assert rules_fired(src, _FAULTS) == ["SEED001"]


def test_seed001_faults_positive_untraceable_sampler():
    src = ("_rng = None\n"
           "def corrupt(trace):\n"
           "    return _rng.uniform(0.0, 1.0)\n")
    assert rules_fired(src, _FAULTS) == ["SEED001"]


def test_seed001_faults_negative_seed_parameter():
    src = ("import numpy as np\n"
           "def make_trace(seed, n=10):\n"
           "    rng = np.random.default_rng(seed)\n"
           "    return rng.uniform(0.0, 1.0, n)\n")
    assert rules_fired(src, _FAULTS) == []


def test_seed001_faults_negative_rng_parameter():
    src = ("def capture_loss(trace, rng, *, rate=0.1):\n"
           "    keep = rng.random(8) >= rate\n"
           "    return keep\n")
    assert rules_fired(src, _FAULTS) == []


def test_seed001_faults_negative_derived_seed_material():
    # plan.rng_for hashes its parameters into a digest first: a
    # registered derivation.
    src = ("import hashlib\n"
           "import numpy as np\n"
           "def rng_for(seed, index):\n"
           "    digest = hashlib.sha256(f'{seed}:{index}'.encode()).digest()\n"
           "    return np.random.default_rng(\n"
           "        int.from_bytes(digest[:8], 'big'))\n")
    assert rules_fired(src, _FAULTS) == []


def test_seed001_faults_positive_constant_seed_outside_faults_package():
    # The constant-seed construction is reported everywhere.
    src = ("import numpy as np\n"
           "def make_trace(n=10):\n"
           "    rng = np.random.default_rng(42)\n"
           "    return rng.uniform(0.0, 1.0, n)\n")
    assert rules_fired(src, GENERIC) == ["SEED001"]


def test_seed001_faults_negative_draw_outside_faults_package():
    # Outside repro.faults only the construction is checked: a draw
    # from a generator that is neither a parameter nor built here is
    # the caller's business.
    src = ("_rng = None\n"
           "def corrupt(trace):\n"
           "    return _rng.uniform(0.0, 1.0)\n")
    assert rules_fired(src, GENERIC) == []


# -- NUM001: unvalidated scatter --------------------------------------------------


def test_num001_positive_unvalidated_add_at():
    src = ("import numpy as np\n"
           "def count(matrix, labels):\n"
           "    np.add.at(matrix, labels, 1)\n")
    assert rules_fired(src) == ["NUM001"]


def test_num001_negative_guarded_add_at():
    src = ("import numpy as np\n"
           "def count(matrix, labels):\n"
           "    if labels.min() < 0:\n"
           "        raise ValueError('negative label')\n"
           "    np.add.at(matrix, labels, 1)\n")
    assert rules_fired(src) == []


def test_num001_negative_clipped_indices():
    src = ("import numpy as np\n"
           "def count(matrix, labels, n):\n"
           "    safe = np.clip(labels, 0, n - 1)\n"
           "    np.add.at(matrix, safe, 1)\n")
    assert rules_fired(src) == []


# -- NUM002: in-place writes into Trace columns -----------------------------------


def test_num002_positive_subscript_store():
    src = "def patch(trace):\n    trace.tbs_bytes[0] = 12.5\n"
    assert rules_fired(src) == ["NUM002"]


def test_num002_positive_augmented_store():
    src = "def bump(trace, i):\n    trace.rntis[i] += 1\n"
    assert rules_fired(src) == ["NUM002"]


def test_num002_negative_read_and_rebuild():
    src = ("def shift(trace):\n"
           "    sizes = trace.tbs_bytes + 1\n"
           "    first = trace.rntis[0]\n"
           "    return sizes, first\n")
    assert rules_fired(src) == []


# -- NUM003: narrowing dtypes -----------------------------------------------------


def test_num003_positive_astype_int32():
    src = "import numpy as np\ny = x.astype(np.int32)\n"
    assert rules_fired(src) == ["NUM003"]


def test_num003_positive_platform_int():
    assert rules_fired("y = x.astype(int)\n") == ["NUM003"]


def test_num003_positive_dtype_keyword():
    src = "import numpy as np\ny = np.zeros(8, dtype='float32')\n"
    assert rules_fired(src) == ["NUM003"]


def test_num003_negative_wide_and_named_dtypes():
    src = ("import numpy as np\n"
           "from repro.sniffer.trace import RNTI_DTYPE\n"
           "a = x.astype(np.int64)\n"
           "b = np.zeros(4, dtype=np.float64)\n"
           "c = np.asarray(x, dtype=RNTI_DTYPE)\n")
    assert rules_fired(src) == []


# -- PAR001: unpicklable work functions -------------------------------------------


def test_par001_positive_lambda():
    src = ("from repro import runtime\n"
           "def fit(items):\n"
           "    return runtime.mapper(4).map(lambda x: x + 1, items)\n")
    assert rules_fired(src) == ["PAR001"]


def test_par001_positive_nested_def():
    src = ("from repro.runtime import ParallelMap\n"
           "def fit(items):\n"
           "    def work(x):\n"
           "        return x + 1\n"
           "    pmap = ParallelMap(workers=4)\n"
           "    return pmap.map(work, items)\n")
    assert rules_fired(src) == ["PAR001"]


def test_par001_negative_partial_of_module_fn():
    src = ("import functools\n"
           "from repro import runtime\n"
           "def _work(x, bias):\n"
           "    return x + bias\n"
           "def fit(items):\n"
           "    work = functools.partial(_work, bias=2)\n"
           "    return runtime.mapper(4).map(work, items)\n")
    assert rules_fired(src) == []


def test_par001_negative_builtin_map_lambda():
    # map(lambda ...) over a plain list is not a ParallelMap fan-out.
    src = "out = list(map(str, [1, 2]))\nxs = [x for x in out]\n"
    assert rules_fired(src) == []


# -- PAR002: hand-rolled cache keys -----------------------------------------------


def test_par002_positive_literal_key():
    # A literal key bypasses TraceCache.key (PAR002) *and* omits the
    # parameter the stored value depends on (CACHE001).
    src = "def warm(cache, value):\n    cache.put('abc123', value)\n"
    assert rules_fired(src) == ["CACHE001", "PAR002"]


def test_par002_positive_hand_hashed_key():
    src = ("import hashlib\n"
           "def lookup(cache, blob):\n"
           "    return cache.get(hashlib.sha256(blob).hexdigest())\n")
    assert rules_fired(src) == ["PAR002"]


def test_par002_negative_key_method():
    src = ("def lookup(cache, app, seed):\n"
           "    return cache.get(cache.key(app=app, seed=seed))\n")
    assert rules_fired(src) == []


def test_par002_negative_plain_dict_variable_key():
    src = ("def lookup(cache, name):\n"
           "    return cache.get(name)\n")
    assert rules_fired(src) == []


# -- PAR003: raw pools ------------------------------------------------------------


def test_par003_positive_raw_executor():
    src = ("from concurrent.futures import ProcessPoolExecutor\n"
           "def fanout(fn, items):\n"
           "    with ProcessPoolExecutor(4) as pool:\n"
           "        return list(pool.map(fn, items))\n")
    assert rules_fired(src) == ["PAR003"]


def test_par003_negative_inside_runtime_package():
    src = ("from concurrent.futures import ProcessPoolExecutor\n"
           "pool = ProcessPoolExecutor(2)\n")
    path = Path("repro/runtime/parallel.py")
    assert rules_fired(src, path) == []


# -- PAR004: per-UE loops in vectorized hot-path modules --------------------------

_ENGINE = Path("repro/lte/engine.py")


def test_par004_positive_loop_over_ue_contexts():
    src = ("def tti(self):\n"
           "    for ctx in self._contexts.values():\n"
           "        ctx.step()\n")
    assert rules_fired(src, _ENGINE) == ["PAR004"]


def test_par004_positive_loop_over_grants():
    src = ("def apply(grants):\n"
           "    total = 0\n"
           "    for grant in grants:\n"
           "        total += grant.tbs_bytes\n"
           "    return total\n")
    assert rules_fired(src, _ENGINE) == ["PAR004"]


def test_par004_positive_contexts_values_iteration():
    src = ("def sweep(contexts):\n"
           "    for slot in contexts.values():\n"
           "        slot.reset()\n")
    assert rules_fired(src, _ENGINE) == ["PAR004"]


def test_par004_negative_vectorised_body():
    src = ("import numpy as np\n"
           "def tti(pending, served):\n"
           "    return pending - np.minimum(pending, served)\n")
    assert rules_fired(src, _ENGINE) == []


def test_par004_negative_non_ue_loop():
    src = ("def reset(self):\n"
           "    for name in ('_arr_dl', '_arr_ul'):\n"
           "        getattr(self, name).fill(0)\n")
    assert rules_fired(src, _ENGINE) == []


def test_par004_negative_outside_hot_path_modules():
    src = ("def drain(contexts):\n"
           "    for ctx in contexts.values():\n"
           "        ctx.step()\n")
    assert rules_fired(src, GENERIC) == []


def test_par004_noqa_suppresses_justified_scalar_loop():
    src = ("def harq(allocations):\n"
           "    for allocation in allocations:"
           "  # repro: noqa[PAR004] — draw order is observable\n"
           "        allocation.retransmit()\n")
    assert rules_fired(src, _ENGINE) == []


# -- PAR005: per-prediction loops in vectorized inference modules -----------------

_FOREST = Path("repro/ml/forest.py")
_DTW = Path("repro/ml/dtw.py")


def test_par005_positive_loop_over_trees():
    src = ("def predict(self, X):\n"
           "    for tree in self.trees_:\n"
           "        total += tree.predict_proba(X)\n")
    assert rules_fired(src, _FOREST) == ["PAR005"]


def test_par005_positive_loop_over_pairs():
    src = ("def score(pairs):\n"
           "    out = []\n"
           "    for pair in pairs:\n"
           "        out.append(dtw_distance(*pair))\n"
           "    return out\n")
    assert rules_fired(src, _DTW) == ["PAR005"]


def test_par005_positive_trees_attribute_iteration():
    src = ("def importances(self):\n"
           "    for fitted in self.trees_:\n"
           "        counts += fitted.split_counts()\n")
    assert rules_fired(src, _FOREST) == ["PAR005"]


def test_par005_negative_vectorised_descent():
    src = ("import numpy as np\n"
           "def descend(self, X):\n"
           "    node = np.zeros((self.n_trees, len(X)), dtype=np.intp)\n"
           "    return self.leaf_proba[node]\n")
    assert rules_fired(src, _FOREST) == []


def test_par005_negative_non_prediction_loop():
    src = ("def validate(self):\n"
           "    for name in ('left', 'right'):\n"
           "        check(getattr(self, name))\n")
    assert rules_fired(src, _FOREST) == []


def test_par005_negative_outside_inference_modules():
    src = ("def walk(rows):\n"
           "    for row in rows:\n"
           "        row.emit()\n")
    assert rules_fired(src, GENERIC) == []


def test_par005_noqa_suppresses_justified_scalar_loop():
    src = ("def accumulate(self, leaves):\n"
           "    for tree in range(self.n_trees):"
           "  # repro: noqa[PAR005] — IEEE accumulation order parity\n"
           "        total += self.leaf_proba[tree, leaves[tree]]\n")
    assert rules_fired(src, _FOREST) == []


# -- OBS001: @obs.timed on experiment drivers -------------------------------------

_EXPERIMENT = Path("repro/experiments/table9_new.py")


def test_obs001_positive_undecorated_run():
    src = "def run(scale='fast'):\n    return 1\n"
    assert rules_fired(src, _EXPERIMENT) == ["OBS001"]


def test_obs001_negative_decorated_run():
    src = ("from .. import obs\n"
           "@obs.timed('experiment.table9')\n"
           "def run(scale='fast'):\n"
           "    return 1\n")
    assert rules_fired(src, _EXPERIMENT) == []


def test_obs001_negative_outside_experiments():
    src = "def run(scale='fast'):\n    return 1\n"
    assert rules_fired(src, GENERIC) == []


def test_obs001_negative_helper_name():
    src = "def _stage(scale):\n    return 1\n"
    assert rules_fired(src, _EXPERIMENT) == []


# -- OBS002: instrument registration in loops -------------------------------------


def test_obs002_positive_counter_in_loop():
    src = ("from repro import obs\n"
           "def tick(items):\n"
           "    for item in items:\n"
           "        obs.counter('sim.items').inc()\n")
    assert rules_fired(src) == ["OBS002"]


def test_obs002_negative_fetch_once():
    src = ("from repro import obs\n"
           "def tick(items):\n"
           "    items_obs = obs.counter('sim.items')\n"
           "    for item in items:\n"
           "        items_obs.inc()\n")
    assert rules_fired(src) == []


# -- registry sanity --------------------------------------------------------------


def test_ruleset_covers_all_five_families():
    from repro.analysis import all_rules

    rules = all_rules()
    assert len(rules) >= 8
    families = {rule.family for rule in rules.values()}
    assert families == {"determinism", "numeric", "parallel", "obs",
                        "dataflow"}
    # Ids are unique by construction; check the naming convention.
    for rule_id in rules:
        assert rule_id.rstrip("0123456789") in (
            "DET", "NUM", "PAR", "OBS", "SEED", "FLOW", "CACHE")


@pytest.mark.parametrize("rule_id", [
    "DET001", "DET002", "DET003", "NUM001", "NUM002", "NUM003",
    "PAR001", "PAR002", "PAR003", "PAR004", "PAR005", "OBS001", "OBS002",
    "SEED001", "SEED002", "FLOW001", "FLOW002", "CACHE001",
])
def test_every_shipped_rule_is_registered(rule_id):
    from repro.analysis import all_rules

    assert rule_id in all_rules()
