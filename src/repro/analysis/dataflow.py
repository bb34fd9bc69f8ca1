"""Fixpoint interprocedural dataflow over the project call graph.

One scan per function collects *local facts* — name flows, RNG
constructions and the names their seeds resolve to, parameter uses at
resolved call sites, module-global mutations, mmap-taint sources and
in-place array writes, cache-key flows — and four monotone fixpoints
propagate them across call edges:

* **live parameters** (SEED002) — a parameter is live if the function
  uses it locally or forwards it into a live parameter of a resolved
  callee; anything passed to an unresolved call is conservatively live.
* **mutation witnesses** (FLOW001) — a function transitively mutates
  module state if it does so locally or calls (at any depth) a function
  that does; :mod:`repro.obs` and :mod:`repro.runtime` are exempt (the
  metrics registry and memoised fingerprints are deterministic
  infrastructure by design).
* **mmap returns / writing parameters** (FLOW002) — which functions
  return memory-mapped views (through arbitrarily long return chains)
  and which parameters a function writes in place.
* **key parameters** (CACHE001) — which parameters reach a
  ``TraceCache.key(...)`` construction, through key-helper chains.

The lattice everywhere is plain set-union over finite name sets, so
every fixpoint terminates; iteration order is sorted qualnames, which
keeps the summaries (and therefore the findings) deterministic.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from .engine import _is_mapper_call, dotted_name, names_in
from .graph import (FunctionInfo, ModuleSymbols, ProjectGraph,
                    map_arguments, module_symbols)

#: Constructors that turn a seed into a generator object (the seeded-RNG
#: pattern DET002 sanctions).
RNG_CONSTRUCTORS = frozenset({
    "np.random.default_rng", "numpy.random.default_rng",
    "random.Random", "np.random.Generator", "numpy.random.Generator",
})

#: Sampler methods of generator objects (``np.random.Generator`` /
#: ``random.Random``), which are also the global-RNG functions of the
#: ``random`` / ``np.random`` modules: SEED001's fault-layer draw check
#: and DET002.
GENERATOR_SAMPLERS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "choice", "choices", "shuffle", "permutation", "normal",
    "uniform", "standard_normal", "poisson", "exponential", "binomial",
    "bytes", "randrange", "gauss", "normalvariate", "getrandbits",
    "seed", "integers", "standard_exponential", "standard_gamma",
    "multinomial",
})

#: Registered seed derivations: a seed funnelled through one of these
#: is explicit provenance (the faults SHA-256 scheme and friends).
DERIVATION_CALLS = frozenset({
    "sha256", "sha1", "blake2b", "blake2s", "md5", "from_bytes",
    "rng_for", "derive_seed", "stable_seed", "crc32", "getrandbits",
})

#: Parameter names that carry seed/RNG provenance (SEED002's targets).
SEED_PARAM_RE = re.compile(r"^(seed|rng|.*_seed|seed_.*|.*_rng)$")

#: Container methods that mutate their receiver.
_MUTATING_METHODS = frozenset({
    "append", "add", "extend", "update", "insert", "setdefault", "pop",
    "popitem", "remove", "discard", "clear", "sort", "reverse",
})

#: ndarray methods that write through the receiver's buffer.
_ARRAY_WRITE_METHODS = frozenset({
    "fill", "sort", "put", "partition", "itemset", "byteswap",
})

#: Calls whose result is a fresh buffer: taint does not flow through.
#: ``np.asarray`` is deliberately absent — it returns a *view* of an
#: existing array when dtypes match, so taint survives it.
_SANITIZERS = frozenset({
    "copy", "deepcopy", "array", "ascontiguousarray", "tolist", "list",
    "dict", "astype",
})

#: Loader names whose result is (or may be) a read-only mmap view.
_MMAP_LOADERS = frozenset({"memmap"})

#: Packages whose module-state mutations are deterministic by design
#: (obs registry, runtime memoisation): never a FLOW001 witness.
_MUTATION_EXEMPT = ("repro.obs", "repro.runtime")

#: Parameters that steer *how* a cached value is computed, never *what*
#: its bytes are — excluded from CACHE001's must-be-keyed set.
_KEY_EXEMPT_PARAMS = frozenset({
    "self", "cls", "workers", "mapper", "progress", "verbose",
})

def _call_method_name(call: ast.Call) -> str:
    """The last component of the called name (``x['k'].copy()`` → ``copy``)."""
    name = dotted_name(call.func)
    if name is not None:
        return name.rsplit(".", 1)[-1]
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return ""


_BUILTIN_NAMES = frozenset({
    "range", "len", "enumerate", "zip", "sorted", "list", "dict", "set",
    "tuple", "min", "max", "sum", "abs", "int", "float", "str", "bool",
    "bytes", "map", "filter", "reversed", "isinstance", "getattr",
    "type", "repr", "round", "any", "all", "iter", "next", "frozenset",
    "hash", "print", "slice", "divmod", "True", "False", "None",
})


def _root_name(node: ast.AST) -> Optional[str]:
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _value_names(node: ast.AST) -> Set[str]:
    return names_in(node) - _BUILTIN_NAMES


def _receiver_name(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _has_derivation(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = dotted_name(child.func)
            if name is not None:
                last = name.rsplit(".", 1)[-1]
                if last in DERIVATION_CALLS or last.lstrip("_") in (
                        DERIVATION_CALLS):
                    return True
    return False


def _is_dict_build(value: ast.AST) -> bool:
    """Whether an assigned value is unmistakably a dict/set (not an array)."""
    if isinstance(value, (ast.Dict, ast.DictComp, ast.Set, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        name = dotted_name(value.func)
        if name is not None and name.rsplit(".", 1)[-1] in (
                "dict", "defaultdict", "OrderedDict", "Counter"):
            return True
    return False


def _is_trivial_body(node: ast.AST) -> bool:
    """Docstring + ``pass``/``...``/``raise`` — an abstract stub."""
    body = list(getattr(node, "body", []))
    if body and isinstance(body[0], ast.Expr) and isinstance(
            body[0].value, ast.Constant) and isinstance(
            body[0].value.value, str):
        body = body[1:]
    if not body:
        return True
    return all(isinstance(stmt, (ast.Pass, ast.Raise)) or (
        isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body)


@dataclass(frozen=True)
class RngConstruct:
    """One seeded-generator construction and its seed provenance."""

    node: ast.Call
    constructor: str
    resolved_params: FrozenSet[str]   # params (or self/cls) the seed names
    derived: bool                     # routed through a derivation call
    constant: bool                    # seed expression names no variable


@dataclass(frozen=True)
class ParamUse:
    """Caller parameters flowing into one resolved call argument."""

    callee: str                       # callee qualname
    param: str                        # callee parameter receiving the arg
    names: FrozenSet[str]             # caller params contributing
    direct: Optional[str]             # caller param passed as a bare name
    node: ast.Call


@dataclass(frozen=True)
class ArrayWrite:
    node: ast.AST
    base: str
    what: str


@dataclass(frozen=True)
class PutSite:
    node: ast.Call
    key_expr: ast.AST
    value_expr: ast.AST


@dataclass(frozen=True)
class MapperWork:
    node: ast.Call
    work: Optional[FunctionInfo]
    label: str


@dataclass
class FunctionFacts:
    """Everything the fixpoints need to know about one function."""

    info: FunctionInfo
    symbols: ModuleSymbols
    flows: Dict[str, Set[str]] = field(default_factory=dict)
    taint_edges: List[Tuple[str, FrozenSet[str]]] = field(
        default_factory=list)
    rng: List[RngConstruct] = field(default_factory=list)
    #: ``name.sampler(...)`` calls on a bare name (SEED001, fault layer).
    draws: List[ast.Call] = field(default_factory=list)
    live: Set[str] = field(default_factory=set)
    uses: List[ParamUse] = field(default_factory=list)
    callees: List[str] = field(default_factory=list)
    mutation: Optional[Tuple[ast.AST, str]] = None
    taint_seeds: Set[str] = field(default_factory=set)
    call_assigns: List[Tuple[FrozenSet[str], str]] = field(
        default_factory=list)
    returns_loader: bool = False
    return_names: Set[str] = field(default_factory=set)
    return_callees: Set[str] = field(default_factory=set)
    writes: List[ArrayWrite] = field(default_factory=list)
    key_seeds: Set[str] = field(default_factory=set)
    puts: List[PutSite] = field(default_factory=list)
    mapper_works: List[MapperWork] = field(default_factory=list)
    seed_like: Tuple[str, ...] = ()
    trivial: bool = False
    all_params: FrozenSet[str] = frozenset()
    assign_calls: Dict[str, ast.Call] = field(default_factory=dict)
    #: (callee qualname, callee param, bare local name, call node) for
    #: every argument passed as a plain name — FLOW002's hand-off check.
    direct_args: List[Tuple[str, str, str, ast.Call]] = field(
        default_factory=list)

    def resolve(self, names: Set[str]) -> FrozenSet[str]:
        """Close ``names`` over local flows; return the params reached."""
        seen: Set[str] = set()
        stack = sorted(names)
        found: Set[str] = set()
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in self.all_params or name in ("self", "cls"):
                found.add(name)
            stack.extend(sorted(self.flows.get(name, ())))
        return frozenset(found)


class _FunctionScan:
    """One pass over a function (or module top level) collecting facts."""

    def __init__(self, info: FunctionInfo, symbols: ModuleSymbols,
                 graph: ProjectGraph, module_level: bool = False) -> None:
        self.facts = FunctionFacts(info=info, symbols=symbols)
        self.graph = graph
        self.symbols = symbols
        self.module_level = module_level
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.local_binds: Set[str] = set(info.params)
        self.dict_locals: Set[str] = set()
        self.partials: Dict[str, FunctionInfo] = {}
        self.assign_calls = self.facts.assign_calls
        self.mapper_locals: Set[str] = set()
        self._nodes: List[ast.AST] = []
        self._collect_nodes(info.node)
        self._scan_bindings()
        self._scan_facts()
        self._classify_param_uses()

    # -- node collection ----------------------------------------------------------

    def _collect_nodes(self, root: ast.AST) -> None:
        if self.module_level:
            stack = [child for child in ast.iter_child_nodes(root)]
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    continue
                self._nodes.append(node)
                for child in ast.iter_child_nodes(node):
                    self.parents[child] = node
                    stack.append(child)
        else:
            # Nested defs and lambdas are inlined: their effects belong
            # to the enclosing function (the only FunctionFacts built).
            for node in ast.walk(root):
                for child in ast.iter_child_nodes(node):
                    self.parents[child] = node
            self._nodes = [n for n in ast.walk(root) if n is not root]

    # -- pass A: name bindings and flows ------------------------------------------

    def _flow(self, targets: Sequence[ast.AST], value: ast.AST,
              taints: bool = True, binds: bool = True) -> None:
        # `for a, b in zip(xs, ys)` unpacks positionally: each target
        # element sees only its own iterable, so taint on one zip arg
        # does not smear across every loop variable.
        if (len(targets) == 1
                and isinstance(targets[0], (ast.Tuple, ast.List))
                and isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "zip"
                and not value.keywords
                and len(value.args) == len(targets[0].elts)
                and not any(isinstance(arg, ast.Starred)
                            for arg in value.args)):
            for element, arg in zip(targets[0].elts, value.args):
                self._flow([element], arg, taints=taints, binds=binds)
            return
        sources = frozenset(_value_names(value))
        for target in targets:
            rebinds = binds
            if isinstance(target, ast.Name):
                names = [target.id]
            elif isinstance(target, (ast.Tuple, ast.List)):
                names = [n.id for n in ast.walk(target)
                         if isinstance(n, ast.Name)]
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                # A store *through* a name feeds values into it but does
                # not rebind it — the root stays a module global for the
                # FLOW001 check.
                root = _root_name(target)
                names = [root] if root else []
                rebinds = False
            else:
                names = []
            for name in names:
                if rebinds:
                    self.local_binds.add(name)
                self.facts.flows.setdefault(name, set()).update(sources)
                if taints:
                    self.facts.taint_edges.append((name, sources))

    def _scan_bindings(self) -> None:
        facts = self.facts
        nested_params: Set[str] = set(facts.info.params)
        for node in self._nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                args = node.args
                nested_params.update(
                    a.arg for a in (args.posonlyargs + args.args
                                    + args.kwonlyargs))
            elif isinstance(node, ast.Assign):
                value = node.value
                # Sanitizers match on the method name alone so chains
                # through subscripts (``arrays['x'].copy()``) count too.
                sanitized = (isinstance(value, ast.Call)
                             and _call_method_name(value) in _SANITIZERS)
                self._flow(node.targets, value, taints=not sanitized)
                if _is_dict_build(value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.dict_locals.add(target.id)
                if isinstance(value, ast.Call):
                    name = dotted_name(value.func)
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.assign_calls[target.id] = value
                            if _is_mapper_call(value):
                                self.mapper_locals.add(target.id)
                            if name is not None and name.rsplit(
                                    ".", 1)[-1] == "partial" and value.args:
                                work = self._resolve_expr(value.args[0])
                                if work is not None:
                                    self.partials[target.id] = work
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._flow([node.target], node.value)
                if (_is_dict_build(node.value)
                        and isinstance(node.target, ast.Name)):
                    self.dict_locals.add(node.target.id)
            elif isinstance(node, ast.AugAssign):
                self._flow([node.target], node.value)
                root = _root_name(node.target)
                if root is not None:
                    self.facts.flows.setdefault(root, set()).add(root)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._flow([node.target], node.iter)
            elif isinstance(node, ast.comprehension):
                self._flow([node.target], node.iter)
            elif isinstance(node, ast.NamedExpr):
                self._flow([node.target], node.value)
            elif isinstance(node, ast.withitem) and (
                    node.optional_vars is not None):
                self._flow([node.optional_vars], node.context_expr)
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in _MUTATING_METHODS
                        and isinstance(func.value, ast.Name)
                        and node.args):
                    joined = ast.Tuple(elts=list(node.args), ctx=ast.Load())
                    # `x.append(v)` feeds v into x without rebinding x.
                    self._flow([func.value], joined, binds=False)
        facts.all_params = frozenset(nested_params | {"self", "cls"})

    # -- expression-level resolution ----------------------------------------------

    def _resolve_expr(self, expr: ast.AST) -> Optional[FunctionInfo]:
        """A callable expression (name, attribute, partial) to its def."""
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if (name is not None and name.rsplit(".", 1)[-1] == "partial"
                    and expr.args):
                return self._resolve_expr(expr.args[0])
            return None
        if isinstance(expr, ast.Name) and expr.id in self.partials:
            return self.partials[expr.id]
        name = dotted_name(expr)
        if name is None:
            return None
        fake = ast.Call(func=expr, args=[], keywords=[])
        return self.graph.resolve_call(fake, self.symbols,
                                       self.facts.info.class_name)

    def _resolve_call(self, call: ast.Call) -> Optional[FunctionInfo]:
        return self.graph.resolve_call(call, self.symbols,
                                       self.facts.info.class_name)

    # -- pass B: facts ------------------------------------------------------------

    def _scan_facts(self) -> None:
        facts = self.facts
        info = facts.info
        facts.trivial = (not self.module_level
                         and _is_trivial_body(info.node))
        facts.seed_like = tuple(
            p for p in info.params if SEED_PARAM_RE.match(p))
        global_names: Set[str] = set()
        callees: Set[str] = set()
        for node in self._nodes:
            if isinstance(node, ast.Global):
                global_names.update(node.names)
            elif isinstance(node, ast.Call):
                self._scan_call(node, callees)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                self._scan_store(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._scan_return(node.value)
        if global_names and not self.module_level:
            rebound = sorted(global_names & self.local_binds)
            self._witness_global(global_names, rebound)
        facts.callees = sorted(callees)

    def _witness_global(self, declared: Set[str],
                        rebound: List[str]) -> None:
        if self._mutation_exempt():
            return
        name = rebound[0] if rebound else sorted(declared)[0]
        if self.facts.mutation is None:
            self.facts.mutation = (
                self.facts.info.node,
                f"rebinds module global `{name}`")

    def _mutation_exempt(self) -> bool:
        module = self.symbols.dotted
        return any(module == prefix or module.startswith(prefix + ".")
                   for prefix in _MUTATION_EXEMPT)

    def _is_module_global_target(self, root: Optional[str]) -> bool:
        if root is None or self.module_level:
            return False
        return (root in self.symbols.module_globals
                and root not in self.local_binds
                and root not in self.symbols.obs_names
                and root not in self.symbols.classes)

    def _scan_store(self, node: ast.stmt) -> None:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                root = _root_name(target)
                if root is None:
                    continue
                # Two dict-insert shapes that cannot be array writes:
                # a base built locally as a dict/set, and a store under
                # a string-constant key (arrays index by ints/slices).
                string_key = (isinstance(target, ast.Subscript)
                              and isinstance(target.slice, ast.Constant)
                              and isinstance(target.slice.value, str))
                if (isinstance(target, ast.Subscript)
                        and root not in self.dict_locals
                        and not string_key):
                    self.facts.writes.append(ArrayWrite(
                        node=node, base=root, what=f"`{root}[...]` store"))
                if (self._is_module_global_target(root)
                        and not self._mutation_exempt()
                        and self.facts.mutation is None):
                    self.facts.mutation = (
                        node, f"writes into module global `{root}`")

    def _scan_return(self, value: ast.AST) -> None:
        facts = self.facts
        exprs = (list(value.elts) if isinstance(value, ast.Tuple)
                 else [value])
        for expr in exprs:
            if isinstance(expr, ast.Name):
                facts.return_names.add(expr.id)
            elif isinstance(expr, ast.Call):
                if self._is_loader_call(expr):
                    facts.returns_loader = True
                else:
                    resolved = self._resolve_call(expr)
                    if resolved is not None:
                        facts.return_callees.add(resolved.qualname)

    def _is_loader_call(self, call: ast.Call) -> bool:
        name = dotted_name(call.func)
        if name is None:
            return False
        last = name.rsplit(".", 1)[-1]
        if last in _MMAP_LOADERS:
            return True
        if last == "from_npz":
            for keyword in call.keywords:
                if keyword.arg == "mmap_mode":
                    is_none = (isinstance(keyword.value, ast.Constant)
                               and keyword.value.value is None)
                    return not is_none
        return False

    def _scan_call(self, node: ast.Call, callees: Set[str]) -> None:
        facts = self.facts
        name = dotted_name(node.func)
        # Seeded-RNG constructions (SEED001).
        if name in RNG_CONSTRUCTORS and (node.args or node.keywords):
            seed_names: Set[str] = set()
            derived = False
            for arg in list(node.args) + [k.value for k in node.keywords]:
                seed_names |= _value_names(arg)
                derived = derived or _has_derivation(arg)
            facts.rng.append(RngConstruct(
                node=node, constructor=name or "",
                resolved_params=facts.resolve(seed_names),
                derived=derived, constant=not seed_names))
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr in GENERATOR_SAMPLERS
                and isinstance(node.func.value, ast.Name)):
            facts.draws.append(node)
        # Taint sources assigned to locals.
        if self._is_loader_call(node):
            parent = self.parents.get(node)
            if isinstance(parent, ast.Assign):
                for target in parent.targets:
                    for bound in names_in(target) & self.local_binds:
                        facts.taint_seeds.add(bound)
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = func.value
            receiver_name = _receiver_name(receiver)
            cache_receiver = (receiver_name is not None
                              and "cache" in receiver_name.lower())
            # Cache-key construction (CACHE001 coverage side).
            if func.attr == "key" and cache_receiver:
                key_names: Set[str] = set()
                for arg in list(node.args) + [k.value for k in
                                              node.keywords]:
                    key_names |= _value_names(arg)
                facts.key_seeds |= (facts.resolve(key_names)
                                    & set(facts.info.params))
            # Cache stores (CACHE001 demand side).
            elif func.attr == "put" and cache_receiver and len(
                    node.args) >= 2:
                facts.puts.append(PutSite(
                    node=node, key_expr=node.args[0],
                    value_expr=node.args[1]))
            # ndarray in-place writes (FLOW002).
            elif (func.attr in _ARRAY_WRITE_METHODS
                  and isinstance(receiver, (ast.Name, ast.Attribute,
                                            ast.Subscript))):
                root = _root_name(receiver)
                if root is not None:
                    facts.writes.append(ArrayWrite(
                        node=node, base=root,
                        what=f"`.{func.attr}()` call"))
            # Mutating a module-global container (FLOW001 witness).
            if (func.attr in _MUTATING_METHODS
                    and isinstance(receiver, ast.Name)
                    and self._is_module_global_target(receiver.id)
                    and not self._mutation_exempt()
                    and facts.mutation is None):
                facts.mutation = (
                    node, f"mutates module global `{receiver.id}` "
                          f"via `.{func.attr}()`")
            # ParallelMap fan-out (FLOW001 demand side).
            if func.attr in ("map", "map_batched") and node.args:
                if self._is_mapper_receiver(receiver):
                    work = node.args[0]
                    if not isinstance(work, ast.Lambda):  # PAR001's case
                        resolved = self._resolve_expr(work)
                        label = (resolved.qualname if resolved is not None
                                 else ast.unparse(work))
                        facts.mapper_works.append(MapperWork(
                            node=node, work=resolved, label=label))
        # np.<ufunc>.at scatter writes (FLOW002).
        if name is not None and name.endswith(".at") and node.args:
            root = _root_name(node.args[0])
            if root is not None:
                facts.writes.append(ArrayWrite(
                    node=node, base=root,
                    what=f"`{name}(...)` scatter"))
        # Call-graph edges and assignment-from-call taint plumbing.
        resolved = self._resolve_call(node)
        if resolved is not None:
            callees.add(resolved.qualname)
            parent = self.parents.get(node)
            if isinstance(parent, ast.Assign):
                bound = frozenset(
                    n for target in parent.targets
                    for n in names_in(target) & self.local_binds)
                if bound:
                    facts.call_assigns.append((bound, resolved.qualname))
            pairs, _ = map_arguments(node, resolved)
            own = set(facts.info.params)
            for param, expr in pairs:
                if isinstance(expr, ast.Name):
                    facts.direct_args.append(
                        (resolved.qualname, param, expr.id, node))
                contributing = facts.resolve(_value_names(expr)) & own
                if not contributing:
                    continue
                direct = (expr.id if isinstance(expr, ast.Name)
                          and expr.id in own else None)
                facts.uses.append(ParamUse(
                    callee=resolved.qualname, param=param,
                    names=frozenset(contributing), direct=direct,
                    node=node))

    def _is_mapper_receiver(self, receiver: ast.AST) -> bool:
        if _is_mapper_call(receiver):
            return True
        name = _receiver_name(receiver)
        return name is not None and "mapper" in name.lower()

    # -- pass C: parameter liveness -----------------------------------------------

    def _classify_param_uses(self) -> None:
        """Mark parameters live unless every use forwards to a resolved
        callee parameter (whose own liveness the fixpoint decides)."""
        facts = self.facts
        params = set(facts.info.params)
        if not params:
            return
        for node in self._nodes:
            if not (isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in params):
                continue
            if not self._forwards_only(node):
                facts.live.add(node.id)

    def _forwards_only(self, name_node: ast.Name) -> bool:
        """True when this reference is an argument of a resolved call
        and maps onto a named callee parameter (the innermost enclosing
        call decides; receivers, unresolved calls and splatted
        arguments count as local uses)."""
        child: ast.AST = name_node
        parent = self.parents.get(child)
        while parent is not None:
            if isinstance(parent, ast.Call):
                if child is parent.func:
                    return False
                resolved = self._resolve_call(parent)
                if resolved is None:
                    return False
                pairs, _ = map_arguments(parent, resolved)
                mapped = {id(expr) for _, expr in pairs}
                if isinstance(child, ast.keyword):
                    return id(child.value) in mapped
                return id(child) in mapped
            if isinstance(parent, ast.stmt):
                return False
            child = parent
            parent = self.parents.get(child)
        return False


class ProjectAnalysis:
    """The graph, per-function facts, and the fixpoint summaries."""

    def __init__(self, entries: Sequence[Tuple[Path, str, ast.Module]]
                 ) -> None:
        symbol_list = [module_symbols(path, tree)
                       for path, _, tree in entries]
        self.graph = ProjectGraph(symbol_list)
        self.sources: Dict[str, List[str]] = {}
        self.parents: Dict[str, Dict[ast.AST, ast.AST]] = {}
        for (path, source, tree), symbols in zip(entries, symbol_list):
            if symbols.dotted in self.sources:
                continue
            self.sources[symbols.dotted] = source.splitlines()
            parent_map: Dict[ast.AST, ast.AST] = {}
            for node in ast.walk(tree):
                for child in ast.iter_child_nodes(node):
                    parent_map[child] = node
            self.parents[symbols.dotted] = parent_map
        self.facts: Dict[str, FunctionFacts] = {}
        for dotted in sorted(self.graph.modules):
            symbols = self.graph.modules[dotted]
            module_info = FunctionInfo(
                qualname=f"{dotted}.<module>", module=dotted,
                name="<module>", node=symbols.tree, params=(),
                call_params=(), has_vararg=False, has_kwarg=False,
                is_method=False)
            self.facts[module_info.qualname] = _FunctionScan(
                module_info, symbols, self.graph,
                module_level=True).facts
        for qualname in sorted(self.graph.functions):
            info = self.graph.functions[qualname]
            symbols = self.graph.modules[info.module]
            self.facts[qualname] = _FunctionScan(
                info, symbols, self.graph).facts
        self.live_params = self._fix_live()
        self.mutation_witness = self._fix_mutation()
        self.mmap_returns, self.tainted_locals = self._fix_mmap()
        self.writes_params = self._fix_writes()
        self.key_params = self._fix_keys()

    # -- fixpoints ----------------------------------------------------------------

    def _fix_live(self) -> Dict[str, Set[str]]:
        # Trivial bodies (abstract stubs, protocol defs) have unknown
        # overriders: every parameter is conservatively live, so a seed
        # forwarded into an abstract dispatch is never "dead".
        live = {}
        for qualname, facts in self.facts.items():
            bucket = set(facts.live)
            if facts.trivial:
                bucket.update(facts.info.params)
            live[qualname] = bucket
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.facts):
                facts = self.facts[qualname]
                bucket = live[qualname]
                for use in facts.uses:
                    if use.param in live.get(use.callee, ()):
                        fresh = use.names - bucket
                        if fresh:
                            bucket.update(fresh)
                            changed = True
        return live

    def _fix_mutation(self) -> Dict[str, Tuple[str, str]]:
        """qualname → (origin qualname, witness text), for mutators."""
        witness: Dict[str, Tuple[str, str]] = {}
        for qualname in sorted(self.facts):
            facts = self.facts[qualname]
            if facts.mutation is not None:
                witness[qualname] = (qualname, facts.mutation[1])
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.facts):
                if qualname in witness:
                    continue
                for callee in self.facts[qualname].callees:
                    if callee in witness:
                        witness[qualname] = witness[callee]
                        changed = True
                        break
        return witness

    def _taint_closure(self, facts: FunctionFacts,
                       mmap_returns: Dict[str, bool]) -> Set[str]:
        tainted = set(facts.taint_seeds)
        for bound, callee in facts.call_assigns:
            if mmap_returns.get(callee):
                tainted.update(bound)
        changed = True
        while changed:
            changed = False
            for target, sources in facts.taint_edges:
                if target not in tainted and sources & tainted:
                    tainted.add(target)
                    changed = True
        return tainted

    def _fix_mmap(self) -> Tuple[Dict[str, bool], Dict[str, Set[str]]]:
        returns = {q: f.returns_loader for q, f in self.facts.items()}
        tainted: Dict[str, Set[str]] = {}
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.facts):
                facts = self.facts[qualname]
                local = self._taint_closure(facts, returns)
                tainted[qualname] = local
                value = (facts.returns_loader
                         or bool(facts.return_names & local)
                         or any(returns.get(callee, False)
                                for callee in facts.return_callees))
                if value and not returns[qualname]:
                    returns[qualname] = True
                    changed = True
        return returns, tainted

    def _fix_writes(self) -> Dict[str, Set[str]]:
        writes = {
            q: {w.base for w in f.writes if w.base in f.info.params}
            for q, f in self.facts.items()}
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.facts):
                facts = self.facts[qualname]
                bucket = writes[qualname]
                for use in facts.uses:
                    if (use.direct is not None
                            and use.param in writes.get(use.callee, ())
                            and use.direct not in bucket):
                        bucket.add(use.direct)
                        changed = True
        return writes

    def _fix_keys(self) -> Dict[str, Set[str]]:
        keys = {q: set(f.key_seeds) for q, f in self.facts.items()}
        changed = True
        while changed:
            changed = False
            for qualname in sorted(self.facts):
                facts = self.facts[qualname]
                bucket = keys[qualname]
                for use in facts.uses:
                    if use.param in keys.get(use.callee, ()):
                        fresh = use.names - bucket
                        if fresh:
                            bucket.update(fresh)
                            changed = True
        return keys

    # -- rule-facing helpers ------------------------------------------------------

    def iter_facts(self) -> Iterator[FunctionFacts]:
        for qualname in sorted(self.facts):
            yield self.facts[qualname]

    def line_text(self, dotted: str, lineno: int) -> str:
        lines = self.sources.get(dotted, [])
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    def covered_key_params(self, facts: FunctionFacts,
                           key_expr: ast.AST) -> Optional[FrozenSet[str]]:
        """Caller params the key covers; ``None`` = cannot analyse."""
        own = set(facts.info.params)
        call: Optional[ast.Call] = None
        if isinstance(key_expr, ast.Call):
            call = key_expr
        elif isinstance(key_expr, ast.Name):
            call = facts.assign_calls.get(key_expr.id)
            if call is None:
                return facts.resolve({key_expr.id}) & own
        else:
            return facts.resolve(_value_names(key_expr)) & own
        func = call.func
        if (isinstance(func, ast.Attribute) and func.attr == "key"):
            receiver = _receiver_name(func.value)
            if receiver is not None and "cache" in receiver.lower():
                key_names: Set[str] = set()
                for arg in list(call.args) + [k.value for k in
                                              call.keywords]:
                    key_names |= _value_names(arg)
                return facts.resolve(key_names) & own
        resolved = self.graph.resolve_call(
            call, facts.symbols, facts.info.class_name)
        if resolved is None:
            return None
        helper_keys = self.key_params.get(resolved.qualname, set())
        pairs, _ = map_arguments(call, resolved)
        covered: Set[str] = set()
        for param, expr in pairs:
            if param in helper_keys:
                covered |= facts.resolve(_value_names(expr)) & own
        return frozenset(covered)


def analyze_project(entries: Sequence[Tuple[Path, str, ast.Module]]
                    ) -> ProjectAnalysis:
    """Build the whole-program analysis for the given parsed modules."""
    return ProjectAnalysis(entries)
