"""Project-wide symbol resolution: module tables and call graph.

The per-file engine (:mod:`repro.analysis.engine`) sees one tree at a
time, so a seed that dies at a function boundary or a cache key built
two calls away is invisible to it.  This module builds the whole-program
view those checks need:

* :class:`ModuleSymbols` — one module's definitions: the names it binds
  by import (with relative imports resolved against the dotted module
  name), its top-level functions, its classes and their methods, and the
  module-level globals semantic rules care about;
* :class:`ProjectGraph` — the project: every module keyed by dotted
  name, and call resolution from an ``ast.Call`` to the
  :class:`FunctionInfo` it targets, following ``from x import y``
  chains, ``self.method``, ``Class(...)`` → ``__init__``, and package
  re-exports.

Resolution is deliberately conservative: anything it cannot prove
(getattr, dynamic dispatch, external libraries) resolves to ``None``,
and the dataflow layer treats unresolved calls as opaque — parameters
passed to them stay live, effects stay unknown.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import _dotted_module_name, dotted_name


@dataclass(frozen=True)
class FunctionInfo:
    """One function or method definition, as callers see it."""

    qualname: str                 # "repro.core.dataset.collect_trace"
    module: str                   # dotted module name
    name: str                     # bare name ("collect_trace", "__init__")
    node: ast.AST                 # the FunctionDef / AsyncFunctionDef
    params: Tuple[str, ...]       # declared order, including self/cls
    call_params: Tuple[str, ...]  # params as mapped from call sites
    has_vararg: bool
    has_kwarg: bool
    is_method: bool
    class_name: Optional[str] = None


def _function_params(node) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in (args.posonlyargs + args.args)]
    names.extend(a.arg for a in args.kwonlyargs)
    return tuple(names)


def _make_function_info(node, module: str, class_name: Optional[str]
                        ) -> FunctionInfo:
    params = _function_params(node)
    call_params = params
    is_method = class_name is not None
    if is_method and params and params[0] in ("self", "cls"):
        call_params = params[1:]
    qualname = (f"{module}.{class_name}.{node.name}" if class_name
                else f"{module}.{node.name}")
    return FunctionInfo(
        qualname=qualname, module=module, name=node.name, node=node,
        params=params, call_params=call_params,
        has_vararg=node.args.vararg is not None,
        has_kwarg=node.args.kwarg is not None,
        is_method=is_method, class_name=class_name)


#: Module-level instrument factories: names bound from these calls are
#: mutation-exempt (the obs registry is deterministic infrastructure).
_OBS_FACTORIES = frozenset({
    "counter", "gauge", "histogram", "attr_counter", "null_counter",
})


def _target_names(target: ast.AST) -> List[str]:
    """Every plain Name bound by an assignment/loop target."""
    out: List[str] = []
    if isinstance(target, ast.Name):
        out.append(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            out.extend(_target_names(element))
    elif isinstance(target, ast.Starred):
        out.extend(_target_names(target.value))
    return out


@dataclass
class ModuleSymbols:
    """Everything the project graph knows about one module."""

    dotted: str
    path: Path
    tree: ast.Module
    is_package: bool
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, Dict[str, FunctionInfo]] = field(default_factory=dict)
    module_globals: Set[str] = field(default_factory=set)
    obs_names: Set[str] = field(default_factory=set)


def module_symbols(path: Path, tree: ast.Module) -> ModuleSymbols:
    """Build the symbol table for one parsed module."""
    dotted = _dotted_module_name(path)
    is_package = path.name == "__init__.py"
    symbols = ModuleSymbols(dotted=dotted, path=path, tree=tree,
                            is_package=is_package)
    package_parts = dotted.split(".") if is_package else dotted.split(".")[:-1]
    for node in tree.body:
        _collect_top_level(node, symbols, package_parts)
    return symbols


def _collect_top_level(node: ast.stmt, symbols: ModuleSymbols,
                       package_parts: List[str]) -> None:
    dotted = symbols.dotted
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.asname:
                symbols.imports[alias.asname] = alias.name
            else:
                head = alias.name.split(".")[0]
                symbols.imports.setdefault(head, head)
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            base_parts = (node.module or "").split(".") if node.module else []
        else:
            anchor = package_parts[:len(package_parts) - (node.level - 1)]
            base_parts = anchor + (node.module.split(".") if node.module
                                   else [])
        base = ".".join(base_parts)
        for alias in node.names:
            if alias.name == "*":
                continue
            target = f"{base}.{alias.name}" if base else alias.name
            symbols.imports[alias.asname or alias.name] = target
    elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        symbols.functions[node.name] = _make_function_info(node, dotted, None)
    elif isinstance(node, ast.ClassDef):
        methods: Dict[str, FunctionInfo] = {}
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods[member.name] = _make_function_info(
                    member, dotted, node.name)
        symbols.classes[node.name] = methods
        symbols.module_globals.add(node.name)
    elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        bound: List[str] = []
        for target in targets:
            bound.extend(_target_names(target))
        symbols.module_globals.update(bound)
        value = getattr(node, "value", None)
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name and name.rsplit(".", 1)[-1] in _OBS_FACTORIES:
                symbols.obs_names.update(bound)
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        symbols.module_globals.update(_target_names(node.target))
    elif isinstance(node, (ast.If, ast.Try)):
        # TYPE_CHECKING / fallback-import blocks: one level deep is
        # enough for the import patterns this repo uses.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                _collect_top_level(child, symbols, package_parts)


class ProjectGraph:
    """Modules and call resolution."""

    def __init__(self, modules: Sequence[ModuleSymbols]) -> None:
        self.modules: Dict[str, ModuleSymbols] = {}
        for symbols in modules:
            # Dotted-name collision (two fixture trees in one run):
            # first file in scan order wins; later ones stay analysable
            # per-file but are not cross-linked.
            self.modules.setdefault(symbols.dotted, symbols)
        self.functions: Dict[str, FunctionInfo] = {}
        for symbols in self.modules.values():
            for info in symbols.functions.values():
                self.functions[info.qualname] = info
            for methods in symbols.classes.values():
                for info in methods.values():
                    self.functions[info.qualname] = info

    # -- symbol / call resolution ---------------------------------------------------

    def _class_init(self, symbols: ModuleSymbols,
                    class_name: str) -> Optional[FunctionInfo]:
        return symbols.classes.get(class_name, {}).get("__init__")

    def resolve_symbol(self, target: str,
                       _depth: int = 0) -> Optional[FunctionInfo]:
        """A dotted symbol (``pkg.mod.fn``) to its definition, if internal."""
        if _depth > 8:
            return None
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            symbols = self.modules.get(prefix)
            if symbols is not None:
                return self._resolve_member(symbols, parts[cut:], _depth)
        return None

    def _resolve_member(self, symbols: ModuleSymbols, rest: List[str],
                        _depth: int) -> Optional[FunctionInfo]:
        if not rest:
            return None
        head = rest[0]
        if len(rest) == 1:
            if head in symbols.functions:
                return symbols.functions[head]
            if head in symbols.classes:
                return self._class_init(symbols, head)
            if head in symbols.imports:
                return self.resolve_symbol(symbols.imports[head], _depth + 1)
            return None
        if head in symbols.classes and len(rest) == 2:
            return symbols.classes[head].get(rest[1])
        if head in symbols.imports:
            chained = ".".join([symbols.imports[head]] + rest[1:])
            return self.resolve_symbol(chained, _depth + 1)
        return None

    def resolve_call(self, call: ast.Call, symbols: ModuleSymbols,
                     enclosing_class: Optional[str] = None
                     ) -> Optional[FunctionInfo]:
        """The :class:`FunctionInfo` a call targets, or ``None``."""
        name = dotted_name(call.func)
        if name is None:
            return None
        parts = name.split(".")
        if parts[0] in ("self", "cls"):
            if enclosing_class is not None and len(parts) == 2:
                return symbols.classes.get(enclosing_class, {}).get(parts[1])
            return None
        if len(parts) == 1:
            if name in symbols.functions:
                return symbols.functions[name]
            if name in symbols.classes:
                return self._class_init(symbols, name)
            if name in symbols.imports:
                return self.resolve_symbol(symbols.imports[name])
            return None
        head = parts[0]
        if head in symbols.classes and len(parts) == 2:
            return symbols.classes[head].get(parts[1])
        if head in symbols.imports:
            chained = ".".join([symbols.imports[head]] + parts[1:])
            return self.resolve_symbol(chained)
        return None


def map_arguments(call: ast.Call, info: FunctionInfo
                  ) -> Tuple[List[Tuple[str, ast.AST]], bool]:
    """Map call arguments onto callee parameter names.

    Returns ``(pairs, opaque)`` where ``pairs`` is ``[(param, arg_expr)]``
    for every argument that maps unambiguously, and ``opaque`` is True
    when ``*args``/``**kwargs`` splats (on either side) make the mapping
    incomplete — callers must treat unmapped values conservatively.
    """
    pairs: List[Tuple[str, ast.AST]] = []
    opaque = info.has_kwarg or info.has_vararg
    position = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            opaque = True
            break
        if position < len(info.call_params):
            pairs.append((info.call_params[position], arg))
        else:
            opaque = True
        position += 1
    for keyword in call.keywords:
        if keyword.arg is None:
            opaque = True
        elif keyword.arg in info.params:
            pairs.append((keyword.arg, keyword.value))
        else:
            opaque = True
    return pairs, opaque
