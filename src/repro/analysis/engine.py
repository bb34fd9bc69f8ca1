"""Single-pass AST lint engine: rules, dispatch, inline suppressions.

:func:`lint_paths` is the one entry point the CLI, CI, and tests call
(:func:`lint_source` is its one-module case).  It is a plain
sequential loop: each file is read and parsed exactly once, gets one
parent map, and has every node dispatched to the file-scope rules that
registered interest in its type — so adding a rule costs a dictionary
lookup per node, not a re-walk of the tree.  The project-scope rules
then run once over all parsed modules (:mod:`repro.analysis.dataflow`),
and each file's ``# repro: noqa`` comments are tokenized only when it
has a finding to suppress.  Rules are plain classes registered with
:func:`register`; each declares the node types it wants and yields
``(node, message)`` pairs from :meth:`Rule.check`.

Findings can be silenced three ways, in order of preference:

1. fix the code (the ruleset encodes real past bugs);
2. an inline ``# repro: noqa[RULE-ID]`` comment on the offending line
   (comma-separate several ids; a bare ``# repro: noqa`` silences every
   rule on that line) — for the rare *legitimate* exception, with a
   justifying comment;
3. a baseline entry (:mod:`repro.baseline`) — for
   grandfathered findings only; the shipped baseline is empty and CI
   keeps it that way.
"""

from __future__ import annotations

import ast
import hashlib
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: Matches ``# repro: noqa`` and ``# repro: noqa[DET001,NUM002]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<ids>[A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\])?")

#: Sentinel for a bare ``# repro: noqa`` (suppresses every rule).
_ALL_RULES = "*"


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str       # posix path as scanned (stable across machines)
    line: int       # 1-based
    col: int        # 0-based (ast convention)
    rule: str       # e.g. "DET001"
    family: str     # determinism | numeric | parallel | obs
    message: str
    snippet: str = field(compare=False, default="")

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {"path": self.path, "line": self.line, "col": self.col,
                "rule": self.rule, "family": self.family,
                "message": self.message, "snippet": self.snippet}

    def fingerprint(self) -> str:
        """Location-independent identity: rule + normalised source line.

        Path-free, so a baseline survives line shifts and renames; the
        occurrence bound lives in the baseline entry, not here.
        """
        normalised = " ".join(self.snippet.split())
        payload = f"{self.rule}\0{normalised}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def baseline_key(self) -> tuple:
        return ((self.path, self.rule), self.line, self.col)

    def baseline_entry(self) -> dict:
        return {"path": self.path, "rule": self.rule,
                "snippet": self.snippet}


class ModuleContext:
    """Everything a rule may ask about the file being linted.

    Built once per file: the parsed tree, a child→parent map, the
    dotted module name (derived from the last ``repro`` path
    component, so fixture trees that mimic the package layout scope
    identically), the set of function names defined *inside* other
    functions (closures — unpicklable), and the names bound to
    ``runtime.mapper(...)`` / ``ParallelMap(...)`` results.
    """

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        self.dotted = _dotted_module_name(path)
        self.parents: Dict[ast.AST, ast.AST] = {}
        self.nested_def_names: Set[str] = set()
        self.mapper_names: Set[str] = set()
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if self.enclosing_function(node) is not None:
                    self.nested_def_names.add(node.name)
            elif isinstance(node, ast.Assign):
                if _is_mapper_call(node.value):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            self.mapper_names.add(target.id)

    # -- ancestry helpers ---------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest FunctionDef/AsyncFunctionDef above ``node``."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def in_loop(self, node: ast.AST) -> bool:
        """Whether ``node`` sits inside a ``for``/``while`` statement."""
        return any(isinstance(a, (ast.For, ast.AsyncFor, ast.While))
                   for a in self.ancestors(node))

    def in_package(self, *segments: str) -> bool:
        """Whether the module lives under ``repro.<segment>`` for any."""
        return any(self.dotted.startswith(f"repro.{segment}.")
                   or self.dotted == f"repro.{segment}"
                   for segment in segments)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


class Rule:
    """Base class: subclass, set the class attributes, register.

    Attributes:
        id: stable rule identifier (``<FAMILY-PREFIX><NNN>``).
        family: ``determinism``/``numeric``/``parallel``/``obs``/
            ``dataflow``.
        title: one-line summary shown by ``lint --list-rules``.
        node_types: AST node classes this rule wants dispatched.
        scope: ``"file"`` (per-file dispatch, the default) or
            ``"project"`` (whole-program, via :class:`ProjectRule`).
    """

    id: str = ""
    family: str = ""
    title: str = ""
    node_types: Tuple[Type[ast.AST], ...] = ()
    scope: str = "file"

    def applies_to(self, module: ModuleContext) -> bool:
        """Per-file scoping hook (checked once per file)."""
        return True

    def check(self, node: ast.AST,
              module: ModuleContext) -> Iterator[Tuple[ast.AST, str]]:
        """Yield ``(node, message)`` for each violation found."""
        raise NotImplementedError
        yield  # pragma: no cover


class ProjectRule(Rule):
    """A whole-program rule: sees the project analysis, not one node.

    Project rules run once per lint invocation over the interprocedural
    summaries (:mod:`repro.analysis.dataflow`) instead of once per node
    per file.  ``node_types`` is unused but kept non-empty so
    :func:`register` validates uniformly.
    """

    scope = "project"
    node_types = (ast.Module,)

    def check_project(self, analysis):
        """Yield ``(symbols, node, message)`` triples for violations.

        ``symbols`` is the :class:`~repro.analysis.graph.ModuleSymbols`
        of the module the finding belongs to; ``node`` anchors the
        location (and the noqa statement anchor).
        """
        raise NotImplementedError
        yield  # pragma: no cover


#: Global registry: rule id → rule instance (populated by import of
#: :mod:`repro.analysis.rules`).
_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``cls`` to the registry."""
    rule = cls()
    if not rule.id or not rule.family or not rule.node_types:
        raise ValueError(f"rule {cls.__name__} is missing id/family/node_types")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def all_rules() -> Dict[str, Rule]:
    """The registered ruleset (imports the bundled rules on first use)."""
    from . import rules as _rules  # noqa: F401  (registration side effect)

    return dict(_REGISTRY)


# -- shared AST helpers (used by the rule modules) --------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``.

    Chains that pass through calls or subscripts (``f().x``) return
    ``None`` — rules that care about those match on the final attribute
    instead.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's function, else ``None``."""
    return dotted_name(node.func)


def names_in(node: ast.AST) -> Set[str]:
    """Every bare Name id referenced anywhere under ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _is_mapper_call(node: ast.AST) -> bool:
    """Whether ``node`` is ``runtime.mapper(...)`` / ``ParallelMap(...)``."""
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    if name is None:
        return False
    last = name.rsplit(".", 1)[-1]
    return last in ("mapper", "ParallelMap")


def is_mapper_receiver(node: ast.AST, module: ModuleContext) -> bool:
    """Whether ``node`` evaluates to a ParallelMap (for ``.map`` calls)."""
    if _is_mapper_call(node):
        return True
    return isinstance(node, ast.Name) and node.id in module.mapper_names


def _dotted_module_name(path: Path) -> str:
    """Module name from the last ``repro`` path component onward.

    Files outside any ``repro`` tree (ad-hoc fixtures) get their bare
    stem, which no package-scoped rule matches.
    """
    parts = list(path.parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        parts = parts[index:]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or ["__init__"]
    return ".".join(parts)


# -- suppression scanning ---------------------------------------------------------


def suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number → suppressed rule ids (``*`` = all).

    Only actual comments count: a ``# repro: noqa`` inside a string
    literal does not suppress anything.
    """
    out: Dict[int, Set[str]] = {}
    import io

    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if not match:
                continue
            ids = match.group("ids")
            line = token.start[0]
            bucket = out.setdefault(line, set())
            if ids is None:
                bucket.add(_ALL_RULES)
            else:
                bucket.update(part.strip() for part in ids.split(","))
    except tokenize.TokenError:
        # Fall back to a plain line scan on tokenizer failure; the
        # parser will have rejected truly broken files already.
        for index, text in enumerate(source.splitlines(), start=1):
            match = _NOQA_RE.search(text)
            if match:
                ids = match.group("ids")
                bucket = out.setdefault(index, set())
                if ids is None:
                    bucket.add(_ALL_RULES)
                else:
                    bucket.update(part.strip() for part in ids.split(","))
    return out


def anchor_lines(where: ast.AST,
                 parents: Dict[ast.AST, ast.AST]) -> Set[int]:
    """Lines where a ``# repro: noqa`` suppresses a finding at ``where``.

    The reported line itself, plus the first line of the innermost
    enclosing *statement* (so a suppression on the first line of a
    multi-line call covers findings on its continuation lines), plus
    the first decorator line for findings anchored at a decorated
    def/class header.
    """
    lines: Set[int] = set()
    reported = getattr(where, "lineno", None)
    if reported is not None:
        lines.add(reported)
    node: Optional[ast.AST] = where
    while node is not None and not isinstance(node, ast.stmt):
        node = parents.get(node)
    if isinstance(node, ast.stmt):
        lines.add(node.lineno)
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            lines.add(min(d.lineno for d in decorators))
    return lines


def _suppressed(rule_id: str, anchors: Set[int],
                noqa: Dict[int, Set[str]]) -> bool:
    for line in anchors:
        ids = noqa.get(line)
        if ids and (_ALL_RULES in ids or rule_id in ids):
            return True
    return False


# -- per-file / per-tree entry points ---------------------------------------------


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding]
    files_scanned: int
    suppressed: int

    @property
    def ok(self) -> bool:
        return not self.findings


def split_rules(rules: Sequence[Rule]
                ) -> Tuple[List[Rule], List[Rule]]:
    """Partition into (file-scope, project-scope) rule lists."""
    file_rules = [r for r in rules if r.scope != "project"]
    project_rules = [r for r in rules if r.scope == "project"]
    return file_rules, project_rules


def lint_source(source: str, path: Path,
                rules: Optional[Sequence[Rule]] = None) -> LintResult:
    """Lint one already-read source string: :func:`lint_paths` over a
    one-module project (so fixture tests exercise the semantic rules
    exactly like a tree lint, minus cross-module edges)."""
    return _lint_modules([(path, source)], resolve_rules(rules))


def lint_paths(paths: Iterable[Path],
               rules: Optional[Sequence[Rule]] = None,
               select: Optional[Iterable[str]] = None) -> LintResult:
    """Lint files and directory trees in one sequential pass.

    Args:
        paths: files or directory trees to scan; each must exist.
        rules: explicit rule instances (tests); overrides ``select``.
        select: rule ids to run; ``None`` runs the whole registry.

    Raises:
        ValueError: a path does not exist, or ``select`` names an
            unknown rule id.
    """
    paths = [Path(path) for path in paths]
    missing = [path.as_posix() for path in paths if not path.exists()]
    if missing:
        raise ValueError(f"no such file or directory: {', '.join(missing)}")
    rule_list = resolve_rules(rules, select)
    sources: List[Tuple[Path, str]] = []
    for path in iter_python_files(paths):
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        sources.append((path, raw.decode("utf-8", errors="replace")))
    return _lint_modules(sources, rule_list)


def _lint_modules(sources: Sequence[Tuple[Path, str]],
                  rules: Sequence[Rule]) -> LintResult:
    """Parse each module once, run the file-scope rules per module, the
    project-scope rules once over every module that parsed, then apply
    each file's ``# repro: noqa`` comments to its findings."""
    file_rules, project_rules = split_rules(rules)
    findings: List[Finding] = []
    raw: Dict[str, List[Tuple[Finding, Set[int]]]] = {}
    parsed: List[Tuple[Path, str, ast.Module]] = []
    for path, source in sources:
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            findings.append(Finding(
                path=path.as_posix(), line=exc.lineno or 1,
                col=exc.offset or 0, rule="ENG001", family="engine",
                message=f"file does not parse: {exc.msg}", snippet=""))
            continue
        parsed.append((path, source, tree))
        raw[path.as_posix()] = _file_findings(
            ModuleContext(path, source, tree), file_rules)
    if project_rules and parsed:
        from .dataflow import analyze_project

        for finding, anchors in project_findings(analyze_project(parsed),
                                                 project_rules):
            raw[finding.path].append((finding, anchors))
    suppressed = 0
    for path, source, _ in parsed:
        pairs = raw[path.as_posix()]
        if not pairs:
            continue
        noqa = suppressions(source)
        kept = [f for f, anchors in pairs
                if not _suppressed(f.rule, anchors, noqa)]
        findings.extend(kept)
        suppressed += len(pairs) - len(kept)
    findings.sort()
    return LintResult(findings=findings, files_scanned=len(sources),
                      suppressed=suppressed)


def _file_findings(module: ModuleContext, file_rules: Sequence[Rule]
                   ) -> List[Tuple[Finding, Set[int]]]:
    """Dispatch every node of one module to the file-scope rules."""
    dispatch: Dict[Type[ast.AST], List[Rule]] = {}
    for rule in file_rules:
        if rule.applies_to(module):
            for node_type in rule.node_types:
                dispatch.setdefault(node_type, []).append(rule)
    out: List[Tuple[Finding, Set[int]]] = []
    path = module.path.as_posix()
    for node in ast.walk(module.tree):
        for rule in dispatch.get(type(node), ()):
            for where, message in rule.check(node, module):
                line = getattr(where, "lineno", 1)
                out.append((Finding(
                    path=path, line=line,
                    col=getattr(where, "col_offset", 0),
                    rule=rule.id, family=rule.family, message=message,
                    snippet=module.line_text(line)),
                    anchor_lines(where, module.parents)))
    return out


def project_findings(analysis, project_rules: Sequence[Rule]
                     ) -> List[Tuple[Finding, Set[int]]]:
    """Run project-scope rules; findings paired with noqa anchors."""
    out: List[Tuple[Finding, Set[int]]] = []
    for rule in project_rules:
        for symbols, where, message in rule.check_project(analysis):
            line = getattr(where, "lineno", 1)
            parents = analysis.parents.get(symbols.dotted, {})
            out.append((Finding(
                path=symbols.path.as_posix(), line=line,
                col=getattr(where, "col_offset", 0),
                rule=rule.id, family=rule.family, message=message,
                snippet=analysis.line_text(symbols.dotted, line)),
                anchor_lines(where, parents)))
    return out


def iter_python_files(paths: Iterable[Path]) -> List[Path]:
    """Every ``.py`` under the given files/trees, deterministically
    ordered and duplicate-safe.

    Files are deduplicated by *resolved* path, so a symlink next to its
    target (or the same tree passed twice) yields one entry; of several
    aliases the lexicographically smallest scanned path is kept, so the
    result does not depend on the order of ``paths``.  ``__pycache__``
    and ``.``-prefixed directories are skipped below a scanned root, but
    a root that itself sits under a hidden directory is still linted.
    """
    found: Dict[Path, Path] = {}

    def _add(candidate: Path) -> None:
        try:
            resolved = candidate.resolve()
        except OSError:
            resolved = candidate
        existing = found.get(resolved)
        if existing is None or candidate.as_posix() < existing.as_posix():
            found[resolved] = candidate

    for path in paths:
        path = Path(path)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                below = candidate.relative_to(path).parts
                if "__pycache__" in below or any(
                        part.startswith(".") for part in below):
                    continue
                _add(candidate)
        elif path.suffix == ".py":
            _add(path)
    return sorted(found.values(), key=lambda p: p.as_posix())


def resolve_rules(rules: Optional[Sequence[Rule]] = None,
                  select: Optional[Iterable[str]] = None) -> List[Rule]:
    """Explicit rules, or the registry filtered by ``select``."""
    if rules is not None:
        return list(rules)
    registry = all_rules()
    if select is not None:
        wanted = list(dict.fromkeys(select))
        unknown = sorted(set(wanted) - set(registry))
        if unknown:
            raise ValueError(f"unknown rule ids: {', '.join(unknown)}")
        return [registry[rule_id] for rule_id in wanted]
    return list(registry.values())
