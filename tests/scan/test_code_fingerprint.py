"""The report's ``code_fingerprint`` covers the code behind findings.

Every ``repro.experiments`` / ``repro.core`` module a scan module
imports (the table drivers the detectors run, the feature extractor
the adapters use) can change the findings, so an edit to it must
change the digest stamped into every report.
"""

import ast
from pathlib import Path

import pytest

from repro.scan import report

pytestmark = pytest.mark.tier1

PACKAGE = Path(report.__file__).resolve().parent.parent


def _source(parts):
    """The source file of the module at package-relative ``parts``."""
    target = PACKAGE.joinpath(*parts)
    if target.with_suffix(".py").is_file():
        return target.with_suffix(".py")
    if (target / "__init__.py").is_file():
        return target / "__init__.py"
    return None


def _imported_sources(path: Path):
    """Source files of every repro module that ``path`` imports."""
    here = list(path.relative_to(PACKAGE).parent.parts)
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            prefix = here[:len(here) - node.level + 1]
        elif module.split(".")[0] == "repro":
            prefix, module = [], module[len("repro"):]
        else:
            continue
        parts = prefix + [part for part in module.split(".") if part]
        for alias in node.names:
            # `from ..experiments import table5_history` names a module;
            # `from ..core.features import X` an attribute.
            yield _source(parts + [alias.name]) or _source(parts)


def _covered(path: Path) -> bool:
    for entry in report._FINGERPRINT_MODULES:
        target = PACKAGE / entry
        if path == target or (target.is_dir() and path.parent == target):
            return True
    return False


def test_scan_imports_of_attack_code_are_fingerprinted():
    imported = set()
    for source in sorted((PACKAGE / "scan").glob("*.py")):
        imported.update(_imported_sources(source))
    attack_code = sorted(
        path for path in imported
        if path.relative_to(PACKAGE).parts[0] in ("experiments", "core"))
    assert attack_code, "scan imports no attack code?"
    missing = [str(path.relative_to(PACKAGE)) for path in attack_code
               if not _covered(path)]
    assert missing == []
