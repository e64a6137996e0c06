"""The package imports nothing outside the standard library, and importing
it leaves out the standard library's statistics module."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import miserysim

PACKAGE_DIR = Path(miserysim.__file__).resolve().parent


def imported_modules(source: str):
    """The top-level name of each module `source` imports; a relative
    import names the package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "miserysim" if node.level else node.module.partition(".")[0]


def test_the_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 10, f"no package sources found in {PACKAGE_DIR}"
    outside = {
        f"{path.name}: {name}"
        for path in sources
        for name in imported_modules(path.read_text(encoding="utf-8"))
        if name != "miserysim" and name not in sys.stdlib_module_names}
    assert not outside, sorted(outside)


def test_the_guard_sees_every_import_form():
    source = ("import json\nimport xml.dom as dom\nfrom . import wire\n"
              "from .sim import Future\nfrom numpy.linalg import norm\n"
              "def lazy():\n    import yaml\n")
    assert list(imported_modules(source)) == [
        "json", "xml", "miserysim", "miserysim", "numpy", "yaml"]


def test_importing_the_package_leaves_out_statistics():
    # statistics pulls fractions, decimal and numbers into every interpreter
    # that imports it: a few ms of each CLI call's start-up, for a median
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import miserysim, miserysim.cli, miserysim.attacker; "
            "print(*sorted({'statistics', 'fractions', 'decimal'} "
            "& set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code,
                           str(PACKAGE_DIR.parent)],
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
