"""Package-wide rules: real raises, resolvable public names, no numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedmetric

SRC = Path(mixedmetric.__file__).resolve().parent
ENV = {**os.environ, "PYTHONPATH": str(SRC.parent)}
TADPOLE = "6 6\n0 1\n1 2\n2 3\n3 0\n0 4\n4 5\n"
K4 = "4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def test_no_assert_statements_in_the_package():
    # `python -O` strips assert statements; invariant checks raise InvariantError.
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mixedmetric import *", namespace)
    assert sorted(set(mixedmetric.__all__)) == sorted(mixedmetric.__all__)
    assert set(mixedmetric.__all__) <= set(namespace)


def _loads_numpy(tmp_path, statements: str, preamble: str = "") -> bool:
    """Run the statements in a fresh interpreter; True when numpy got imported."""
    (tmp_path / "tadpole.txt").write_text(TADPOLE)
    (tmp_path / "k4.txt").write_text(K4)
    (tmp_path / "malformed.txt").write_text("6 x\n")
    code = f"import sys\n{preamble}{statements}\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def _cli(argv, code=0):
    return f"from mixedmetric import cli\nif cli.run({argv!r}) != {code}: sys.exit(9)"


FORMULA_VERBS = {
    "classify": ["classify", "tadpole.txt"],
    "dim": ["dim", "tadpole.txt", "--json"],
    "bounds": ["bounds", "tadpole.txt"],
    "conjecture-cactus": ["conjecture", "--count", "3", "--cactus", "--out", "c.jsonl"],
}
SEARCH_VERBS = {
    "verify": ["verify", "tadpole.txt", "--set", "1,2,5"],
    "oracle": ["oracle", "tadpole.txt"],
    "generator": ["generator", "tadpole.txt"],
    "dim-force-oracle": ["dim", "tadpole.txt", "--force-oracle"],
    "dim-force-oracle-k4": ["dim", "k4.txt", "--force-oracle"],
    # Density-1 graphs are no cacti, so the campaign runs the oracle's search.
    "conjecture-general": ["conjecture", "--count", "3", "--n-range", "4..6", "--density", "1",
                           "--out", "c.jsonl"],
}


@pytest.mark.parametrize("statements", [
    "import mixedmetric",
    "import mixedmetric.structure",
    *(_cli(argv) for argv in FORMULA_VERBS.values()),
    _cli(["dim", "malformed.txt"], code=1),
], ids=["import", "structure", *FORMULA_VERBS, "dim-malformed"])
def test_formula_path_leaves_numpy_unloaded(tmp_path, statements):
    assert not _loads_numpy(tmp_path, statements)


@pytest.mark.parametrize("argv", SEARCH_VERBS.values(), ids=SEARCH_VERBS)
def test_search_and_verification_leave_numpy_unloaded(tmp_path, argv):
    assert not _loads_numpy(tmp_path, _cli(argv))


@pytest.mark.parametrize("argv", [*FORMULA_VERBS.values(), *SEARCH_VERBS.values()],
                         ids=[*FORMULA_VERBS, *SEARCH_VERBS])
def test_every_verb_runs_where_numpy_cannot_import(tmp_path, argv):
    # A None entry in sys.modules makes `import numpy` raise ImportError;
    # _loads_numpy fails unless the verb exits 0.
    _loads_numpy(tmp_path, _cli(argv), preamble="sys.modules['numpy'] = None\n")


def test_no_module_imports_numpy():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
