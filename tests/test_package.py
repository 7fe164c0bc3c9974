"""Package-wide rules: real raises, resolvable public names, numpy only with the oracle."""

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


def test_oracle_names_resolve_on_first_use():
    from mixedmetric import FailingPair, brute_force_mdim
    from mixedmetric import oracle

    assert FailingPair is oracle.FailingPair and brute_force_mdim is oracle.brute_force_mdim
    assert set(mixedmetric.__all__) <= set(dir(mixedmetric))
    with pytest.raises(AttributeError, match="no_such_name"):
        mixedmetric.no_such_name


def _loads_numpy(tmp_path, statements: str) -> bool:
    """Run the statements in a fresh interpreter; True when numpy got imported."""
    (tmp_path / "tadpole.txt").write_text(TADPOLE)
    (tmp_path / "malformed.txt").write_text("6 x\n")
    code = f"import sys\n{statements}\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def _cli(argv, code=0):
    return f"from mixedmetric import cli\nif cli.run({argv!r}) != {code}: sys.exit(9)"


@pytest.mark.parametrize("statements", [
    "import mixedmetric",
    "import mixedmetric.structure",
    _cli(["classify", "tadpole.txt"]),
    _cli(["dim", "tadpole.txt", "--json"]),
    _cli(["bounds", "tadpole.txt"]),
    _cli(["dim", "malformed.txt"], code=1),
], ids=["import", "structure", "classify", "dim", "bounds", "dim-malformed"])
def test_formula_path_leaves_numpy_unloaded(tmp_path, statements):
    assert not _loads_numpy(tmp_path, statements)


@pytest.mark.parametrize("argv", [
    ["verify", "tadpole.txt", "--set", "1,2,5"],
    ["oracle", "tadpole.txt"],
    ["generator", "tadpole.txt"],
    ["dim", "tadpole.txt", "--force-oracle"],
], ids=["verify", "oracle", "generator", "dim-force-oracle"])
def test_search_and_verification_load_numpy(tmp_path, argv):
    assert _loads_numpy(tmp_path, _cli(argv))


def test_only_the_oracle_imports_numpy_at_module_level():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                prefix = "." * node.level
                modules = ([prefix + node.module] if node.module
                           else [prefix + alias.name for alias in node.names])
            else:
                continue
            if any(m.split(".")[0] == "numpy" or m == ".oracle" for m in modules):
                found.append(path.name)
    assert found == ["oracle.py"]
