"""Package-wide rules: real raises, resolvable public names, no numpy, lazy imports.

No verb but conjecture loads dataclasses, which brings inspect, ast, dis
and tokenize with it: the records are NamedTuples and Graph a plain class.
"""

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


def test_public_names_are_pinned():
    # Adding or deleting a public name shows up here as a diff.
    assert mixedmetric.__all__ == [
        "BoundReport", "CactusSpec", "CampaignConfig", "CampaignFileError", "CampaignSummary",
        "ConjectureRecord", "CycleExcludedError", "CycleInfo", "CycleTerm", "Decomposition",
        "DisconnectedError", "DuplicateEdgeError", "Edge", "Element", "EmptySetError",
        "FailingPair", "GeneratorCertificate", "Graph", "GraphBuildError", "GraphClass",
        "GraphClassTag", "GraphStats", "InfeasibleEdgeCountError", "InvalidSpecError",
        "InvariantError", "MdimReport", "MixedMetricError", "NotACactusError", "ParseError",
        "SearchResult", "SelfLoopError", "TooLargeError", "TooSmallError",
        "VertexOutOfRangeError", "augment_for_triple", "biconnected_blocks", "bound_report",
        "brute_force_mdim", "build_graph", "build_min_generator", "classify", "decompose",
        "element_order", "evaluate_conjecture", "graph_stats", "has_geodesic_triple",
        "is_mixed_generator", "mdim_exact", "random_cactus", "random_connected_graph",
        "run_campaign",
    ]


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mixedmetric import *", namespace)
    assert sorted(set(mixedmetric.__all__)) == sorted(mixedmetric.__all__)
    assert set(mixedmetric.__all__) <= set(namespace)


SUBMODULES = sorted(path.stem for path in SRC.glob("*.py") if not path.stem.startswith("__"))


def _loaded(tmp_path, statements: str) -> set[str]:
    """Run the statements in a fresh interpreter.

    Returns the numpy, dataclasses and mixedmetric modules it loaded, so
    a pin of the exact set also pins that numpy stays unloaded.
    """
    (tmp_path / "tadpole.txt").write_text(TADPOLE)
    (tmp_path / "k4.txt").write_text(K4)
    (tmp_path / "malformed.txt").write_text("6 x\n")
    code = (f"import sys\n{statements}\n"
            "print(*(m for m in sys.modules"
            " if m.partition('.')[0] in ('numpy', 'dataclasses', 'mixedmetric')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=tmp_path, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _cli(argv, code=0):
    return f"from mixedmetric import cli\nif cli.run({argv!r}) != {code}: sys.exit(9)"


VERB_CALLS = {
    "classify": ["classify", "tadpole.txt"],
    "dim": ["dim", "tadpole.txt", "--json"],
    "bounds": ["bounds", "tadpole.txt"],
    "conjecture-cactus": ["conjecture", "--count", "3", "--cactus", "--out", "c.jsonl"],
    "verify": ["verify", "tadpole.txt", "--set", "1,2,5"],
    "oracle": ["oracle", "tadpole.txt"],
    "generator": ["generator", "tadpole.txt"],
    "dim-force-oracle": ["dim", "tadpole.txt", "--force-oracle"],
    "dim-force-oracle-k4": ["dim", "k4.txt", "--force-oracle"],
    # Density-1 graphs are no cacti, so the campaign runs the oracle's search.
    "conjecture-general": ["conjecture", "--count", "3", "--n-range", "4..6", "--density", "1",
                           "--out", "c.jsonl"],
}


# The modules each verb loads besides the package, cli, errors and graph,
# which every verb needs: none it does not run.
VERB_MODULES = {
    "classify": {"structure"},
    "dim": {"structure", "exact"},
    "bounds": {"structure", "exact"},
    "verify": {"oracle"},
    "oracle": {"oracle"},
    "generator": {"structure", "exact", "oracle"},
    "dim-force-oracle": {"structure", "exact", "oracle"},
    "conjecture-cactus": {"conjecture", "structure", "exact", "oracle"},
    "dim-force-oracle-k4": {"structure", "exact", "oracle"},
    "conjecture-general": {"conjecture", "structure", "exact", "oracle"},
}


def _verb_call(verb: str) -> str:
    return (_cli(["dim", "malformed.txt"], code=1) if verb == "dim-malformed"
            else _cli(VERB_CALLS[verb]))


@pytest.fixture(scope="module")
def verb_loaded(tmp_path_factory):
    """Each verb's loaded modules, from one fresh interpreter per verb."""
    seen = {}

    def loaded(verb: str) -> set[str]:
        if verb not in seen:
            seen[verb] = _loaded(tmp_path_factory.mktemp(verb), _verb_call(verb))
        return seen[verb]
    return loaded


@pytest.mark.parametrize("verb", [*VERB_MODULES, "dim-malformed"])
def test_each_verb_loads_only_the_modules_it_runs(verb_loaded, verb):
    modules = {"cli", "errors", "graph", *VERB_MODULES.get(verb, ())}
    expected = {"mixedmetric", *(f"mixedmetric.{m}" for m in modules)}
    # conjecture.CampaignConfig is the one dataclass left.
    if "conjecture" in modules:
        expected.add("dataclasses")
    assert verb_loaded(verb) == expected


@pytest.mark.parametrize("verb", [*VERB_MODULES, "dim-malformed"])
def test_only_the_conjecture_verb_loads_dataclasses(verb_loaded, verb):
    # Reads the same interpreter run as the exact-set pin above.
    loaded = verb_loaded(verb)
    assert ("dataclasses" in loaded) == ("conjecture" in VERB_MODULES.get(verb, ()))


def test_bare_import_loads_no_submodule(tmp_path):
    assert _loaded(tmp_path, "import mixedmetric") == {"mixedmetric"}


def test_structure_import_loads_only_its_own_imports(tmp_path):
    assert _loaded(tmp_path, "import mixedmetric.structure") == {
        "mixedmetric", "mixedmetric.errors", "mixedmetric.graph", "mixedmetric.structure"}


def _all_modules(tmp_path, statements: str) -> set[str]:
    """Every module a fresh interpreter holds after running the statements."""
    proc = subprocess.run([sys.executable, "-c", f"{statements}\nimport sys\nprint(*sys.modules)"],
                          capture_output=True, text=True, cwd=tmp_path, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_bare_import_adds_only_the_package_to_interpreter_start(tmp_path):
    # `python -c "import mixedmetric"` is what perfbench times as the
    # campaign's set-up.  __init__.py imports importlib, which some
    # interpreters' site start-up has loaded already and others have not.
    start = _all_modules(tmp_path, "pass")
    importlib = _all_modules(tmp_path, "import importlib") - start
    assert _all_modules(tmp_path, "import mixedmetric") - start - importlib == {"mixedmetric"}


def test_names_and_submodules_resolve_after_a_bare_import(tmp_path):
    # Each check exits 9 on failure, which _loaded reports.
    statements = (
        "import mixedmetric\n"
        "if not set(mixedmetric.__all__) <= set(dir(mixedmetric)): sys.exit(9)\n"
        "if hasattr(mixedmetric, 'no_such_name'): sys.exit(9)\n"
        "for name in mixedmetric.__all__: getattr(mixedmetric, name)\n"
        f"for name in {SUBMODULES!r}:\n"
        "    if getattr(mixedmetric, name) is not sys.modules['mixedmetric.' + name]: sys.exit(9)"
    )
    assert (_loaded(tmp_path, statements) - {"dataclasses"}
            == {"mixedmetric", *(f"mixedmetric.{m}" for m in SUBMODULES)})


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
