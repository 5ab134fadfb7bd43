import ast
from pathlib import Path

import pytest

import darkres

# The public surface, in __all__ order.  A name added to or removed from
# the package shows here in the diff; a removed name cannot come back
# unnoticed.
PUBLIC = [
    "__version__",
    "SystemParams", "MediumParams",
    "DensityMatrix", "assemble", "solve_linear",
    "steady_state", "steady_state_derivative",
    "DressedStates", "dressed_states", "coupling_hamiltonian", "spike_half_width",
    "Method", "susceptibility", "chi_prefactor", "chi_at", "probe_coherence",
    "dispersion_slope", "group_index", "find_absorption_zero",
    "find_absorption_zero_auto", "find_gain_threshold", "auto_zero_bracket",
    "Axis", "Spacing", "Output", "SweepSpec", "SweepTable",
    "parse_config", "run_sweep", "write_csv",
    "SimulationError", "ParameterError", "ConfigError", "NumericError",
]


def test_every_export_resolves():
    # a deleted name must also leave __all__
    assert [name for name in darkres.__all__ if not hasattr(darkres, name)] == []
    assert len(set(darkres.__all__)) == len(darkres.__all__)


def test_public_surface_is_pinned():
    assert darkres.__all__ == PUBLIC


@pytest.mark.parametrize(
    "path, allowed",
    [
        ("bench/oracle.py", {"__future__", "math", "numpy"}),
        ("tests/exact_oracle.py", {"__future__", "fractions", "math", "numpy"}),
    ],
    ids=["bench-oracle", "exact-oracle"],
)
def test_oracle_imports_nothing_from_the_program(path, allowed):
    # tier-1 and the bench check darkres against the oracles, so they
    # must not reach darkres, directly or through another module
    source = Path(__file__).resolve().parents[1] / path
    tree = ast.parse(source.read_text(encoding="utf-8"))
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import keeps its leading dots, so it fails too
            roots.add("." * node.level + (node.module or "").split(".")[0])
    assert roots <= allowed


@pytest.mark.parametrize("path", ["src/darkres/sweep.py", "src/darkres/cli.py"])
def test_seed_rule_stays_in_observables(path):
    # the zero finder's seed is observables' own: the sweep and the CLI
    # reach it through find_absorption_zero_auto and no private name
    source = Path(__file__).resolve().parents[1] / path
    tree = ast.parse(source.read_text(encoding="utf-8"))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "observables"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_every_solve_stays_in_steady_state():
    # steady_state is the one module that solves or inverts a matrix: the
    # root finders' hints and the seed's state come from it; no module
    # diagonalizes one, since the sweep's resolvent is a Woodbury update
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "darkres").glob("*.py"))
    assert "steady_state.py" in [path.name for path in modules]
    calls = [
        (path.name, node.attr, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "linalg"
    ]
    assert ("steady_state.py", "solve") in [call[:2] for call in calls]
    outside = [call for call in calls if call[0] != "steady_state.py" and call[1] in {"solve", "inv"}]
    assert outside == []
    assert [call for call in calls if call[1].startswith("eig")] == []
