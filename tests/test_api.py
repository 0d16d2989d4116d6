"""The public API: the names a CLI path or an independent test oracle uses."""

import ast
import importlib
from pathlib import Path

import pytest

import ryddecay
from ryddecay.lattice import LatticeSpec
from ryddecay.operators import site_operator

PUBLIC = {
    "__version__",
    # lattice and operators
    "LatticeSpec", "NeighborTable", "build_lattice", "neighbor_table",
    "ModelParams", "SINGLE", "COLLECTIVE", "site_operator", "neighborhood_projector",
    "atomic_hamiltonian", "driven_hamiltonian", "jump_operators",
    # exact Lindblad layer
    "IntegrationResult", "SteadyStateScan", "integrate_exact", "lindblad_rhs",
    "excitation_density", "scan_steady_state", "window_times",
    # coherence
    "CoherenceState", "initial_coherence", "evolve", "mode_series",
    "verify_against_master_equation",
    # jump trajectories
    "TrajectoryResult", "TrajectoryEnsembleResult", "run_ensemble",
    # mean field
    "MeanFieldParams", "MeanFieldState", "FixedPoint", "PhaseDiagram", "mf_rhs",
    "mf_oracle_check", "find_fixed_points", "scan_phase_diagram",
    "refine_critical_point", "integrate_mf",
    # emission kernels
    "KernelInputs", "gamma_kernel", "v_kernel", "gamma_xi_rate",
}

# (module, attribute path) of API that neither a CLI path nor an oracle used
DELETED = [
    ("ryddecay.master_equation", "ObservableSeries"),
    ("ryddecay.master_equation", "steady_state_window_average"),
    ("ryddecay.master_equation", "product_state_vector"),
    ("ryddecay.master_equation", "pure_state_density"),
    ("ryddecay.master_equation", "_jump_matrices"),
    ("ryddecay.operators", "ModelParams.rwa_advisory"),
    ("ryddecay.operators", "dissipator_anticommutator_diag"),
    ("ryddecay.operators", "is_hermitian"),
    ("ryddecay.operators", "JumpOperator.label"),
    ("ryddecay.operators", "_cached_system"),
    ("ryddecay.lattice", "site_coords"),
    ("ryddecay.meanfield", "MeanFieldState.bounds_violation"),
    ("ryddecay.coherence", "evolve_single"),
    ("ryddecay.coherence", "evolve_collective"),
    ("ryddecay.operators", "neighbor_count_vector"),
    ("ryddecay.operators", "_bit_shift"),
    ("ryddecay.master_equation", "_excited_neighbours"),
    ("ryddecay.master_equation", "_eig_window"),
    ("ryddecay.trajectories", "NoJumpPropagator"),
]


def test_public_names_are_pinned_and_resolve():
    assert len(ryddecay.__all__) == len(set(ryddecay.__all__))
    assert set(ryddecay.__all__) == PUBLIC
    for name in ryddecay.__all__:
        assert getattr(ryddecay, name) is not None


@pytest.mark.parametrize("module, path", DELETED, ids=[p for _, p in DELETED])
def test_deleted_name_is_gone(module, path):
    obj = importlib.import_module(module)
    *owners, last = path.split(".")
    for owner in owners:
        obj = getattr(obj, owner)
    assert not hasattr(obj, last)
    assert last not in ryddecay.__all__


def test_sigma_plus_kind_is_gone():
    with pytest.raises(ValueError, match="unknown operator kind"):
        site_operator(LatticeSpec(1, (2,), "open"), 0, "sigma_plus")


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_imports_a_private_name_of_another():
    # what one module of the package shares with another is public; a
    # leading underscore means the name is the defining module's own
    offenders = []
    for path in sorted(Path(ryddecay.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("ryddecay"):
                continue
            offenders += [f"{path.name}: {alias.name} from {'.' * node.level}{node.module or ''}"
                          for alias in node.names if _is_private(alias.name)]
    assert offenders == []


def _functions_where(predicate) -> set[tuple[str, str | None]]:
    """(module file, innermost enclosing function) of every node in the
    package's modules that satisfies predicate."""
    found = set()

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if predicate(child):
                found.add((module, owner))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            visit(child, module, inner)

    for path in sorted(Path(ryddecay.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name, None)
    return found


def _is_eig_call(node) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) in (
        "eig", "linalg.eig", "np.linalg.eig", "numpy.linalg.eig")


def _compares(name: str):
    """A predicate: the node is a comparison that reads the constant name."""
    return lambda node: isinstance(node, ast.Compare) and any(
        (isinstance(n, ast.Name) and n.id == name)
        or (isinstance(n, ast.Attribute) and n.attr == name) for n in ast.walk(node))


_compares_cond_limit = _compares("COND_LIMIT")


def test_one_eigendecomposition_and_one_cond_limit_decision():
    # the closed form exp(tau G) = vecs diag(exp(tau lam)) inv is built in one
    # place for L_red and -i H_eff alike, and so is the choice of its route
    assert _functions_where(_is_eig_call) == {("master_equation.py", "eigen_form")}
    assert _functions_where(_compares_cond_limit) == {("master_equation.py", "eigen_form")}


def test_one_lattice_size_decision():
    # every lattice path (the CLI's chains, the orbits, the full-space
    # integrator) is refused above MAX_SITES by the one check and message
    assert _functions_where(_compares("MAX_SITES")) == {("master_equation.py", "check_sites")}
