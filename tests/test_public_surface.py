"""Every public function and class is used by the package itself, or is on
one allowlist that says why it is exported anyway."""

import ast
import inspect
from pathlib import Path

import qkonc

# name -> why it stays exported although no module of the package uses it
ALLOWLIST = {
    # oracles: per-gate and per-pair references the batched paths are tested against
    "apply_gate": "oracle: gate-by-gate statevector reference (perfbench checks, tests)",
    "apply_gate_dm": "oracle: gate-by-gate density-matrix reference of the Kraus noise oracle",
    "bloch_vector": "oracle: single-qubit Bloch reference (perfbench checks, tests)",
    "reduce_to_qubit": "oracle: partial-trace reference (perfbench checks, tests)",
    "embed": "oracle: single-point view of embed_batch",
    "layer_decomposition": "oracle: the gates of an embedding, for gate-by-gate references",
    "fidelity_kernel": "oracle: per-pair fidelity kernel the noise-scan columns are checked against",
    "schatten2_distance": "oracle: per-pair state distance the noise-scan columns are checked against",
    "noisy_embed": "oracle: validated single-state view of noisy_pauli_batch",
    # fixtures: reference states
    "computational_basis_state": "fixture: |i> as a StateVector",
    "ghz_state": "fixture: state with maximally mixed single-qubit reductions",
    "maximally_mixed": "fixture: 1/2^n as a DensityMatrix",
    # analytic bounds an experiment will report
    "bound_entanglement": "bound: entanglement-induced concentration, not yet reported by an experiment",
    "bound_global_measurement": "bound: tensor-Ry global-measurement variance, not yet reported by an experiment",
}


def package_references() -> dict[str, set]:
    """Every name read in the package's modules (``__init__`` excluded), mapped
    to the top-level definitions it is read in (None: module level)."""
    refs: dict[str, set] = {}

    def walk(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and owner is None:
            owner = node.name
        if isinstance(node, ast.Name):
            refs.setdefault(node.id, set()).add(owner)
        elif isinstance(node, ast.Attribute):
            refs.setdefault(node.attr, set()).add(owner)
        for child in ast.iter_child_nodes(node):
            walk(child, owner)

    for path in sorted(Path(qkonc.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), None)
    return refs


def unused_exports() -> set:
    """Exported functions and classes named nowhere in the package outside their own definition."""
    refs = package_references()
    return {
        name
        for name in qkonc.__all__
        if (inspect.isfunction(getattr(qkonc, name)) or inspect.isclass(getattr(qkonc, name)))
        and not refs.get(name, set()) - {name}
    }


def test_every_unused_export_is_allowlisted():
    assert sorted(unused_exports() - ALLOWLIST.keys()) == []


def test_allowlist_names_only_unused_exports():
    # an entry whose name is gone or now used by the package is stale
    assert sorted(ALLOWLIST.keys() - unused_exports()) == []
