"""Every public function and class, and every public method and property of
an exported class, is used by the package itself, or is on an allowlist that
says why it is exported anyway."""

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


# (class, member) -> why the method or property stays although no module of the package reads it
MEMBER_ALLOWLIST = {
    ("TrainedModel", "from_json"): "reader of model.json, the only way from that file back to predict",
    ("BlochVector", "as_array"): "oracle: Bloch reference as an array (perfbench checks)",
    ("PauliNoiseParams", "choi_matrix"): "oracle: complete positivity of the channel (tests)",
    ("ConcentrationReport", "std_error"): "reports the Monte-Carlo error of a scan's mean to library callers",
}


def package_references() -> tuple[dict[str, set], dict[str, set]]:
    """Every name read in the package's modules (``__init__`` excluded), mapped
    to the top-level definitions it is read in (None: module level); and every
    attribute read, mapped to (top-level definition, function nested in it)
    pairs, the function None where the read is outside one."""
    names: dict[str, set] = {}
    attributes: dict[str, set] = {}

    def walk(node, owner, method):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and owner is None:
            owner = node.name
        elif isinstance(node, ast.FunctionDef) and method is None:
            method = node.name
        if isinstance(node, ast.Name):
            names.setdefault(node.id, set()).add(owner)
        elif isinstance(node, ast.Attribute):
            names.setdefault(node.attr, set()).add(owner)
            attributes.setdefault(node.attr, set()).add((owner, method))
        for child in ast.iter_child_nodes(node):
            walk(child, owner, method)

    for path in sorted(Path(qkonc.__file__).parent.glob("*.py")):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), None, None)
    return names, attributes


def unused_exports() -> set:
    """Exported functions and classes named nowhere in the package outside their own definition."""
    names, _ = package_references()
    return {
        name
        for name in qkonc.__all__
        if (inspect.isfunction(getattr(qkonc, name)) or inspect.isclass(getattr(qkonc, name)))
        and not names.get(name, set()) - {name}
    }


def unused_members() -> set:
    """(class, member) for each public method and property of an exported class
    that no attribute read of the package reaches outside the member's own body."""
    _, attributes = package_references()
    return {
        (name, member)
        for name in qkonc.__all__
        if inspect.isclass(cls := getattr(qkonc, name))
        for member, value in vars(cls).items()
        if not member.startswith("_")
        and (inspect.isfunction(value) or isinstance(value, (staticmethod, classmethod, property)))
        and not attributes.get(member, set()) - {(name, member)}
    }


def test_every_unused_export_is_allowlisted():
    assert sorted(unused_exports() - ALLOWLIST.keys()) == []


def test_allowlist_names_only_unused_exports():
    # an entry whose name is gone or now used by the package is stale
    assert sorted(ALLOWLIST.keys() - unused_exports()) == []


def test_every_unused_member_is_allowlisted():
    assert sorted(unused_members() - MEMBER_ALLOWLIST.keys()) == []


def test_member_allowlist_names_only_unused_members():
    assert sorted(MEMBER_ALLOWLIST.keys() - unused_members()) == []
