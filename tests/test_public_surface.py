"""The package's public surface is exactly the union of its submodules'
``__all__`` lists plus ``__version__``, and every listed name resolves.
No module imports a name that it neither uses nor exports."""

import ast
import importlib.util
from pathlib import Path

import pytest

import jacobsthal_octonions
from jacobsthal_octonions import errors, identities, octonion, octonion_sequences, sequences

SUBMODULES = (errors, identities, octonion, octonion_sequences, sequences)
PACKAGE_DIR = Path(jacobsthal_octonions.__file__).parent

# The whole surface; a name added or removed must be added or removed here.
PUBLIC_NAMES = [
    "ALPHA", "CORRECTION_TABLE", "DomainError", "EPSILON_HAT_ROWS",
    "IdentityDescriptor", "IdentityId", "InconsistencyError",
    "MULTIPLICATION_TABLE", "Octonion", "OctonionSequenceKind", "ProductOrder",
    "REGISTRY", "RangeReport", "ScaledOctonion",
    "SequenceKind", "SignedBasis", "THIRD_ORDER_KINDS", "UnknownVariantError",
    "Variant", "VerificationReport", "__version__", "basis_product",
    "closed_product", "correction", "epsilon_hat", "oct_seq", "oct_seq_closed",
    "partial_sum", "partial_sum_closed", "run_suite", "scalar_identity_sides",
    "seq_closed", "seq_terms", "seq_value", "value_to_json", "verify",
    "verify_range", "verify_ranges",
]


def test_public_surface_is_pinned():
    assert sorted(jacobsthal_octonions.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 38


def test_package_all_is_the_union_of_submodule_all():
    expected = {"__version__"}.union(*(module.__all__ for module in SUBMODULES))
    assert set(jacobsthal_octonions.__all__) == expected
    assert len(jacobsthal_octonions.__all__) == len(expected)


def test_every_public_name_resolves():
    for module in (jacobsthal_octonions, *SUBMODULES):
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name} is listed but missing"
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(jacobsthal_octonions, name) is getattr(module, name)


def test_every_name_the_tracer_wraps_resolves():
    # perfbench/tracer.py replaces each of its ENTRY_POINTS by a timed
    # wrapper, looked up as vars(owner)[method]; a name removed from the
    # package would break only the benchmark, so it is looked up here too.
    path = PACKAGE_DIR.parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.ENTRY_POINTS) == 5
    for module, attributes in tracer.ENTRY_POINTS.items():
        for attribute in attributes:
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(vars(owner).get(method)), f"{module.__name__}.{attribute}"


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from jacobsthal_octonions import *", namespace)
    assert set(jacobsthal_octonions.__all__) <= set(namespace)


def unused_imports(source: str) -> list[str]:
    """The names bound by a module-level import of ``source`` that the
    module never reads and does not list in its ``__all__``."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names
                         if alias.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            used |= {item.value for item in ast.walk(node.value)
                     if isinstance(item, ast.Constant) and isinstance(item.value, str)}
    return [name for name in imported if name not in used]


def test_unused_import_detector():
    source = "from .a import kept, dropped\nimport os.path\n__all__ = ['kept']\n"
    assert unused_imports(source) == ["dropped", "os"]
    assert unused_imports("import os\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
