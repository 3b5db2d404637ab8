"""The package's public surface is exactly the union of its submodules'
``__all__`` lists plus ``__version__``, and every listed name resolves."""

import jacobsthal_octonions
from jacobsthal_octonions import errors, identities, octonion, octonion_sequences, sequences

SUBMODULES = (errors, identities, octonion, octonion_sequences, sequences)


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


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from jacobsthal_octonions import *", namespace)
    assert set(jacobsthal_octonions.__all__) <= set(namespace)
