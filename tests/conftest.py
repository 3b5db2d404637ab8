import pytest

from jacobsthal_octonions.octonion import Octonion


@pytest.fixture
def octonion_products(monkeypatch) -> list:
    """A one-element list counting the octonion-by-octonion calls of
    ``Octonion.__mul__`` from here on.  Scaling by an int is left out:
    comparing two sides scales once per variant."""
    calls = [0]
    product = Octonion.__mul__

    def counting(self, other):
        calls[0] += isinstance(other, Octonion)
        return product(self, other)

    monkeypatch.setattr(Octonion, "__mul__", counting)
    return calls


@pytest.fixture
def window_products(monkeypatch) -> list:
    """A one-element list counting the large products that seeding product
    windows takes from here on (``identities._window``): six for a square,
    nine for two term lists."""
    from jacobsthal_octonions import identities

    calls = [0]
    window = identities._window

    def counting(x, y, n):
        calls[0] += 6 if x is y else 9
        return window(x, y, n)

    monkeypatch.setattr(identities, "_window", counting)
    return calls
