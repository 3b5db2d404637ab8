"""Exact decimal output and input past CPython's int-to-str digit limit.

CPython refuses ``str()`` on ints of more than ``sys.get_int_max_str_digits()``
digits (4,300 by default), and ``int()`` on strings of as many.
``_decimal_str`` must give the digits ``str()`` gives with the limit lifted,
and every CLI output and ``repr`` must do the same; ``from_json`` must read
back what ``to_json`` writes.  Each test sets the limit it runs under and
restores the interpreter's own afterwards.
"""

import random
import sys
from contextlib import contextmanager

import pytest

from jacobsthal_octonions.cli import main
from jacobsthal_octonions.octonion import (_SPLIT_BITS, Octonion, ScaledOctonion, _decimal_int,
                                          _decimal_str)
from jacobsthal_octonions.octonion_sequences import OctonionSequenceKind, oct_seq
from jacobsthal_octonions.sequences import SequenceKind, seq_closed

pytestmark = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                reason="this interpreter has no int-to-str digit limit")


@contextmanager
def digit_limit(limit):
    """Run the body under ``limit`` (0 lifts it)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _values():
    rng = random.Random(20171)
    values = [0, 1, -1]
    for bits in (1, 2, 63, 64, 65, 1000, 2126, 2127, 2128, 14284, 14285, 14300,
                 50_000, 100_000, 200_000):
        x = rng.getrandbits(bits) | (1 << (bits - 1))
        values += [x, -x]
    for digits in (640, 4300, 5000, 20_000):
        # Powers of ten and their neighbours put runs of zeros in the low half.
        values += [10 ** digits - 1, 10 ** digits, 10 ** digits + 1, 7 * 10 ** digits + 3]
    return values


@pytest.mark.parametrize("limit", [640, 4300])
def test_decimal_str_matches_str(limit):
    values = _values()
    with digit_limit(0):
        expected = [str(x) for x in values]
    with digit_limit(limit):
        assert [_decimal_str(x) for x in values] == expected


def _split_values():
    """Values at the edges of ``_decimal_str``'s split rule."""
    rng = random.Random(2000)
    values = []
    for bits in (_SPLIT_BITS - 1, _SPLIT_BITS, _SPLIT_BITS + 1):
        values += [2 ** (bits - 1), 2 ** bits - 1, rng.getrandbits(bits) | (1 << (bits - 1))]
    k = 301
    while 2 * k < 50_000:
        # Powers of ten at each split size and their neighbours, and values
        # whose low half is zero or nearly so (the zfill case).
        values += [10 ** k - 1, 10 ** k, 10 ** k + 1, 10 ** (2 * k) - 1, 10 ** (2 * k),
                   10 ** (2 * k) + 1, 7 * 10 ** (2 * k) + 3, (10 ** k + 1) * 10 ** k]
        k *= 2
    for digits in (*rng.sample(range(600, 20_000), 6), 99_999):
        values.append(rng.randrange(10 ** (digits - 1), 10 ** digits))
    return values


@pytest.fixture(scope="module")
def split_values():
    values = _split_values()
    with digit_limit(0):
        return values, [str(x) for x in values]


@pytest.mark.parametrize("limit", [640, 4300])
def test_decimal_str_splits_exactly_at_every_size(split_values, limit):
    values, expected = split_values
    with digit_limit(limit):
        assert [_decimal_str(x) for x in values] == expected
        # Powers of ten shared across values of every size change nothing.
        powers = {}
        assert [_decimal_str(-x, powers) for x in values] == ["-" + e for e in expected]
    assert powers and all(p == 10 ** k for k, p in powers.items())
    # Up to the split size one str() call writes the value, under any limit.
    assert len(str(2 ** _SPLIT_BITS - 1)) <= 640


@pytest.mark.parametrize("limit", [640, 4300])
def test_decimal_int_inverts_decimal_str(limit):
    values = _values()
    with digit_limit(limit):
        assert [_decimal_int(_decimal_str(x)) for x in values] == values


@pytest.mark.parametrize("text", [
    "1" * 3000 + " " + "1" * 3000,
    "-" + "1" * 6000 + "\n",
    "+" + "1" * 6000,
    "--" + "1" * 6000,
    "1" * 3000 + "\u0661" * 3000,  # Arabic-Indic digits
])
def test_decimal_int_refuses_what_it_cannot_split(text):
    # Past the limit only an optional "-" and ASCII digits are split.
    with digit_limit(4300), pytest.raises(ValueError):
        _decimal_int(text)


def test_json_round_trip_past_the_digit_limit():
    jo = oct_seq(OctonionSequenceKind.JACOBSTHAL, 14300)
    rng = random.Random(5000)
    big = Octonion(tuple(rng.randint(-10 ** 5000, 10 ** 5000) for _ in range(8)))
    scaled = ScaledOctonion(big, 10 ** 5000 + 1)
    assert max(len(_decimal_str(abs(x))) for x in big) == 5000
    with digit_limit(4300):
        assert Octonion.from_json(jo.to_json()) == jo
        assert ScaledOctonion.from_json(scaled.to_json()) == scaled


def test_repr_below_the_limit_is_unchanged():
    p = Octonion((0, 1, -1, 2, -5, 9, -18, 37))
    assert repr(p) == "Octonion((0, 1, -1, 2, -5, 9, -18, 37))"
    assert repr(ScaledOctonion(p, 7)) == \
        "ScaledOctonion(Octonion((0, 1, -1, 2, -5, 9, -18, 37)), 7)"
    with digit_limit(4300):
        for x in (p, oct_seq(OctonionSequenceKind.JACOBSTHAL, 14000)):
            assert repr(x) == f"Octonion({x.coefficients!r})"
            assert repr(ScaledOctonion(x, 7 ** 30)) == \
                f"ScaledOctonion({x!r}, {7 ** 30})"


def test_repr_past_the_limit_holds_every_digit():
    jo = oct_seq(OctonionSequenceKind.JACOBSTHAL, 14300)
    scaled = ScaledOctonion(jo, 10 ** 5000 + 1)
    with digit_limit(0):
        expected = (f"Octonion({jo.coefficients!r})",
                    f"ScaledOctonion(Octonion({jo.coefficients!r}), {10 ** 5000 + 1})")
    with digit_limit(4300):
        assert (repr(jo), repr(scaled)) == expected


def _run(capsys, argv, limit):
    with digit_limit(limit):
        code = main(argv.split())
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, exit_code", [
    ("seq --kind j3 --from 15000 --to 15000", 0),
    ("seq --kind jl3 --from 14998 --to 15001 --format json", 0),
    ("oct --kind JO --n 14300 --format json", 0),
    ("oct --kind jO --n 14300 --closed --format csv", 0),
    ("verify --identity T6_QUAD --from 7140 --to 7141", 1),
    ("verify --identity T6_QUAD --from 7140 --to 7141 --format json", 1),
])
def test_cli_output_past_the_digit_limit(capsys, argv, exit_code):
    # With the limit lifted, str() writes the digits directly; under the
    # default limit the output must be the same bytes.
    reference = _run(capsys, argv, 0)
    assert reference[0] == exit_code
    assert _run(capsys, argv, 4300) == reference


def test_deep_term_digits_are_exact(capsys):
    code, out, err = _run(capsys, "seq --kind j3 --from 15000 --to 15000", 4300)
    assert (code, err) == (0, "")
    n, value = out.split("\t")
    with digit_limit(0):
        assert int(n) == 15000
        assert int(value) == seq_closed(SequenceKind.THIRD_ORDER_JACOBSTHAL, 15000)
