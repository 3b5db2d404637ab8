"""Exact decimal output past CPython's int-to-str digit limit.

CPython refuses ``str()`` on ints of more than ``sys.get_int_max_str_digits()``
digits (4,300 by default).  ``_decimal_str`` must give the digits ``str()``
gives with the limit lifted, and every CLI output must do the same.  Each test
sets the limit it runs under and restores the interpreter's own afterwards.
"""

import random
import sys
from contextlib import contextmanager

import pytest

from jacobsthal_octonions.cli import main
from jacobsthal_octonions.octonion import _decimal_str
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
