"""Correct representations exit 0 for q in [0.1, 10] and j_max up to l0 + 24.

A tier-1 failure must mean a bug, never roundoff, so `qlorentz verify` and
`qlorentz chiral` are run over the four label classes of the benchmark's label
draw, q log-uniform in [0.1, 10] away from the classical point, and j_max
offsets 0..14 above l0, plus the deepest truncation at the two ends of the q
range.
"""

import math
import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from qlorentz.cli import main  # noqa: E402


def _num(x: float) -> str:
    return "%.6g" % x


def _half(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def labels(cls: str):
    """(twice l0, l1 text) of one label class, drawn from the benchmark's ranges."""
    if cls == "complementary":
        return st.tuples(st.just(0), st.floats(0.1, 0.95).map(_num))
    if cls == "finite":
        return st.tuples(st.integers(1, 4), st.integers(0, 3)).map(
            lambda t: (t[0], _num(t[0] / 2 + t[1] + 1))
        )
    if cls == "principal":
        return st.tuples(st.integers(0, 4), st.floats(0.3, 4.0).map(lambda x: _num(x) + "i"))
    l1 = st.tuples(st.floats(0.3, 2.5), st.sampled_from("+-"), st.floats(0.2, 1.5))
    return st.tuples(st.integers(0, 4), l1.map(lambda t: f"{_num(t[0])}{t[1]}{_num(t[2])}i"))


q_values = (
    st.floats(math.log(0.1), math.log(10.0))
    .map(lambda t: _num(math.exp(t)))
    .filter(lambda q: abs(float(q) - 1.0) > 1e-3)
)


def run_exit(command: str, l0_2: int, l1: str, q: str, offset: int) -> int:
    argv = [command, "--l0", _half(l0_2), "--l1", l1, "--q", q]
    return main(argv + ["--j-max", _half(l0_2 + 2 * offset), "--output", os.devnull])


def sweep_exits_0(command: str, cls: str) -> None:
    @settings(max_examples=8, derandomize=True, deadline=None, database=None)
    @given(label=labels(cls), q=q_values, offset=st.integers(0, 14))
    def sweep(label, q, offset):
        assert run_exit(command, *label, q, offset) == 0

    sweep()


CLASSES = ["principal", "complementary", "non_unitary", "finite"]


@pytest.mark.parametrize("cls", CLASSES)
def test_verify_exits_0_across_label_classes_q_and_truncation(cls):
    sweep_exits_0("verify", cls)


@pytest.mark.parametrize("q", ["0.1", "10"])
def test_verify_exits_0_at_deep_truncation_at_the_ends_of_the_q_range(q):
    assert run_exit("verify", 0, "2.7i", q, 24) == 0


@pytest.mark.parametrize("cls", CLASSES)
def test_chiral_exits_0_across_label_classes_q_and_truncation(cls):
    sweep_exits_0("chiral", cls)


@pytest.mark.parametrize("q", ["0.1", "10"])
def test_chiral_exits_0_at_deep_truncation_at_the_ends_of_the_q_range(q):
    assert run_exit("chiral", 0, "2.7i", q, 24) == 0
