from fractions import Fraction

import pytest

from bismash.hopf import (
    BasisElement,
    antipode,
    basis_elements,
    check_antipode_axiom,
    check_antipode_involutive,
    check_counit_axiom,
    check_multiplication_associative,
    comultiply,
    counit,
    multiply,
)
from bismash.matched_pair import act_left
from bismash.perm import Permutation, from_cycles, inverse


def test_multiply_idempotent_projection():
    x = from_cycles(5, [(1, 3)])
    e = BasisElement(x, 0)
    assert multiply(e, e) == e


def test_multiply_worked_example():
    x = from_cycles(6, [(1, 2), (3, 4, 5)])
    y = from_cycles(6, [(1, 5, 4)])  # x <| a
    got = multiply(BasisElement(x, 1), BasisElement(y, 0))
    assert got == BasisElement(x, 1)


def test_multiply_mismatched_labels_vanish():
    x = from_cycles(6, [(1, 2), (3, 4, 5)])
    y = from_cycles(6, [(1, 2)])  # not x <| a
    assert y != act_left(x, 1)
    assert multiply(BasisElement(x, 1), BasisElement(y, 1)) is None


def test_multiply_degree_mismatch():
    with pytest.raises(ValueError):
        multiply(
            BasisElement(Permutation.identity(3), 0),
            BasisElement(Permutation.identity(4), 0),
        )


def test_antipode_on_identity_label():
    n = 6
    e = Permutation.identity(n)
    for r in range(n):
        assert antipode(BasisElement(e, r)) == BasisElement(e, -r)


def test_antipode_at_zero_power():
    x = from_cycles(6, [(1, 2), (3, 4, 5)])
    assert antipode(BasisElement(x, 0)) == BasisElement(inverse(x), 0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_antipode_involutive(n):
    assert check_antipode_involutive(n) == []


def test_counit_values():
    e = Permutation.identity(5)
    x = from_cycles(5, [(1, 2)])
    for r in range(5):
        assert counit(BasisElement(e, r)) == 1
        assert counit(BasisElement(x, r)) == 0


def test_comultiply_shape():
    import math

    from bismash.matched_pair import act_right
    from bismash.perm import compose

    for n in (2, 3, 4):
        for e in basis_elements(n):
            ts = comultiply(e)
            assert len(ts.terms) == math.factorial(n - 1)
            for c, a, b in ts.terms:
                assert c == Fraction(1)
                assert b.r == e.r  # right leg keeps the power
                assert a.r == act_right(b.x, e.r)  # left power is y |> a^r
                assert compose(a.x, b.x) == e.x  # labels multiply back


@pytest.mark.parametrize("n", [2, 3, 4])
def test_counit_axiom(n):
    assert check_counit_axiom(n) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_antipode_axiom(n):
    assert check_antipode_axiom(n) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_multiplication_associative(n):
    assert check_multiplication_associative(n) == []


def test_associativity_check_reports_triples_in_loop_order(monkeypatch):
    # A product that drops some nonzero products is not associative; the
    # table-based check must list exactly the triples a literal loop over
    # (e1, e2, e3) finds, in the same order.
    from bismash import hopf

    def broken(e1, e2):
        p = multiply(e1, e2)
        return None if p is not None and (e1.r, e2.r) == (1, 2) else p

    monkeypatch.setattr(hopf, "multiply", broken)
    elements = list(basis_elements(3))
    want = []
    for e1 in elements:
        for e2 in elements:
            for e3 in elements:
                p12, p23 = broken(e1, e2), broken(e2, e3)
                lhs = broken(p12, e3) if p12 is not None else None
                rhs = broken(e1, p23) if p23 is not None else None
                if lhs != rhs:
                    want.append((e1, e2, e3))
    assert want
    assert check_multiplication_associative(3) == want
