"""Value semantics of refinement types and HATs, and the text they reach.

Types are slotted value classes: equal fields make equal types with equal
hashes, and the ``repr`` a typing error quotes (and the witness a rejected
method reports) reads as it always has.
"""

import pytest

from repro import smt
from repro.sfa import symbolic
from repro.suite.registry import benchmark_by_key
from repro.types.rtypes import (
    FunType,
    GhostArrow,
    HatType,
    Intersection,
    RefinementType,
    base,
    nu,
)

INT = smt.INT


def _positive() -> RefinementType:
    return RefinementType(INT, smt.gt(nu(INT), smt.int_const(0)))


def _types():
    positive = _positive()
    hat = HatType(symbolic.TOP, positive, symbolic.TOP)
    return [
        positive,
        base(INT),
        hat,
        Intersection((hat, hat)),
        FunType("x", positive, hat),
        GhostArrow("g", INT, FunType("x", base(INT), Intersection((hat, hat)))),
    ]


@pytest.mark.parametrize(
    "left,right", list(zip(_types(), _types())), ids=lambda ty: type(ty).__name__
)
def test_equal_fields_make_equal_types_with_equal_hashes(left, right):
    assert left is not right
    assert left == right
    assert hash(left) == hash(right)
    assert len({left, right}) == 1


def test_different_fields_make_different_types():
    assert base(INT) != _positive()
    hat = HatType(symbolic.TOP, base(INT), symbolic.TOP)
    assert FunType("x", base(INT), hat) != FunType("y", base(INT), hat)
    assert GhostArrow("g", INT, hat) != GhostArrow("g", smt.BOOL, hat)


def test_intersection_still_validates_its_cases():
    with pytest.raises(ValueError, match="at least one case"):
        Intersection(())
    int_hat = HatType(symbolic.TOP, base(INT), symbolic.TOP)
    bool_hat = HatType(symbolic.TOP, base(smt.BOOL), symbolic.TOP)
    with pytest.raises(ValueError, match="WFInter"):
        Intersection((int_hat, bool_hat))


def test_type_reprs_read_as_before():
    positive = _positive()
    hat = HatType(symbolic.TOP, positive, symbolic.TOP)
    assert repr(base(INT)) == "Int"
    assert repr(positive) == "{ν:Int | (0 < nu:Int)}"
    assert repr(hat) == "[TOP] {ν:Int | (0 < nu:Int)} [TOP]"
    assert repr(FunType("x", positive, hat)) == (
        "x:{ν:Int | (0 < nu:Int)} → [TOP] {ν:Int | (0 < nu:Int)} [TOP]"
    )
    assert repr(GhostArrow("g", INT, FunType("x", base(INT), Intersection((hat, hat))))) == (
        "g:Int ⤳ x:Int → [TOP] {ν:Int | (0 < nu:Int)} [TOP] ⊓ [TOP] {ν:Int | (0 < nu:Int)} [TOP]"
    )


def test_a_rejected_method_reports_the_same_witness():
    result = benchmark_by_key("Set/KVStore").verify_negative_variant("insert_bad")
    step = "put((put.key == put.value), (put.value == el), (put.key == x), (put.value == x))"
    assert not result.verified
    assert result.counterexample == [step, step]
    assert result.error == (
        "the accumulated effect context is not included in the postcondition automaton "
        "(the representation invariant may be violated) "
        f"[counterexample trace: {step} ; {step}]"
    )
