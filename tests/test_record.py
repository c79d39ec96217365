"""The value classes behave as frozen records: equality and hash by type and
fields, the documented repr, no assignment, defaults, and validation on
construction."""
import json
from fractions import Fraction

import pytest

from quiverlab import (
    Arrow,
    BasisElement,
    CanonicalSpec,
    ComplexityEstimate,
    CoxeterReport,
    CycloProfile,
    EntropyLine,
    GrowthEstimate,
    IntPolynomial,
    Quiver,
    QuiverType,
    ResolutionTrace,
    SerreVerdict,
)
from quiverlab.record import FrozenInstanceError, Record, read_json


def test_equality_and_hash_follow_type_and_fields():
    a = QuiverType("affine", (1, 1))
    b = QuiverType(kind="affine", radical_vector=(1, 1))
    assert a == b and hash(a) == hash(b) == hash(("affine", (1, 1)))
    assert a != QuiverType("affine", (1, 2))
    assert len({a, b, QuiverType("finite")}) == 2
    # the same fields under another record type are a different value
    assert Arrow("a", "1", "2") != BasisElement("a", "1", "2")
    assert Arrow("a", "1", "2") != ("a", "1", "2", 0)


def test_reprs_match_the_readme():
    assert repr(QuiverType("affine", (1, 1))) == "QuiverType(kind='affine', radical_vector=(1, 1))"
    profile = CycloProfile(True, ((1, 2),), False, None, (1, 2), IntPolynomial([1, -2, 1]))
    assert repr(profile) == (
        "CycloProfile(is_cyclotomic=True, orders=((1, 2),), periodic=False, "
        "period=None, witness=(1, 2), char_poly=IntPolynomial(x^2 - 2x + 1))"
    )
    assert repr(ComplexityEstimate.finite(2)) == (
        "ComplexityEstimate(kind='finite', degree=2, reason=None)"
    )


def test_fields_cannot_be_assigned_or_deleted():
    verdict = QuiverType("finite")
    with pytest.raises(FrozenInstanceError):
        verdict.kind = "affine"
    with pytest.raises(AttributeError):
        verdict.extra = 1
    with pytest.raises(AttributeError):
        del verdict.kind
    assert verdict == QuiverType("finite")


def test_defaults_and_argument_binding():
    assert Quiver(("1",)).arrows == ()
    assert Arrow("a", "1", "2").degree == 0
    assert ComplexityEstimate("infinite") == ComplexityEstimate("infinite", None, None)
    with pytest.raises(TypeError, match="missing"):
        Arrow("a", "1")
    with pytest.raises(TypeError, match="positional"):
        QuiverType("finite", None, None)
    with pytest.raises(TypeError, match="unexpected"):
        QuiverType("finite", vector=None)
    with pytest.raises(TypeError, match="multiple"):
        QuiverType("finite", kind="finite")


def test_post_init_normalizes_fields():
    assert ResolutionTrace([3.0, 2], "steps-exhausted").betti == (3, 2)
    spec = CanonicalSpec((2, 3, 5), (Fraction(4, 2),))
    assert spec.lambdas == (2,) and type(spec.lambdas[0]) is int


@pytest.mark.parametrize(
    "make",
    [
        lambda: ResolutionTrace((), "steps-exhausted"),
        lambda: ResolutionTrace((1, 2), "no-such-reason"),
        lambda: QuiverType("wild"),
        lambda: QuiverType("finite", (1, 1)),
        lambda: QuiverType("affine"),
        lambda: CanonicalSpec((2,)),
        lambda: CanonicalSpec((2, 3, 5), (0,)),
        lambda: SerreVerdict("bogus-kind"),
        lambda: SerreVerdict("fractionally-calabi-yau", l=2),
    ],
)
def test_invalid_arguments_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


def test_a_record_takes_its_fields_from_its_annotations():
    class Point(Record):
        x: int
        y: int = 0

    assert Point._fields == ("x", "y")
    assert Point(1) == Point(x=1, y=0)
    assert repr(Point(1, 2)).endswith(".<locals>.Point(x=1, y=2)")
    match Point(3, 4):
        case Point(x, y):
            assert (x, y) == (3, 4)


# every record a report prints, with its JSON form as (key, value) pairs:
# render_table prints the keys in this order, and a tuple field is a list
JSON_SHAPES = [
    (ResolutionTrace((3, 2, 2), "steps-exhausted"),
     [("betti", [3, 2, 2]), ("truncated_by", "steps-exhausted")]),
    (ComplexityEstimate.finite(2), [("kind", "finite"), ("degree", 2)]),
    (ComplexityEstimate.infinite(), [("kind", "infinite")]),
    (ComplexityEstimate.inconclusive("trace too short"),
     [("kind", "inconclusive"), ("reason", "trace too short")]),
    (GrowthEstimate.polynomial(0), [("kind", "polynomial"), ("degree", 0)]),
    (GrowthEstimate.exponential(), [("kind", "exponential")]),
    (SerreVerdict.unknown("no rule applies"),
     [("kind", "unknown"), ("l", None), ("m", None), ("n", None), ("reason", "no rule applies")]),
    (CoxeterReport(True, True, 2, 1, "witness found"),
     [("cyclotomic", True), ("passed", True), ("n", 2), ("l", 1), ("note", "witness found")]),
    (CoxeterReport(False, False, None, None, "not cyclotomic"),
     [("cyclotomic", False), ("passed", False), ("n", None), ("l", None),
      ("note", "not cyclotomic")]),
    (CoxeterReport(True, None, 90, 1, "outside the bounds"),
     [("cyclotomic", True), ("passed", None), ("n", 90), ("l", 1),
      ("note", "outside the bounds")]),
]


@pytest.mark.parametrize("record, shape", JSON_SHAPES,
                         ids=[type(r).__name__ for r, _ in JSON_SHAPES])
def test_json_form_keeps_field_order_and_lists(record, shape):
    assert list(record.to_json_dict().items()) == shape


def test_json_form_drops_none_only_when_the_class_asks():
    class Keeps(Record):
        a: int | None
        b: tuple = ()

    class Drops(Record):
        a: int | None
        b: tuple = ()
        _json_drops_none = True

    assert Keeps(None, (1, (2,))).to_json_dict() == {"a": None, "b": [1, (2,)]}
    assert Drops(None).to_json_dict() == {"b": []}
    assert Drops(0).to_json_dict() == {"a": 0, "b": []}


def test_json_form_writes_a_rational_that_is_not_an_int_as_p_over_q():
    # a plain field and the entries of a tuple field; json accepts both, and
    # ints, bools and floats pass through
    slope = EntropyLine(Fraction(1, 2), 0).to_json_dict()
    assert slope == {"slope": "1/2", "poly_entropy_bound": 0}
    spec = CanonicalSpec((2, 3, 7, 5), (Fraction(5, 2), 3)).to_json_dict()
    assert spec == {"weights": [2, 3, 7, 5], "lambdas": ["5/2", 3]}
    assert json.dumps(slope) == '{"slope": "1/2", "poly_entropy_bound": 0}'
    assert json.dumps(spec) == '{"weights": [2, 3, 7, 5], "lambdas": ["5/2", 3]}'
    assert EntropyLine(2, 1).to_json_dict() == {"slope": 2, "poly_entropy_bound": 1}
    assert CoxeterReport(True, False, 1, 1, "x").to_json_dict()["passed"] is False


def test_read_json_names_what_was_malformed():
    assert read_json('{"weights": [2, 3]}', "canonical spec") == {"weights": [2, 3]}
    with pytest.raises(ValueError) as caught:
        read_json("{", "quiver document")
    assert str(caught.value) == (
        "malformed quiver document: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)"
    )
