"""The value-class contract, over every class ``conjquot._values`` builds:
hashes, equality, reprs, frozenness, copying and pickling as the standard
library's dataclasses give them."""

import copy
import pickle

import pytest

from conjquot import constructions, domains, fourman, moves, propagation, schemes, tracer
from conjquot._values import FrozenInstanceError, fields, replace
from conjquot.schemes import CurveType, Oval, parse_viro

MODULES = (schemes, domains, moves, fourman, propagation, constructions, tracer)
BUILT = {
    v for m in MODULES for v in vars(m).values()
    if isinstance(v, type) and "__value_fields__" in vars(v)
}
MUTABLE = {propagation.FactTable, tracer._PixelTopology}


def build_samples() -> list:
    """One instance of each value class, made as the package makes them."""
    state = domains.TrackedScheme(parse_viro("<2 u 1<1>>_1"), 6, True)
    move = moves.enumerate_moves(state)[0]
    fact = propagation.Fact(state, propagation.Predicate.ARNOLD_STANDARD, "lcurve-seed")
    report = schemes.validate(parse_viro("<12>"), 6)
    spec = constructions.BaseCurveSpec(parse_viro("<1>_1"), 2, {(0,): 4})
    fibered = constructions.FiberedSpec(fourman.S4, 1, (CurveType.ONE,), elliptic_name="E(1)")
    quotient = constructions.fibered_quotient(fibered)
    poly = tracer.PolySpec.from_text("2 0 0 1\n0 2 0 1\n0 0 2 -0.25")
    trace = tracer.trace_scheme(poly, tracer.GridConfig(64, 256))
    return [
        state.scheme.roots[2], state.scheme, report.violations[0], report,
        schemes.default_catalog()[0],
        state, domains.regions(state)[1], domains.arnold_descriptor(state),
        moves.AddEmpty((0,)), moves.DeleteEmpty((0,)), moves.FuseSiblings((0,), (1,)),
        moves.FuseParentChild((2,), (2, 0)), moves.SplitSibling((2,), (0,)),
        moves.SplitNest((0,), ((1,),)), move, moves.ledger_effect(move.classification),
        moves.LogTransformEvent(1, 2),
        fourman.word(cp2=1, s2xs2=2), fourman.double_plane_invariants(state),
        fourman.StandardSurfaceForm(True, tori=1),
        propagation.SUCC,
        propagation.Certificate(state, move.successor, (move,), (state, move.successor)),
        fact, propagation.FactTable(), propagation.Declared((fact,)),
        propagation.sextic_sweep(schemes.default_catalog()),
        spec, constructions.perturb_u(spec), fibered, quotient.y_plus, quotient,
        constructions.imaginary_curve_image(2, 4),
        poly, tracer.GridConfig(64, 256), trace,
        tracer._PixelTopology(schemes.RealScheme(), {"outer": 1}, 0),
        tracer.LCurveResult(trace, 0.1),
    ]


def sample_id(x) -> str:
    return type(x).__qualname__


# Parametrized by class name, with the samples built in a fixture, so that a
# fault in the code that builds them fails each test rather than collection.
NAMES = sorted(c.__qualname__ for c in BUILT)
FROZEN = sorted(c.__qualname__ for c in BUILT if c not in MUTABLE)


@pytest.fixture(scope="module")
def samples() -> list:
    return build_samples()


@pytest.fixture(scope="module")
def sample(samples) -> dict:
    return {sample_id(x): x for x in samples}


def hashed_fields(x) -> tuple:
    return tuple(getattr(x, f.name) for f in fields(x) if (f.compare if f.hash is None else f.hash))


def test_every_value_class_has_one_sample(samples):
    assert sorted(map(sample_id, samples)) == sorted(c.__qualname__ for c in BUILT)


@pytest.mark.parametrize("name", NAMES)
def test_hash_is_the_hash_of_the_hashed_fields(sample, name):
    x = sample[name]
    if type(x) in MUTABLE:
        assert type(x).__hash__ is None
        with pytest.raises(TypeError):
            hash(x)
        return
    try:
        want = hash(hashed_fields(x))
    except TypeError:  # a field holds a dict, as a sweep report's rows do
        with pytest.raises(TypeError):
            hash(x)
    else:
        assert hash(x) == want


def test_hash_pins_without_field_flags(sample):
    assert hash(Oval()) == hash(((),))
    assert hash(moves.AddEmpty((0,))) == hash(((0,),))
    move = sample["MoveRecord"]
    assert hash(move) == hash((move.rewrite, move.classification, move.delta_chi_tracked))
    spec = sample["BaseCurveSpec"]  # basepoints are compared, but left out of the hash
    assert hash(spec) == hash((spec.scheme, spec.degree))


@pytest.mark.parametrize("name", NAMES)
def test_equality_is_by_class_and_compared_fields(sample, name):
    x = sample[name]
    twin = copy.copy(x)
    assert twin is not x and twin == x and not twin != x
    compared = tuple(getattr(x, f.name) for f in fields(x) if f.compare)
    assert x != compared and x != object()
    for f in fields(x):  # a copy with one field changed to a value equal to nothing else
        twin = copy.copy(x)
        object.__setattr__(twin, f.name, object())
        assert (twin == x, twin != x) == (not f.compare, f.compare), f.name
    cls = type(x)  # each method compiled for the class, as dataclasses names it
    for method in ("__init__", "__eq__", "__repr__", "__hash__")[:3 if cls in MUTABLE else 4]:
        assert vars(cls)[method].__qualname__ == f"{cls.__qualname__}.{method}"


def test_values_of_two_classes_with_the_same_fields_differ(sample):
    assert moves.AddEmpty(region=(0,)) != moves.DeleteEmpty(oval=(0,))
    assert moves.AddEmpty(region=(0,)) == moves.AddEmpty(region=(0,))
    move = sample["MoveRecord"]
    assert replace(move, successor=None) == move  # successor is not compared
    assert replace(move, delta_chi_tracked=move.delta_chi_tracked + 2) != move


@pytest.mark.parametrize("name", NAMES)
def test_repr_shows_the_repr_fields(sample, name):
    x = sample[name]
    shown = ", ".join(f"{f.name}={getattr(x, f.name)!r}" for f in fields(x) if f.repr)
    assert repr(x) == f"{type(x).__qualname__}({shown})"


def test_repr_hides_a_move_successor(sample):
    state = sample["TrackedScheme"]
    move = moves.MoveRecord(moves.AddEmpty(None), moves.Classification.M0, 1, state)
    assert repr(move) == (
        "MoveRecord(rewrite=AddEmpty(region=None), "
        "classification=<Classification.M0: 'M0'>, delta_chi_tracked=1)"
    )


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_refuse_assignment_and_deletion(sample, name):
    x = sample[name]
    name = fields(x)[0].name
    value = getattr(x, name)
    assert issubclass(FrozenInstanceError, AttributeError)
    with pytest.raises(FrozenInstanceError):
        setattr(x, name, value)
    with pytest.raises(FrozenInstanceError):
        delattr(x, name)
    with pytest.raises(AttributeError):
        x.not_a_field = 1
    assert getattr(x, name) is value


def test_mutable_values_take_assignment():
    table = propagation.FactTable()
    table.facts = {"k": None}
    assert table.facts == {"k": None}
    assert propagation.FactTable().facts == {}  # each table its own dict


def test_defaults_factories_and_init_false_fields():
    assert schemes.RealScheme() == schemes.RealScheme((), False, CurveType.UNKNOWN)
    a, b = propagation.Declared(()), propagation.Declared(())
    assert a._reached == {} and a._reached is not b._reached
    with pytest.raises(TypeError):
        Oval((), 1)  # size is computed, not passed
    with pytest.raises(TypeError):
        replace(Oval(), size=3)  # nor given to replace
    with pytest.raises(ValueError):  # __post_init__ runs
        domains.TrackedScheme(schemes.RealScheme(), 3)


def test_oval_and_state_survive_deepcopy_and_pickle():
    state = domains.TrackedScheme(parse_viro("<1 u 1<2<1>>>_1"), 6, True)
    oval = state.scheme.roots[1]
    assert Oval.__slots__ == ("children", "size", "key", "signed")
    assert not hasattr(oval, "__dict__")
    for x in (oval, state):
        for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and y is not x and hash(y) == hash(x) and repr(y) == repr(x)
    y = copy.deepcopy(oval)
    assert (y.size, y.key, y.signed) == (oval.size, oval.key, oval.signed)
