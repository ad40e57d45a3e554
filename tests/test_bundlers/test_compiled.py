"""Compiled bundler plans: byte-identity with the interpreted path.

The contract of :mod:`repro.bundlers.compiled` is that the fast path
is *observationally identical* to the interpreted field walk: same
bytes out, same values back, same errors for bad input.  These tests
exercise that property over generated values, plus the structural
rules for when fusion happens at all.
"""

from __future__ import annotations

import dataclasses
import enum
import random
import typing
from typing import Optional

import pytest

from repro.errors import BundleError, XdrError
from repro.bundlers.auto import derive_bundler, structural_resolver
from repro.bundlers.base import BundlerRegistry
from repro.bundlers.compiled import CompiledPlan, plan_for
from repro.xdr import XdrStream
from repro.xdr.stream import XdrOp


class Color(enum.Enum):
    RED = 1
    GREEN = 2
    BLUE = 7


@dataclasses.dataclass
class Point:
    x: int
    y: int


@dataclasses.dataclass
class Reading:
    sensor: int
    seq: int
    value: float
    scale: float


@dataclasses.dataclass
class Mixed:
    a: int
    name: str
    b: float
    ok: bool
    c: Color


@dataclasses.dataclass
class Nested:
    p: Point
    q: Point
    label: str


@dataclasses.dataclass
class WithList:
    tag: int
    values: list[int]
    weight: float


@dataclasses.dataclass
class WithOptional:
    a: int
    maybe: Optional[int]
    b: int


def encode(bundler, value) -> bytes:
    stream = XdrStream(XdrOp.ENCODE)
    try:
        bundler(stream, value)
        return stream.getvalue()
    finally:
        stream.release()


def decode(bundler, data):
    stream = XdrStream(XdrOp.DECODE, data)
    value = bundler(stream, None)
    stream.expect_exhausted()
    return value


def random_value(cls, rng: random.Random):
    if cls is Point:
        return Point(rng.randint(-(2**62), 2**62), rng.randint(-(2**62), 2**62))
    if cls is Reading:
        return Reading(rng.randint(0, 1000), rng.randint(0, 2**40),
                       rng.uniform(-1e6, 1e6), rng.uniform(0.1, 10.0))
    if cls is Mixed:
        return Mixed(rng.randint(-100, 100), "s" * rng.randint(0, 8),
                     rng.uniform(-10, 10), rng.random() < 0.5,
                     rng.choice(list(Color)))
    if cls is Nested:
        return Nested(random_value(Point, rng), random_value(Point, rng),
                      "n" * rng.randint(0, 5))
    if cls is WithList:
        return WithList(rng.randint(0, 9),
                        [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))],
                        rng.uniform(-2, 2))
    if cls is WithOptional:
        return WithOptional(rng.randint(-9, 9),
                            rng.randint(0, 99) if rng.random() < 0.5 else None,
                            rng.randint(-9, 9))
    raise AssertionError(cls)


ALL_CLASSES = [Point, Reading, Mixed, Nested, WithList, WithOptional]


# -- byte-identity ------------------------------------------------------------

@pytest.mark.parametrize("cls", ALL_CLASSES)
def test_compiled_output_byte_identical_to_interpreted(cls):
    bundler = derive_bundler(cls)
    interpreted = getattr(bundler, "interpreted", bundler)
    rng = random.Random(20260807)
    for _ in range(100):
        value = random_value(cls, rng)
        fast = encode(bundler, value)
        slow = encode(interpreted, value)
        assert fast == slow, f"{cls.__name__}: {value!r}"
        assert decode(bundler, slow) == value
        assert decode(interpreted, fast) == value


def test_compiled_decodes_interpreted_bytes_and_vice_versa():
    bundler = derive_bundler(Nested)
    interpreted = bundler.interpreted
    value = Nested(Point(1, 2), Point(-3, 4), "lab")
    assert decode(bundler, encode(interpreted, value)) == value
    assert decode(interpreted, encode(bundler, value)) == value


# -- plan structure -----------------------------------------------------------

def test_flat_primitive_record_fully_fuses():
    plan = plan_for(derive_bundler(Point))
    assert isinstance(plan, CompiledPlan)
    assert plan.fully_fused
    assert plan.fused_leaves == 2


def test_variable_length_field_splits_the_run():
    plan = plan_for(derive_bundler(Mixed))
    assert plan is not None and not plan.fully_fused
    kinds = [step[0] for step in plan.steps]
    assert kinds == ["fused", "field", "fused"]  # int | str | float,bool,enum


def test_nested_flat_record_splices_into_parent_run():
    plan = plan_for(derive_bundler(Nested))
    # p.x, p.y, q.x, q.y fuse into one struct; label stays interpreted.
    assert plan.fused_leaves == 4
    assert [step[0] for step in plan.steps] == ["fused", "field"]


def test_too_few_scalars_keeps_interpreted_bundler():
    @dataclasses.dataclass
    class OneScalar:
        n: int
        s: str

    bundler = derive_bundler(OneScalar)
    assert plan_for(bundler) is None
    value = OneScalar(4, "x")
    assert decode(bundler, encode(bundler, value)) == value


def test_keyword_only_dataclass_is_not_compiled():
    """kw_only fields break positional construction, so no fast path."""

    @dataclasses.dataclass(kw_only=True)
    class KwOnly:
        a: int
        b: int

    bundler = derive_bundler(KwOnly)
    assert plan_for(bundler) is None
    value = KwOnly(a=1, b=2)
    assert decode(bundler, encode(bundler, value)) == value


def test_user_registration_breaks_fusion():
    """§3.2 precedence: a user bundler for a field type must be called."""
    calls = []

    def traced_int(stream, value, *extra):
        calls.append("hit")
        return stream.xint(value)

    registry = BundlerRegistry()
    registry.add_resolver(structural_resolver)
    registry.register(int, traced_int)

    @dataclasses.dataclass
    class UserTyped:
        a: int
        b: int

    bundler = registry.bundler_for(UserTyped)
    assert plan_for(bundler) is None
    encode(bundler, UserTyped(1, 2))
    assert calls == ["hit", "hit"]


# -- error parity -------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    [
        Point(True, 2),          # bool in an int slot
        Point("a", 2),           # wrong type
        Point(2**80, 1),         # out of 64-bit range
    ],
)
def test_encode_errors_match_interpreted(bad):
    bundler = derive_bundler(Point)
    interpreted = bundler.interpreted
    outcomes = []
    for fn in (bundler, interpreted):
        try:
            outcomes.append(("ok", encode(fn, bad)))
        except (XdrError, BundleError) as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert outcomes[0] == outcomes[1]


def test_decode_underflow_matches_interpreted():
    bundler = derive_bundler(Point)
    interpreted = bundler.interpreted
    data = encode(bundler, Point(1, 2))[:10]
    for fn in (bundler, interpreted):
        with pytest.raises(XdrError):
            decode(fn, data)


def test_wrong_record_type_raises_bundle_error():
    bundler = derive_bundler(Point)
    with pytest.raises(BundleError, match="expected Point"):
        encode(bundler, "not a point")


def test_enum_wire_value_round_trips_and_rejects_unknown():
    bundler = derive_bundler(Mixed)
    interpreted = bundler.interpreted
    value = Mixed(1, "x", 2.0, False, Color.BLUE)
    data = encode(bundler, value)
    assert decode(bundler, data) == value
    # Corrupt the enum field (last 4 bytes) to a non-member value.
    bad = data[:-4] + (99).to_bytes(4, "big")
    for fn in (bundler, interpreted):
        with pytest.raises(XdrError):
            decode(fn, bad)


# -- fallback rewind ---------------------------------------------------------

def test_encode_fallback_leaves_stream_exactly_as_interpreted_would():
    """On failure the fast path rewinds its own bytes and replays the
    interpreted bundler, so stream state afterwards is byte-for-byte
    what a pure interpreted walk would have left (including the
    partial fields the interpreted path itself wrote before failing)."""
    bundler = derive_bundler(Point)
    interpreted = bundler.interpreted
    leftovers = []
    for fn in (bundler, interpreted):
        stream = XdrStream(XdrOp.ENCODE)
        try:
            stream.xstring("prefix")
            with pytest.raises(XdrError):
                fn(stream, Point(1, 2**90))
            leftovers.append(stream.getvalue())
        finally:
            stream.release()
    assert leftovers[0] == leftovers[1]


def test_decode_fallback_replays_from_same_offset():
    bundler = derive_bundler(Point)
    enc = XdrStream(XdrOp.ENCODE)
    try:
        enc.xstring("pre")
        bundler(enc, Point(5, 6))
        data = enc.getvalue()
    finally:
        enc.release()
    dec = XdrStream(XdrOp.DECODE, data)
    dec.xstring()
    assert bundler(dec, None) == Point(5, 6)
    dec.expect_exhausted()


# -- caching ------------------------------------------------------------------

def test_plans_are_cached_per_class_and_bundlers():
    b1 = derive_bundler(Reading)
    b2 = derive_bundler(Reading)
    assert plan_for(b1) is plan_for(b2)


# -- exact scalar classes -----------------------------------------------------

class Idx:
    """Defines only ``__index__``: ``struct`` packs it, the walk refuses it."""

    def __index__(self):
        return 3


class Flt:
    """Defines only ``__float__``."""

    def __float__(self):
        return 1.5


class Big(int):
    pass


def outcome(bundler, value):
    try:
        return "ok", encode(bundler, value)
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "value",
    [
        Point(Idx(), 4),                 # __index__ in an int slot
        Reading(1, 2, Flt(), 1.0),       # __float__ in a float slot
        Point(Big(3), 4),                # int subclass: the walk accepts it
        Reading(1, 2, 3, 1.0),           # int in a float slot: the walk accepts it
        Mixed(1, "x", 2.0, 1, Color.RED),  # int in a bool slot
    ],
)
def test_scalars_of_inexact_class_take_the_walk(value):
    bundler = derive_bundler(type(value))
    assert outcome(bundler, value) == outcome(bundler.interpreted, value)


def test_numpy_scalars_take_the_walk():
    np = pytest.importorskip("numpy")
    for value in (Point(np.int64(3), 4),                 # refused by the walk
                  Reading(1, 2, np.float32(1.5), 1.0),   # refused by the walk
                  Reading(1, 2, np.float64(1.5), 1.0)):  # a float subclass: accepted
        bundler = derive_bundler(type(value))
        assert outcome(bundler, value) == outcome(bundler.interpreted, value)


def test_index_and_float_likes_are_refused_like_the_walk():
    for value in (Point(Idx(), 4), Reading(1, 2, Flt(), 1.0)):
        with pytest.raises(XdrError, match="expected (int64|float), got"):
            encode(derive_bundler(type(value)), value)


class Tok:
    """A type only a user bundler knows."""


@dataclasses.dataclass
class R:
    t: Tok
    x: int
    y: int


def test_declined_record_runs_field_bundlers_once():
    """A record declined for a later scalar must not run an earlier field
    bundler twice: the walk it replays is the only run."""

    runs = []

    def tok_bundler(stream, value, *extra):
        runs.append(value)
        return stream.xint(7 if stream.encoding else None)

    registry = BundlerRegistry()
    registry.add_resolver(structural_resolver)
    registry.register(Tok, tok_bundler)
    bundler = registry.bundler_for(R)
    assert plan_for(bundler) is not None
    with pytest.raises(XdrError, match="expected int64, got bool"):
        encode(bundler, R(Tok(), 1, True))
    assert len(runs) == 1
    runs.clear()
    data = encode(bundler, R(Tok(), 1, 2))
    assert len(runs) == 1 and data == encode(bundler.interpreted, R(Tok(), 1, 2))


@dataclasses.dataclass
class RB:
    t: Tok
    x: int
    y: bool


def test_failed_decode_after_a_call_runs_the_field_bundler_once():
    """A wire value the generated decode refuses after a field bundler has
    run resumes the walk behind that field: the bundler is not rerun (an
    imported object or procedure pointer would be imported twice), and
    the error and stream position are the walk's."""
    runs = []

    def tok_bundler(stream, value, *extra):
        runs.append(stream.op)
        return stream.xint(7 if stream.encoding else None)

    registry = BundlerRegistry()
    registry.add_resolver(structural_resolver)
    registry.register(Tok, tok_bundler)
    bundler = registry.bundler_for(RB)
    assert plan_for(bundler) is not None
    data = bytearray(encode(bundler, RB(Tok(), 1, True)))
    data[-1] = 2  # the bool's wire value
    outcomes = []
    for fn in (bundler, bundler.interpreted):
        runs.clear()
        stream = XdrStream(XdrOp.DECODE, bytes(data))
        with pytest.raises(XdrError, match="invalid XDR boolean 2") as err:
            fn(stream, None)
        outcomes.append((str(err.value), stream.remaining(), len(runs)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][2] == 1


# -- sequences ----------------------------------------------------------------

@pytest.mark.parametrize("annotation", [list[Mixed], tuple[Nested, ...], list[list[Point]]])
def test_sequences_of_compiled_records_are_generated(annotation):
    bundler = derive_bundler(annotation)
    assert bundler.sequence[0] is typing.get_origin(annotation)
    rng = random.Random(7)
    element = typing.get_args(annotation)[0]
    for _ in range(20):
        if element == list[Point]:
            value = [[random_value(Point, rng) for _ in range(rng.randint(0, 3))]
                     for _ in range(rng.randint(0, 3))]
        else:
            value = [random_value(element, rng) for _ in range(rng.randint(0, 5))]
            if typing.get_origin(annotation) is tuple:
                value = tuple(value)
        data = encode(bundler, value)
        assert data == encode(bundler.interpreted, value)
        assert decode(bundler, data) == value


def test_sequence_of_records_that_call_bundlers_keeps_the_walk():
    bundler = derive_bundler(list[WithOptional])
    assert not hasattr(bundler, "sequence")
    value = [WithOptional(1, None, 2), WithOptional(3, 4, 5)]
    assert decode(bundler, encode(bundler, value)) == value


def test_generated_source_inlines_strings_and_loops():
    source = derive_bundler(list[Mixed]).source
    assert "for " in source and ".encode('utf-8')" in source
    assert "_interp(" in source  # the walk stays as the fallback
