"""Property tests: automatic bundling round-trips arbitrary composite data.

A recursive hypothesis strategy builds random (annotation, value)
pairs over the full derivable grammar — primitives, Optionals, lists,
fixed tuples, variable tuples, dicts, and dataclass structs — and
checks that the derived bundler round-trips every one.  This is "the
compiler can handle the primitive data types and data structures
without pointers" (§3.1) tested over the whole space rather than
hand-picked examples.

The same grammar checks the generated codecs of
:mod:`repro.bundlers.compiled` against the interpreted walk they
replace: same bytes, same values, and for corrupted values or wire
bytes the same exception type and message, the same stream state, and
the same number of runs of a user bundler.
"""

import dataclasses
import enum
from dataclasses import dataclass
from typing import Optional
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.bundlers import BundlerRegistry
from repro.bundlers.auto import structural_resolver
from repro.xdr import XdrStream


@dataclass
class Pair:
    first: int
    second: str


@dataclass
class Nested:
    label: str
    inner: Pair
    flag: bool


@dataclass
class Sample:
    """The field kinds of the benchmark's ``Reading``: ints, floats, a bool, a str."""

    station: int
    seq: int
    at: float
    value: float
    valid: bool
    unit: str


class Shade(enum.Enum):
    DARK = 1
    LIGHT = 2


@dataclass
class Swatch:
    """Two scalars and an enum around a field that calls its bundler."""

    shade: Shade
    weight: int
    note: Optional[int]
    scale: float
    tags: list[str]


class Token:
    """A type only a user bundler knows, as an object handle would be."""

    def __init__(self, value: int):
        self.value = value

    def __eq__(self, other):
        return isinstance(other, Token) and other.value == self.value

    def __repr__(self):
        return f"Token({self.value})"


#: One entry per run of :func:`token_bundler`.
TOKEN_RUNS: list = []


def token_bundler(stream, value, *extra):
    TOKEN_RUNS.append(stream.op)
    if stream.encoding:
        return stream.xint(value.value)
    return Token(stream.xint())


@dataclass
class Ticket:
    """A user-bundled field, then scalars the generated code reads after it."""

    token: Token
    count: int
    open: bool


@dataclass
class Envelope:
    """A record that calls bundlers, nested in another with scalars around it."""

    weight: int
    ticket: Ticket
    sealed: bool


def fresh_registry():
    registry = BundlerRegistry()
    registry.add_resolver(structural_resolver)
    registry.register(Token, token_bundler)
    return registry


def interpreted_bundler(annotation):
    """Derive ``annotation`` with every generated codec left out: the walk."""
    with mock.patch.multiple("repro.bundlers.auto",
                             make_compiled_bundler=lambda *args: None,
                             make_compiled_sequence=lambda *args: None):
        return fresh_registry().bundler_for(annotation)


# -- recursive (annotation, value-strategy) pairs ---------------------------------

ints = st.integers(min_value=-(2**62), max_value=2**62)
floats = st.floats(allow_nan=False, allow_infinity=False)
tokens = st.builds(Token, st.integers(-(2**31), 2**31 - 1))
tickets = st.builds(Ticket, token=tokens, count=ints, open=st.booleans())
base_types = st.sampled_from(
    [
        (int, ints),
        (bool, st.booleans()),
        (str, st.text(max_size=32)),
        (bytes, st.binary(max_size=32)),
        (float, floats),
        (Pair, st.builds(Pair, first=ints, second=st.text(max_size=16))),
        (
            Sample,
            st.builds(Sample, station=ints, seq=ints, at=floats, value=floats,
                      valid=st.booleans(), unit=st.text(max_size=6)),
        ),
        (
            Swatch,
            st.builds(Swatch, shade=st.sampled_from(Shade), weight=ints,
                      note=st.one_of(st.none(), ints), scale=floats,
                      tags=st.lists(st.text(max_size=3), max_size=3)),
        ),
        (Token, tokens),
        (Ticket, tickets),
        (Envelope, st.builds(Envelope, weight=ints, ticket=tickets, sealed=st.booleans())),
        (
            Nested,
            st.builds(
                Nested,
                label=st.text(max_size=8),
                inner=st.builds(Pair, first=ints, second=st.text(max_size=8)),
                flag=st.booleans(),
            ),
        ),
    ]
)


def compose(children):
    def make_list(child):
        annotation, values = child
        return (list[annotation], st.lists(values, max_size=4))

    def make_optional(child):
        annotation, values = child
        return (annotation | None, st.one_of(st.none(), values))

    def make_var_tuple(child):
        annotation, values = child
        return (tuple[annotation, ...], st.lists(values, max_size=4).map(tuple))

    def make_pair_tuple(child):
        annotation, values = child
        return (tuple[annotation, annotation], st.tuples(values, values))

    def make_dict(child):
        annotation, values = child
        return (
            dict[str, annotation],
            st.dictionaries(st.text(max_size=6), values, max_size=3),
        )

    return st.one_of(
        children.map(make_list),
        children.map(make_var_tuple),
        children.map(make_optional),
        children.map(make_pair_tuple),
        children.map(make_dict),
    )


typed_values = st.recursive(base_types, compose, max_leaves=6).flatmap(
    lambda pair: st.tuples(st.just(pair[0]), pair[1])
)


@given(typed_values)
@settings(max_examples=200, deadline=None)
def test_derived_bundler_roundtrips(typed_value):
    annotation, value = typed_value
    registry = fresh_registry()
    bundler = registry.bundler_for(annotation)
    enc = XdrStream.encoder()
    bundler(enc, value)
    dec = XdrStream.decoder(enc.getvalue())
    result = bundler(dec, None)
    dec.expect_exhausted()
    assert result == value


@given(typed_values, typed_values)
@settings(max_examples=50, deadline=None)
def test_concatenated_bundles_decode_in_order(a, b):
    """Two bundled parameters share one stream, as in a request payload."""
    registry = fresh_registry()
    bundler_a = registry.bundler_for(a[0])
    bundler_b = registry.bundler_for(b[0])
    enc = XdrStream.encoder()
    bundler_a(enc, a[1])
    bundler_b(enc, b[1])
    dec = XdrStream.decoder(enc.getvalue())
    assert bundler_a(dec, None) == a[1]
    assert bundler_b(dec, None) == b[1]
    dec.expect_exhausted()


# -- generated codecs ≡ the interpreted walk ------------------------------------


class Idx:
    """An int-like that is not an int: ``struct`` packs it, the walk refuses it."""

    def __index__(self):
        return 3


class Flt:
    """A float-like that is not a float."""

    def __float__(self):
        return 1.5


#: Values that are wrong, or of an inexact class, for some wire form.
wrong_leaves = st.sampled_from(
    [None, True, 7, 2**70, -1.5, "s", "\ud800", b"b", Idx(), Flt(), [1], Shade.DARK]
)


def corrupt(value, draw):
    """``value`` with one leaf, picked by ``draw``, replaced by a wrong one."""
    if dataclasses.is_dataclass(value):
        field = draw(st.sampled_from(dataclasses.fields(value)))
        inner = corrupt(getattr(value, field.name), draw)
        return dataclasses.replace(value, **{field.name: inner})
    if isinstance(value, (list, tuple)) and value and draw(st.booleans()):
        index = draw(st.integers(0, len(value) - 1))
        items = list(value)
        items[index] = corrupt(items[index], draw)
        return type(value)(items)
    if isinstance(value, dict) and value and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(value)))
        return {**value, key: corrupt(value[key], draw)}
    return draw(wrong_leaves)


def encode_outcome(bundler, value):
    """(result or exception, bytes on the stream, user bundler runs) after one encode."""
    TOKEN_RUNS.clear()
    stream = XdrStream.encoder()
    try:
        stream.xuint(0xC0DE)
        try:
            bundler(stream, value)
            result = "ok"
        except Exception as exc:
            result = (type(exc), str(exc))
        return result, stream.getvalue(), len(TOKEN_RUNS)
    finally:
        stream.release()


def decode_outcome(bundler, data):
    """(repr of value or exception, bytes left, user bundler runs) after one decode."""
    TOKEN_RUNS.clear()
    stream = XdrStream.decoder(data)
    try:
        result = repr(bundler(stream, None))
    except Exception as exc:
        result = (type(exc), str(exc))
    return result, stream.remaining(), len(TOKEN_RUNS)


@given(typed_values, st.data())
@settings(deadline=None)
def test_generated_codecs_match_the_walk(typed_value, data):
    annotation, value = typed_value
    generated = fresh_registry().bundler_for(annotation)
    walk = interpreted_bundler(annotation)

    wire = encode_outcome(walk, value)
    assert encode_outcome(generated, value) == wire
    bad = corrupt(value, data.draw)
    assert encode_outcome(generated, bad) == encode_outcome(walk, bad)

    payload = wire[1][4:]
    cut = data.draw(st.integers(0, len(payload)))
    flips = data.draw(st.lists(st.tuples(st.integers(0, max(len(payload) - 1, 0)),
                                         st.integers(1, 255)), max_size=3))
    mutated = bytearray(payload)
    for at, mask in flips:
        if at < len(mutated):
            mutated[at] ^= mask
    for candidate in (payload, payload[:cut], bytes(mutated)):
        assert decode_outcome(generated, candidate) == decode_outcome(walk, candidate)


samples = st.builds(Sample, station=ints, seq=ints, at=floats, value=floats,
                    valid=st.booleans(), unit=st.text(max_size=6))


@given(st.lists(samples, min_size=1, max_size=4), st.data())
@settings(deadline=None)
def test_sample_with_one_wrong_field_matches_the_walk(readings, data):
    """Every field of a ``Reading``-shaped record, alone and in a list,
    against every wrong or inexact leaf."""
    index = data.draw(st.integers(0, len(readings) - 1))
    field = data.draw(st.sampled_from(dataclasses.fields(Sample)))
    bad = dataclasses.replace(readings[index], **{field.name: data.draw(wrong_leaves)})
    for annotation, value in ((Sample, bad), (list[Sample], readings[:index] + [bad])):
        generated = fresh_registry().bundler_for(annotation)
        walk = interpreted_bundler(annotation)
        assert encode_outcome(generated, value) == encode_outcome(walk, value)
