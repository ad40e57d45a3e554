"""Automatic bundler derivation — "the compiler" (paper §3.1, §3.4).

"Because the C++ type system is rich, the compiler has sufficient
information to generate the stubs directly."  The Python type system
is just as rich at run time; this module derives bundlers
structurally:

==========================  ===============================================
annotation                  wire form
==========================  ===============================================
``bool/int/float/str/...``  the canonical XDR filter
``enum.Enum`` (int values)  XDR enum restricted to the member values
``@dataclass`` (no cycles)  fields in declaration order
``list[T]``                 variable-length XDR array
``tuple[A, B, C]``          fixed struct
``tuple[T, ...]``           variable-length XDR array
``Optional[T]`` / ``T|None``  XDR optional (the nullable pointer)
``dict[K, V]``              variable-length array of (K, V) pairs
==========================  ===============================================

*Recursive* dataclasses — the paper's "data structure containing
pointers" — are refused with :class:`BundleError`: "if the stub
generator is presented with a recursive data structure ... it has no
idea how much data to pass remotely" (§3.1).  Supply a user bundler,
or pick one of the two explicit strategies in
:mod:`repro.bundlers.pointer`.
"""

from __future__ import annotations

import dataclasses
import enum
import types
import typing
from typing import Any, Optional, Union

from repro.errors import BundleError
from repro.bundlers.base import Bundler, BundlerRegistry, default_registry
from repro.bundlers.compiled import make_compiled_bundler, make_compiled_sequence
from repro.xdr import XdrStream, xdr_filter_for
from repro.xdr.filters import Filter

#: Dataclass types currently being derived, for cycle detection.
_in_progress: set[type] = set()


def derive_bundler(annotation: Any, registry: BundlerRegistry | None = None) -> Bundler:
    """Derive (or look up) a bundler for a type annotation.

    Consults ``registry`` first so that typedef-registered and
    resolver-provided bundlers win for nested components too.
    """
    registry = registry or default_registry()
    return registry.bundler_for(annotation)


def structural_resolver(annotation: Any, registry: BundlerRegistry) -> Bundler | None:
    """Registry resolver performing the structural derivation above."""
    # -- primitives --------------------------------------------------------
    if annotation in (bool, int, float, str, bytes, type(None), None):
        if annotation is None:
            annotation = type(None)
        return _wrap_filter(xdr_filter_for(annotation))

    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)

    # -- Optional / unions --------------------------------------------------
    if origin in (Union, types.UnionType):
        non_none = [a for a in args if a is not type(None)]
        if len(non_none) == 1 and len(args) == 2:
            inner = registry.bundler_for(non_none[0])

            def optional_bundler(stream: XdrStream, value, *extra):
                return stream.xoptional(lambda st, v: inner(st, v, *extra), value)

            return optional_bundler
        raise BundleError(
            f"cannot bundle general union {annotation!r}; only Optional[T] is "
            f"automatic — write a user bundler for tagged unions"
        )

    # -- sequences -----------------------------------------------------------
    if origin is list and len(args) == 1:
        element = registry.bundler_for(args[0])

        def list_bundler(stream: XdrStream, value, *extra):
            return stream.xarray(lambda st, v: element(st, v, *extra), value)

        return make_compiled_sequence(list, element, list_bundler) or list_bundler

    if origin is tuple and args:
        if len(args) == 2 and args[1] is Ellipsis:
            element = registry.bundler_for(args[0])

            def var_tuple_bundler(stream: XdrStream, value, *extra):
                if stream.encoding:
                    stream.xarray(lambda st, v: element(st, v, *extra), list(value))
                    return value
                return tuple(stream.xarray(lambda st, v: element(st, v, *extra)))

            return make_compiled_sequence(tuple, element, var_tuple_bundler) or var_tuple_bundler

        element_bundlers = [registry.bundler_for(a) for a in args]

        def fixed_tuple_bundler(stream: XdrStream, value, *extra):
            if stream.encoding:
                if len(value) != len(element_bundlers):
                    raise BundleError(
                        f"tuple arity mismatch: annotation {annotation!r} "
                        f"vs value of length {len(value)}"
                    )
                for bundler, item in zip(element_bundlers, value):
                    bundler(stream, item)
                return value
            return tuple(bundler(stream, None) for bundler in element_bundlers)

        return fixed_tuple_bundler

    # -- mappings -----------------------------------------------------------
    if origin is dict and len(args) == 2:
        key_bundler = registry.bundler_for(args[0])
        value_bundler = registry.bundler_for(args[1])

        def pair_filter(stream: XdrStream, pair):
            if stream.encoding:
                key_bundler(stream, pair[0])
                value_bundler(stream, pair[1])
                return pair
            return (key_bundler(stream, None), value_bundler(stream, None))

        def dict_bundler(stream: XdrStream, value, *extra):
            if stream.encoding:
                stream.xarray(pair_filter, list(value.items()))
                return value
            return dict(stream.xarray(pair_filter))

        return dict_bundler

    # -- enums ----------------------------------------------------------------
    if isinstance(annotation, type) and issubclass(annotation, enum.Enum):
        return _enum_bundler(annotation)

    # -- dataclasses -----------------------------------------------------------
    if dataclasses.is_dataclass(annotation) and isinstance(annotation, type):
        return _dataclass_bundler(annotation, registry)

    return None


#: One wrapper per canonical filter, so the compiled-plan cache (keyed
#: by the resolved bundler objects) hits across registries and the
#: ``filter_fn`` identity check in :mod:`repro.bundlers.compiled` sees
#: a stable object.
_FILTER_WRAPPERS: dict[Filter, Bundler] = {}


def _wrap_filter(filter_fn: Filter) -> Bundler:
    """Adapt an XDR filter (which ignores extra args) to the bundler shape."""
    cached = _FILTER_WRAPPERS.get(filter_fn)
    if cached is not None:
        return cached

    def bundler(stream: XdrStream, value, *extra):
        return filter_fn(stream, value)

    bundler.__name__ = f"auto_{filter_fn.__name__}"
    bundler.filter_fn = filter_fn
    _FILTER_WRAPPERS[filter_fn] = bundler
    return bundler


_ENUM_BUNDLERS: dict[type, Bundler] = {}


def _enum_bundler(enum_cls: type[enum.Enum]) -> Bundler:
    cached = _ENUM_BUNDLERS.get(enum_cls)
    if cached is not None:
        return cached
    values = []
    for member in enum_cls:
        if not isinstance(member.value, int):
            raise BundleError(
                f"enum {enum_cls.__name__} has non-integer member "
                f"{member.name}={member.value!r}; write a user bundler"
            )
        values.append(member.value)
    allowed = tuple(values)

    def enum_bundler(stream: XdrStream, value, *extra):
        if stream.encoding:
            if not isinstance(value, enum_cls):
                raise BundleError(f"expected {enum_cls.__name__}, got {value!r}")
            stream.xenum(value.value, allowed=allowed)
            return value
        return enum_cls(stream.xenum(allowed=allowed))

    enum_bundler.__name__ = f"auto_enum_{enum_cls.__name__}"
    enum_bundler.enum_cls = enum_cls
    enum_bundler.allowed = allowed
    _ENUM_BUNDLERS[enum_cls] = enum_bundler
    return enum_bundler


def _dataclass_bundler(cls: type, registry: BundlerRegistry) -> Bundler:
    """Derive a struct bundler: fields in declaration order.

    Derivation of the field types happens eagerly so recursion is
    detected at derivation time, not at call time — matching the
    paper, where the *compiler* rejects what it cannot bundle.
    """
    if cls in _in_progress:
        raise BundleError(
            f"recursive data structure {cls.__name__}: automatic bundling "
            f"cannot tell how much data to pass (paper §3.1); specify a "
            f"bundler (see repro.bundlers.pointer for the two standard "
            f"pointer strategies)"
        )
    _in_progress.add(cls)
    try:
        hints = typing.get_type_hints(cls)
        field_bundlers = [
            (field.name, registry.bundler_for(hints[field.name]))
            for field in dataclasses.fields(cls)
        ]
    finally:
        _in_progress.discard(cls)

    def struct_bundler(stream: XdrStream, value, *extra):
        if stream.encoding:
            if not isinstance(value, cls):
                raise BundleError(f"expected {cls.__name__}, got {value!r}")
            for name, bundler in field_bundlers:
                bundler(stream, getattr(value, name))
            return value
        kwargs = {name: bundler(stream, None) for name, bundler in field_bundlers}
        return cls(**kwargs)

    struct_bundler.__name__ = f"auto_struct_{cls.__name__}"

    # Generate straight-line code from the field plan (see
    # repro.bundlers.compiled).  Falls back to struct_bundler when fewer
    # than two scalars fuse; the generated bundler itself replays
    # struct_bundler for anything it declines.
    compiled = make_compiled_bundler(cls, field_bundlers, struct_bundler)
    return compiled if compiled is not None else struct_bundler
