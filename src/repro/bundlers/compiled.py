"""Compiled bundler plans: straight-line codecs generated per record.

The interpreted walk of :mod:`repro.bundlers.auto` costs several Python
calls per scalar.  The paper's compiler instead "generates a pair of
stubs" that bundle each parameter (§3.2, §3.4), as HAM fixes each
message's layout ahead of time.  This module stands in for it: for
each record plan, and for ``list[T]`` / ``tuple[T, ...]`` of an element
that inlines, it writes one bundler (an encode body and a decode body)
and builds it with ``exec``, as :mod:`dataclasses` does.  In it:

- consecutive fixed-size scalars (int/uint/hyper/uhyper/float/double/
  bool/short/enum, nested records' too) are one ``struct.Struct`` pack
  or unpack, and the length of a following string, opaque or
  sequence joins that run;
- canonical ``str`` and ``bytes`` fields are inlined as length, bytes
  and pad; nested compiled records are inlined;
- a sequence is a count followed by one loop over the element body;
- any other field calls its bundler from the generated line.

Correctness contract (tested in ``tests/test_bundlers``): the bytes
are those of the interpreted walk.  The generated code takes a scalar
only when its class is exactly the one the wire form expects
(``int``, ``float``, ``bool``, the enum); any value or wire input it
declines is rewound and replayed through the walk, so the exception
type and message and the stream position match too.  No field
bundler runs twice: a plan that calls field bundlers checks and writes
everything inline before the first call, and a decode that fails after
a call resumes the walk at the next field instead of replaying it.
Records that call bundlers are called, not inlined, inside others, so
every call sits in the plan being generated.  Only the
*canonical* filters are recognized, by function identity: a user
bundler registered for a field type is called, as §3.2 requires.
Generated bundlers are cached per (record class, field bundlers) and
per (container, element bundler).
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import keyword
import struct
from typing import Any, Callable, Iterator, NamedTuple, Optional

from repro.errors import BundleError
from repro.bundlers.base import Bundler
from repro.xdr import filters as _filters
from repro.xdr.stream import _PAD, XdrOp

_INT16_MIN, _INT16_MAX = -(2**15), 2**15 - 1
_INT32_MIN, _INT32_MAX = -(2**31), 2**31 - 1


class _Reject(Exception):
    """Internal: the generated code declines; replay the interpreted walk."""


# -- recognition --------------------------------------------------------------

#: Canonical fixed-size filters → (struct format char, leaf kind).
_PRIMITIVE_FORMATS: dict[Callable, tuple[str, str]] = {
    _filters.xint: ("i", "int"),
    _filters.xuint: ("I", "int"),
    _filters.xhyper: ("q", "int"),
    _filters.xuhyper: ("Q", "int"),
    _filters.xfloat: ("f", "float"),
    _filters.xdouble: ("d", "float"),
    _filters.xbool: ("i", "bool"),
    _filters.xshort: ("i", "short"),
}

#: The exact class a scalar must have for the generated code to take
#: it.  ``struct`` would also pack subclasses and ``__index__`` or
#: ``__float__`` objects, some of which the walk refuses.
_EXACT_CLASS = {"int": "int", "short": "int", "float": "float", "bool": "bool"}


class _Leaf(NamedTuple):
    """One fused scalar: its struct code and how to check/convert it."""

    fmt: str
    kind: str                       # int | float | bool | short | enum
    enum_cls: Optional[type] = None


def _leaf_for(bundler: Bundler) -> Optional[_Leaf]:
    """Recognize one field bundler as a fused scalar, or None."""
    spec = _PRIMITIVE_FORMATS.get(getattr(bundler, "filter_fn", bundler))
    if spec is not None:
        return _Leaf(*spec)
    enum_cls = getattr(bundler, "enum_cls", None)
    if isinstance(enum_cls, type) and issubclass(enum_cls, enum.Enum):
        return _Leaf("i", "enum", enum_cls)
    return None


def _node(bundler: Bundler) -> tuple:
    """What the generator does with one bundler.

    ``("scalar", leaf)``, ``("bytes", is_str)``, ``("record", plan)`` and
    ``("seq", container, element_node)`` are inlined; ``("call",
    bundler)`` is called from the generated line.
    """
    leaf = _leaf_for(bundler)
    if leaf is not None:
        return ("scalar", leaf)
    fn = getattr(bundler, "filter_fn", None)
    if fn is _filters.xstring or fn is _filters.xopaque:
        return ("bytes", fn is _filters.xstring)
    plan = plan_for(bundler)
    if plan is not None and plan.pure:
        return ("record", plan)
    sequence = getattr(bundler, "sequence", None)
    return ("seq",) + sequence if sequence is not None else ("call", bundler)


def _pure(node: tuple) -> bool:
    """True when ``node`` inlines entirely: no bundler call anywhere."""
    return node[0] != "call"


class CompiledPlan:
    """The compiled layout of one record class."""

    def __init__(self, cls: type, field_bundlers: list[tuple[str, Bundler]]):
        self.cls = cls
        self.bundlers = [bundler for _name, bundler in field_bundlers]
        #: (field name, generator node) in declaration order.
        self.nodes = [(name, _node(bundler)) for name, bundler in field_bundlers]
        self.pure = all(_pure(node) for _name, node in self.nodes)
        #: ("fused", leaves) for each run of scalars, nested fully fused
        #: records spliced in, and ("field", name, bundler) for the rest.
        self.steps: list = []
        run: list[_Leaf] = []
        for (name, bundler), (_name, node) in zip(field_bundlers, self.nodes):
            if node[0] == "scalar":
                run.append(node[1])
            elif node[0] == "record" and node[1].fully_fused:
                run.extend(node[1].steps[0][1])
            else:
                if run:
                    self.steps.append(("fused", run))
                    run = []
                self.steps.append(("field", name, bundler))
        if run:
            self.steps.append(("fused", run))

    @property
    def fused_leaves(self) -> int:
        return sum(len(s[1]) for s in self.steps if s[0] == "fused")

    @property
    def fully_fused(self) -> bool:
        """True when the whole record is one run of scalars."""
        return len(self.steps) == 1 and self.steps[0][0] == "fused"

    def describe(self) -> str:
        """Human-readable plan, e.g. ``Mixed: fused[>q] + bytes[name] + fused[>dii]``."""
        parts = [f"fused[>{''.join(leaf.fmt for leaf in s[1])}]" if s[0] == "fused"
                 else f"{_node(s[2])[0]}[{s[1]}]" for s in self.steps]
        return f"{self.cls.__name__}: " + " + ".join(parts)


def _constructible_positionally(cls: type) -> bool:
    """True when ``cls(*field_values_in_order)`` equals ``cls(**kwargs)``
    and every field name can be written as an attribute in source."""
    try:
        fields = dataclasses.fields(cls)
    except TypeError:
        return False
    return all(f.init and not getattr(f, "kw_only", False)
               and f.name.isidentifier() and not keyword.iskeyword(f.name)
               for f in fields)


# -- the code generator -------------------------------------------------------

#: The shape of every generated bundler; the bodies are indented to fit.
#: Encode declines by raising inside ``try``: the buffer is cut back to
#: ``mark`` and the walk replays.  A plan that calls field bundlers
#: writes its inline bytes to a private ``buf`` first, then splices them
#: around the calls (``{calls}``).  Decode rewinds ``pos`` the same way
#: until a field bundler has run (``at`` counts the fields before the
#: last call); after that, ``{rescue}`` resumes the walk at field ``at``.
_TEMPLATE = """\
def bundler(stream, v, *extra):
    if stream._op is _ENCODE:
        buf = {buffer}
        mark = len(buf)
        maxlen = stream._max_length
        try:
{encode}
        except Exception:
            del buf[mark:]
            return _interp(stream, v, *extra)
{calls}
        return {returns}
    view = stream._view
    vlen = len(view)
    maxlen = stream._max_length
    pos = start = stream._pos
    try:
{decode}
    except BundleError:
        raise
    except Exception:
{rescue}
    stream._pos = pos
    return {result}
"""


class _Codegen:
    """Writes the bodies of one bundler function and the names they use.

    Scalars accumulate in ``run`` until something variable-length (a
    byte body, a loop, a call) or the end closes it: then the run is
    one ``pack`` (its checks first) or one ``unpack_from`` (its
    conversions, and any line that needs them, after).
    """

    def __init__(self, interpreted: Bundler):
        self.ns: dict[str, Any] = {"_Reject": _Reject, "_ENCODE": XdrOp.ENCODE, "_PAD": _PAD,
                                   "_B": {0: False, 1: True}, "_interp": interpreted,
                                   "BundleError": BundleError}
        self.names: dict[int, str] = {}
        self.lines: list[str] = []
        self.depth = 3
        self.count = 0
        self.run: list[tuple[str, str]] = []  # (struct code, local name)
        self.checks: list[str] = []           # encode: conditions that decline
        self.post: list[str] = []             # decode: lines after the unpack
        self.calls: list[tuple[str, str, str]] = []  # encode: (offset, bundler, value)
        self.resumes: list[tuple[int, str]] = []  # decode: (at, the walk's rest)

    def local(self, prefix: str = "t") -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def const(self, obj: Any) -> str:
        name = self.names.get(id(obj))
        if name is None:
            name = self.names[id(obj)] = f"_k{len(self.names)}"
            self.ns[name] = obj
        return name

    def emit(self, *lines: str) -> None:
        self.lines.extend("    " * self.depth + line for line in lines)

    def later(self, line: str) -> None:
        """Emit ``line`` once the pending run's values exist."""
        (self.post.append if self.run else self.emit)(line)

    @contextlib.contextmanager
    def block(self, header: str) -> Iterator[None]:
        self.emit(header)
        self.depth += 1
        yield
        self.depth -= 1

    def flush_encode(self) -> None:
        if self.run:
            if self.checks:
                self.emit(f"if {' or '.join(self.checks)}: raise _Reject")
            packer = self.const(struct.Struct(">" + "".join(f for f, _ in self.run)))
            self.emit(f"buf += {packer}.pack({', '.join(x for _, x in self.run)})")
            self.run.clear()
            self.checks.clear()

    def encode(self, node: tuple, x: str) -> None:
        """Check ``x`` (a local) against ``node`` and write it to ``buf``."""
        kind = node[0]
        if kind == "scalar":
            leaf = node[1]
            if leaf.kind == "enum":
                values = {m: m.value for m in leaf.enum_cls
                          if m.value.__class__ is int and _INT32_MIN <= m.value <= _INT32_MAX}
                self.emit(f"if {x}.__class__ is not {self.const(leaf.enum_cls)}: raise _Reject",
                          f"{x} = {self.const(values)}[{x}]")
            else:
                self.checks.append(f"{x}.__class__ is not {_EXACT_CLASS[leaf.kind]}")
                if leaf.kind == "short":
                    self.checks.append(f"not {_INT16_MIN} <= {x} <= {_INT16_MAX}")
            self.run.append((leaf.fmt, x))
        elif kind == "bytes":
            n, data = self.local("n"), self.local("b") if node[1] else x
            if node[1]:
                self.emit(f"if {x}.__class__ is not str: raise _Reject",
                          f"{data} = {x}.encode('utf-8')")
            else:
                self.emit(f"if {x}.__class__ is not bytes and {x}.__class__ is not bytearray:"
                          " raise _Reject")
            self.emit(f"{n} = len({data})", f"if {n} > maxlen: raise _Reject")
            self.run.append(("I", n))
            self.flush_encode()
            self.emit(f"buf += {data}", f"buf += _PAD[{n} & 3]")
        elif kind == "record":
            self.emit(f"if {x}.__class__ is not {self.const(node[1].cls)}: raise _Reject")
            for name, sub in node[1].nodes:
                y = self.local()
                self.emit(f"{y} = {x}.{name}")
                self.encode(sub, y)
        elif kind == "seq":
            n, e = self.local("n"), self.local("e")
            self.emit(f"if {x}.__class__ is not list and {x}.__class__ is not tuple:"
                      " raise _Reject", f"{n} = len({x})")
            self.run.append(("I", n))
            self.flush_encode()
            with self.block(f"for {e} in {x}:"):
                self.encode(node[2], e)
                self.flush_encode()
        else:
            # The bundler runs after every inline part is checked and
            # written; note the offset it will write at.
            self.flush_encode()
            offset = self.local("o")
            self.emit(f"{offset} = len(buf)")
            self.calls.append((offset, self.const(node[1]), x))

    def flush_decode(self) -> None:
        if self.run:
            unpacker = struct.Struct(">" + "".join(f for f, _ in self.run))
            self.emit(f"{', '.join(x for _, x in self.run)}, = "
                      f"{self.const(unpacker)}.unpack_from(view, pos)",
                      f"pos += {unpacker.size}")
            self.run.clear()
        self.emit(*self.post)
        self.post.clear()

    def decode(self, node: tuple) -> str:
        """Read one ``node``; returns the local that will hold its value."""
        kind = node[0]
        x = self.local()
        if kind == "scalar":
            leaf = node[1]
            self.run.append((leaf.fmt, x))
            if leaf.kind == "bool":
                self.post.append(f"{x} = _B[{x}]")
            elif leaf.kind == "short":
                self.post.append(f"if not {_INT16_MIN} <= {x} <= {_INT16_MAX}: raise _Reject")
            elif leaf.kind == "enum":
                members = self.const({m.value: m for m in leaf.enum_cls})
                self.post.append(f"{x} = {members}[{x}]")
        elif kind == "bytes":
            n = self.local("n")
            self.run.append(("I", n))
            self.flush_decode()
            body = "str(view[pos:end], 'utf-8')" if node[1] else "bytes(view[pos:end])"
            self.emit(f"if {n} > maxlen: raise _Reject", f"end = pos + {n}", f"{x} = {body}",
                      f"pos = end + (-{n} & 3)",
                      f"if pos > vlen or {n} & 3 and view[end:pos] != _PAD[{n} & 3]:"
                      " raise _Reject")
        elif kind == "record":
            plan, args = node[1], []
            for index, (_name, sub) in enumerate(plan.nodes, 1):
                args.append(self.decode(sub))
                if sub[0] == "call":  # only in the top plan: nested ones are pure
                    rest = self.const(tuple(plan.bundlers[index:]))
                    self.emit("mark = pos", f"at = {index}")
                    self.resumes.append((index, f"{self.const(plan.cls)}({', '.join(args)}, "
                                                f"*[b(stream, None) for b in {rest}])"))
            self.later(f"{x} = {self.const(plan.cls)}({', '.join(args)})")
        elif kind == "seq":
            n = self.local("n")
            self.run.append(("I", n))
            self.flush_decode()
            self.emit(f"if {n} > maxlen: raise _Reject", f"{x} = []")
            with self.block(f"for _ in range({n}):"):
                self.later(f"{x}.append({self.decode(node[2])})")
                self.flush_decode()
            if node[1] is tuple:
                self.emit(f"{x} = tuple({x})")
        else:
            self.flush_decode()
            self.emit("stream._pos = pos", "at = -1", f"{x} = {self.const(node[1])}(stream, None)",
                      "pos = stream._pos")
        return x

    def build(self, node: tuple, name: str, returns: str) -> Bundler:
        """Generate, ``exec`` and label the bundler for ``node``."""
        self.encode(node, "v")
        self.flush_encode()
        encode, self.lines, self.depth = self.lines, [], 2
        if self.calls:
            self.emit("out = stream._buffer")
            start = ""
            for offset, bundler, value in self.calls:
                self.emit(f"out += buf[{start}:{offset}]", f"{bundler}(stream, {value})")
                start = offset
            self.emit(f"out += buf[{start}:]")
        calls, self.lines, self.depth = self.lines, [], 2
        result = self.decode(node)
        self.flush_decode()
        decode, self.lines = self.lines, []
        rescue = ["stream._pos = start", "return _interp(stream, None, *extra)"]
        if self.resumes:
            # A field bundler raising (at -1) is the walk raising; after
            # one has returned, the walk resumes behind it.
            decode.insert(0, "        at = 0")
            rescue = (["if at < 0: raise", "if at == 0:"] + ["    " + line for line in rescue]
                      + ["stream._pos = mark"]
                      + [f"if at == {at}: return {rest}" for at, rest in self.resumes])
        self.emit(*rescue)
        source = _TEMPLATE.format(
            buffer="bytearray()" if self.calls else "stream._buffer",
            encode="\n".join(encode), calls="\n".join(calls), returns=returns,
            decode="\n".join(decode), rescue="\n".join(self.lines), result=result)
        exec(compile(source, f"<compiled bundler {name}>", "exec"), self.ns)
        bundler = self.ns["bundler"]
        bundler.__name__ = name
        bundler.source = source
        bundler.interpreted = self.ns["_interp"]
        return bundler


# -- compilation --------------------------------------------------------------

_CACHE: dict[tuple, Optional[Bundler]] = {}


def _cached(key: tuple, make: Callable[[], Optional[Bundler]]) -> Optional[Bundler]:
    if key not in _CACHE:
        if len(_CACHE) >= 1024:
            _CACHE.clear()
        _CACHE[key] = make()
    return _CACHE[key]


def make_compiled_bundler(
    cls: type,
    field_bundlers: list[tuple[str, Bundler]],
    interpreted: Bundler,
) -> Optional[Bundler]:
    """The generated bundler for record ``cls``, or None when its plan
    fuses fewer than two scalars (the caller keeps ``interpreted``).

    ``field_bundlers`` are the bundlers the registry actually resolved,
    so a user registration for any field type is honoured.  The result
    exposes ``.plan`` (the :class:`CompiledPlan`), ``.interpreted`` (the
    walk it replays) and ``.source``.
    """
    def make() -> Optional[Bundler]:
        if not _constructible_positionally(cls):
            return None
        plan = CompiledPlan(cls, field_bundlers)
        if plan.fused_leaves < 2:
            return None
        bundler = _Codegen(interpreted).build(
            ("record", plan), f"compiled_struct_{cls.__name__}", "v")
        bundler.plan = plan
        return bundler

    return _cached((cls, *(bundler for _name, bundler in field_bundlers)), make)


def make_compiled_sequence(
    container: type, element: Bundler, interpreted: Bundler
) -> Optional[Bundler]:
    """The generated bundler for ``list[T]`` or ``tuple[T, ...]``, or None
    when the element does not inline (it calls a bundler somewhere)."""
    def make() -> Optional[Bundler]:
        node = _node(element)
        if not _pure(node):
            return None
        bundler = _Codegen(interpreted).build(
            ("seq", container, node), f"compiled_{container.__name__}",
            "list(v)" if container is list else "v")
        bundler.sequence = (container, node)
        return bundler

    return _cached((container, element), make)


def plan_for(bundler: Bundler) -> Optional[CompiledPlan]:
    """The compiled plan behind a derived bundler, if any (introspection)."""
    plan = getattr(bundler, "plan", None)
    return plan if isinstance(plan, CompiledPlan) else None
