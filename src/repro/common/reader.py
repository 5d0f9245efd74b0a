"""One reader for every section of a workload or sweep specification.

A section is read into a dataclass, and the dataclass is the field table:
its init fields are the keys, a field without a default is required, and
a field's annotation says how its value is coerced: ``int`` (integral,
never a bool), ``float`` (any number, never a bool), ``str``, ``bool``
(``true``/``false`` only), ``Optional[...]`` (``null`` allowed) and
``Tuple[<item>, ...]`` (a non-empty list, or one bare item). A section
passes a builder for any other field, or the value is taken as written.
Every failure, the class's own ``__post_init__`` included, is one
:class:`SpecError` reading ``"<path>: <message>"``, the path spelling the
key as the document does: ``workloads[0].client.behavior[0].load``.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Callable, Dict, Mapping, NoReturn, Optional, Tuple

from repro.common.errors import ReproError, SpecError

#: ``builder(value, path)`` returns what *value*, found at *path*, means
Builder = Callable[[Any, str], Any]

_EXPECTED = {"int": "an integer", "float": "a number", "str": "a string",
             "bool": "true or false"}


def fail(path: str, message: str) -> NoReturn:
    raise SpecError(f"{path}: {message}" if path else message)


def _described(value: Any) -> str:
    if isinstance(value, dict) and "__kind__" in value:
        return f"!{value['__kind__']}"
    return type(value).__name__


def mapping(raw: Any, path: str) -> Dict[Any, Any]:
    if not isinstance(raw, dict):
        fail(path, f"expected a mapping, got {_described(raw)}")
    return raw


def untag(raw: Any, path: str, kinds: Mapping[str, type]
          ) -> Tuple[type, Dict[str, Any]]:
    """The class *kinds* maps *raw*'s YAML tag to, and *raw*'s keys (a
    tagged node loads as a mapping holding its tag under ``__kind__``)."""
    if not isinstance(raw, dict) or raw.get("__kind__") not in kinds:
        expected = " or ".join(f"!{name}" for name in kinds)
        fail(path, f"expected {expected}, got {_described(raw)}")
    fields = {k: v for k, v in raw.items() if k != "__kind__"}
    return kinds[raw["__kind__"]], fields


def as_written(value: Any, path: str) -> Any:
    return value


def _scalar(kind: str) -> Builder:
    def build(value: Any, path: str) -> Any:
        number = (isinstance(value, (int, float))
                  and not isinstance(value, bool))
        if kind == "float" and number:
            return float(value)
        if kind == "int" and number and (isinstance(value, int)
                                         or value.is_integer()):
            return int(value)
        if kind in ("str", "bool") and type(value).__name__ == kind:
            return value
        raise TypeError(f"expected {_EXPECTED[kind]}, got {value!r}")
    return build


def coerce(builder: Builder, value: Any, path: str) -> Any:
    """``builder(value, path)``; a ValueError or TypeError fails at *path*."""
    try:
        return builder(value, path)
    except (ValueError, TypeError) as exc:
        message = str(exc)
    fail(path, message)


def each(builder: Builder) -> Builder:
    def build(value: Any, path: str) -> Tuple[Any, ...]:
        items = (value if isinstance(value, (list, tuple))
                 else [] if value is None else [value])
        if not items:
            fail(path, "expected a non-empty list")
        return tuple(coerce(builder, item, f"{path}[{index}]")
                     for index, item in enumerate(items))
    return build


def builder_for(kind: Any, custom: Optional[Builder] = None) -> Builder:
    """The builder for a value annotated *kind*; *custom*, when given,
    reads whatever is not an ``Optional``'s ``null``."""
    if callable(kind):
        return kind
    optional = re.fullmatch(r"Optional\[(.+)\]", kind)
    if optional:
        inner = builder_for(optional[1], custom)
        return lambda value, path: (None if value is None
                                    else inner(value, path))
    items = re.fullmatch(r"Tuple\[(.+), \.\.\.\]", kind)
    if custom is None and items:
        return each(builder_for(items[1]))
    if custom is None and kind in _EXPECTED:
        return _scalar(kind)
    return custom or as_written


def read_keys(raw: Any, path: str, required: Mapping[str, Builder],
              optional: Mapping[str, Builder]) -> Dict[Any, Any]:
    """Each key of the mapping *raw*, built; a key must be *required* or
    *optional*, and every *required* key must be there."""
    for key in mapping(raw, path):
        if key not in required and key not in optional:
            known = ", ".join(sorted({**required, **optional}))
            fail(_join(path, key), f"unknown key (expected one of: {known})")
    for key in required:
        if key not in raw:
            fail(_join(path, key), "missing required key")
    return {key: coerce(required.get(key) or optional[key], value,
                        _join(path, key)) for key, value in raw.items()}


def _join(path: str, key: Any) -> str:
    return f"{path}.{key}" if path else str(key)


def read_kwargs(cls: type, raw: Any, path: str, *,
                build: Optional[Mapping[str, Builder]] = None,
                alias: Optional[Mapping[str, str]] = None,
                omit: Tuple[str, ...] = (),
                extra: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """*raw* read as keyword arguments of the dataclass *cls*.

    ``build`` gives a field's builder (fields *cls* lacks are ignored),
    ``alias`` the key that spells a field, ``omit`` fields that are no
    key; ``extra`` adds keys (annotation or builder) for the caller.
    """
    alias = alias or {}
    required: Dict[str, Builder] = {}
    optional = {key: builder_for(kind) for key, kind in (extra or {}).items()}
    names = {}
    for field in dataclasses.fields(cls):
        if field.init and field.name not in omit:
            key = alias.get(field.name, field.name)
            names[key] = field.name
            has_default = (field.default is not dataclasses.MISSING or
                           field.default_factory is not dataclasses.MISSING)
            (optional if has_default else required)[key] = builder_for(
                field.type, (build or {}).get(field.name))
    values = read_keys(raw, path, required, optional)
    return {names.get(key, key): value for key, value in values.items()}


def construct(factory: Callable[..., Any], path: str, *args: Any,
              **kwargs: Any) -> Any:
    """``factory(*args, **kwargs)``, its errors failing at *path*."""
    try:
        return factory(*args, **kwargs)
    except (ValueError, TypeError, ReproError) as exc:
        message = str(exc)
    fail("" if message.startswith(path) else path, message)  # named already


def read(cls: type, raw: Any, path: str, **how: Any) -> Any:
    """*raw* read into the dataclass *cls* (*how* as for read_kwargs);
    ``partial(read, cls, **how)`` is the builder of a *cls* section."""
    return construct(cls, path, **read_kwargs(cls, raw, path, **how))


def read_events(raw: Any, path: str, kinds: Mapping[str, type],
                **how: Any) -> Tuple[Any, ...]:
    """A list of events (``null`` is none), each a mapping whose ``kind``
    names its class in *kinds*; ``nodes: [...]`` in place of a ``node``
    field expands to one event per node."""
    if raw is None:
        return ()
    if not isinstance(raw, (list, tuple)):
        fail(path, f"expected a list of events, got {_described(raw)}")
    events = []
    for index, entry in enumerate(raw):
        where = f"{path}[{index}]"
        entry = dict(mapping(entry, where))
        kind = entry.pop("kind", None)
        cls = kinds.get(kind) if isinstance(kind, str) else None
        if cls is None:
            fail(f"{where}.kind", "missing required key" if kind is None
                 else f"unknown kind {kind!r} (expected one of:"
                 f" {', '.join(kinds)})")
        node = {f.name: f for f in dataclasses.fields(cls)}.get("node")
        extra = {"kind": "str", **({"nodes": "Any"} if node else {})}
        entries = [entry]
        if node and "nodes" in entry:
            if "node" in entry:
                fail(f"{where}.nodes", "give 'node' or 'nodes', not both")
            read_node = builder_for(node.type,
                                    (how.get("build") or {}).get("node"))
            entries = [{**entry, "node": value} for value in each(read_node)(
                entry.pop("nodes"), f"{where}.nodes")]
        events.extend(read(cls, one, where, extra=extra, **how)
                      for one in entries)
    return tuple(events)
