"""Generic JSON encoding of OCAL expressions.

One tagged-tree codec shared by everything that persists programs — the
conformance corpus (counterexample files), the plan documents of the
:mod:`repro.api` front door, and the serving stack's content-addressed
stores (:mod:`repro.service`).  Node objects become
``{"__node__": "For", ...fields...}``, tuples become
``{"__tuple__": [...]}`` (JSON has no tuple type and lambda patterns
need real tuples back), frozensets become ``{"__frozenset__": [...]}``
with deterministically ordered members (the service digests encoded
documents, so equal values must encode byte-identically), annotated
types and symbolic expressions (the payload of ``SizeAnnot``) get their
own tags, everything else must be a JSON scalar.

The encoding is generic over the AST/annotation dataclasses, so new
node, annotation, or expression types serialize without touching this
module.
"""

from __future__ import annotations

import json
from fractions import Fraction

from . import ast as ast_module
from .ast import Node, field_names

__all__ = ["node_to_json", "node_from_json", "encode_value", "decode_value"]


def _tagged(tag: str, value) -> dict:
    out: dict = {tag: type(value).__name__}
    for name in field_names(type(value)):
        out[name] = encode_value(getattr(value, name))
    return out


def _untagged(registry_module, tag: str, base: type, data: dict):
    name = data.get(tag)
    cls = getattr(registry_module, name, None) if name is not None else None
    if cls is None or not (isinstance(cls, type) and issubclass(cls, base)):
        raise ValueError(f"document names unknown {base.__name__} {name!r}")
    kwargs = {
        key: decode_value(value) for key, value in data.items() if key != tag
    }
    return cls(**kwargs)


def encode_value(value):
    """Encode a node, annotation, tuple, list, or scalar into JSON data."""
    from ..cost import annotated as annot_module
    from ..symbolic import expr as expr_module

    if isinstance(value, Node):
        return node_to_json(value)
    if isinstance(value, annot_module.Annot):
        return _tagged("__annot__", value)
    if isinstance(value, expr_module.Expr):
        return _tagged("__expr__", value)
    if isinstance(value, Fraction):
        return {"__fraction__": f"{value.numerator}/{value.denominator}"}
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(item) for item in value]}
    if isinstance(value, frozenset):
        # Sets have no order; sort by the canonical dump of the encoded
        # members so equal sets always encode identically.
        members = [encode_value(item) for item in value]
        members.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__frozenset__": members}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize {value!r} into a JSON document")


def decode_value(value):
    """Inverse of :func:`encode_value`."""
    from ..cost import annotated as annot_module
    from ..symbolic import expr as expr_module

    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(decode_value(item) for item in value["__tuple__"])
        if "__frozenset__" in value:
            return frozenset(
                decode_value(item) for item in value["__frozenset__"]
            )
        if "__fraction__" in value:
            return Fraction(value["__fraction__"])
        if "__annot__" in value:
            return _untagged(
                annot_module, "__annot__", annot_module.Annot, value
            )
        if "__expr__" in value:
            return _untagged(
                expr_module, "__expr__", expr_module.Expr, value
            )
        return node_from_json(value)
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    return value


def node_to_json(node: Node) -> dict:
    """Encode an OCAL expression as a tagged JSON tree."""
    return _tagged("__node__", node)


def node_from_json(data: dict) -> Node:
    """Decode a tagged JSON tree back into an OCAL expression."""
    return _untagged(ast_module, "__node__", Node, data)
