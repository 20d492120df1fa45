"""Abstract syntax of OCAL (Section 3 of the paper).

The core language is Monad Calculus on lists extended with ``foldL``:
variables, constants, lambda abstraction (with tuple patterns, as in
``λ⟨a, x⟩.e``), application, tuple construction/projection, singleton
lists, ``if-then-else``, primitive functions, ``flatMap`` and ``foldL``.

On top of the core, the definitions of Figure 2 that transformation rules
need to pattern-match on are *first-class AST nodes*: the blocked ``for``
loop, ``treeFold[k]``, ``unfoldR``, ``funcPow[k]``, hash partitioning, and
the named builtins (``head``, ``tail``, ``length``, ``avg``, ``mrg``,
``zip``).  Each such node can be expanded to the base language (see
:mod:`repro.ocal.definitions`) — definitions do not add expressive power,
only efficiency, exactly as the paper prescribes.

Block sizes (``k1``, ``k2``, …) may be concrete integers or *named
parameters* (strings); named parameters are what the non-linear optimizer
tunes after synthesis.

All nodes are frozen dataclasses: immutable, hashable, structurally
comparable — which is what the search strategies use for dedup.  Two
performance refinements keep dedup cheap on large search spaces
(DESIGN.md §6):

* **cached structural hashes** — the first ``hash(node)`` walks the tree
  once and memoizes the result on the instance, so ``seen``-set
  membership stops re-hashing whole trees on every probe;
* **hash-consing** — :func:`intern_node` returns one canonical instance
  per structural identity.  Interned trees share subtrees, which makes
  equality checks between distinct programs short-circuit on object
  identity (tuple comparison inside the generated ``__eq__`` applies the
  ``is`` fast path per field).

:func:`node_size` (cached node count) and :func:`node_key` (a cheap
``(hash, size, head)`` triple) give strategies an O(1) summary of a tree
without retraversal.  :func:`free_vars` and :func:`block_param_order`
are memoized on the instance the same way, and every generic walker
iterates the per-class :data:`CHILD_FIELDS` table instead of asking
``dataclasses.fields`` per node (DESIGN.md §6.1).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import typing
from dataclasses import dataclass
from typing import Callable, Iterator, Union

__all__ = [
    "Node",
    "Pattern",
    "BlockSize",
    "Var",
    "Lit",
    "Lam",
    "App",
    "Tup",
    "Proj",
    "Sing",
    "Empty",
    "Concat",
    "If",
    "Prim",
    "FlatMap",
    "FoldL",
    "For",
    "TreeFold",
    "UnfoldR",
    "FuncPow",
    "Builtin",
    "HashPartition",
    "SizeAnnot",
    "PRIM_OPS",
    "BUILTIN_NAMES",
    "pattern_names",
    "free_vars",
    "substitute",
    "fresh_name",
    "map_children",
    "children",
    "walk",
    "child_steps",
    "field_names",
    "CHILD_FIELDS",
    "PARAM_FIELDS",
    "node_count",
    "node_size",
    "node_key",
    "intern_node",
    "intern_pool_size",
    "clear_intern_pool",
    "block_params",
    "block_param_order",
    "PositionPath",
    "PositionStep",
    "format_path",
    "node_at",
]

#: Lambda patterns: a plain name or a (possibly nested) tuple of patterns.
Pattern = Union[str, tuple]

#: One step of an AST position path: the dataclass field name plus the
#: tuple index for tuple-of-node fields (``None`` for scalar fields).
#: This is the same format :mod:`repro.rules.engine` records on each
#: :class:`~repro.rules.base.Rewrite`.
PositionStep = tuple[str, Union[int, None]]

#: A position path: steps from the program root down to one subexpression.
PositionPath = tuple[PositionStep, ...]

#: Block sizes: a concrete integer or the name of a tunable parameter.
BlockSize = Union[int, str]

#: Primitive functions p with IType(p) → OType(p) (Section 3): boolean
#: connectives, comparisons on D, arithmetic, and a stable hash used by
#: hash partitioning.
PRIM_OPS = frozenset(
    {
        "and", "or", "not",
        "==", "!=", "<=", ">=", "<", ">",
        "+", "-", "*", "/", "mod",
        "min2", "max2",
        "hash",
    }
)

#: Named builtins (Figure 2 definitions without structural parameters).
BUILTIN_NAMES = frozenset({"head", "tail", "length", "avg", "mrg", "zip"})


class Node:
    """Base class for OCAL expressions.

    The four base slots back the lazy per-instance caches (structural
    hash, subtree size, free variables, block-parameter order);
    subclasses add their field slots on top.  All are written via
    ``object.__setattr__`` because every node class is frozen, and none
    is a dataclass field, so ``dataclasses.replace``, equality and
    pickling never see them.
    """

    __slots__ = ("_hash", "_size", "_free", "_params")
    _hash: int
    _size: int
    _free: frozenset[str]
    _params: tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - delegates to printer
        from .printer import pretty

        return pretty(self)


@dataclass(frozen=True, slots=True)
class Var(Node):
    """A variable reference."""

    name: str


@dataclass(frozen=True, slots=True)
class Lit(Node):
    """A constant of an atomic type (int, bool or str)."""

    value: object

    def __post_init__(self) -> None:
        if not isinstance(self.value, (int, bool, str)):
            raise TypeError(f"OCAL literals are atomic values, got {self.value!r}")

    # Python's ``False == 0`` / ``True == 1`` would let hash-consing
    # conflate Bool and Int literals (``intern_node(Lit(False))``
    # returning a pooled ``Lit(0)``), silently changing a program's
    # type.  Equality and hash therefore include the value's kind.
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is not Lit:
            return NotImplemented
        return (
            self.value == other.value
            and isinstance(self.value, bool) == isinstance(other.value, bool)
        )

    def __hash__(self) -> int:
        return hash(("Lit", isinstance(self.value, bool), self.value))


@dataclass(frozen=True, slots=True)
class Lam(Node):
    """λpattern.body — abstraction with tuple-pattern binding."""

    pattern: Pattern
    body: Node


@dataclass(frozen=True, slots=True)
class App(Node):
    """Function application e1 e2."""

    fn: Node
    arg: Node


@dataclass(frozen=True, slots=True)
class Tup(Node):
    """⟨e1, …, en⟩ — tuple construction."""

    items: tuple[Node, ...]


@dataclass(frozen=True, slots=True)
class Proj(Node):
    """e.i — 1-based tuple projection, as in the paper."""

    tup: Node
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError("tuple projection is 1-based")


@dataclass(frozen=True, slots=True)
class Sing(Node):
    """[e] — singleton list construction."""

    item: Node


@dataclass(frozen=True, slots=True)
class Empty(Node):
    """[] — the polymorphic empty list."""


@dataclass(frozen=True, slots=True)
class Concat(Node):
    """e1 ⊔ e2 — list union (concatenation)."""

    left: Node
    right: Node


@dataclass(frozen=True, slots=True)
class If(Node):
    """if c then e1 else e2."""

    cond: Node
    then: Node
    orelse: Node


@dataclass(frozen=True, slots=True)
class Prim(Node):
    """Application of a primitive function p to argument expressions."""

    op: str
    args: tuple[Node, ...]

    def __post_init__(self) -> None:
        if self.op not in PRIM_OPS:
            raise ValueError(f"unknown primitive {self.op!r}")


@dataclass(frozen=True, slots=True)
class FlatMap(Node):
    """flatMap(e) : [τ1] → [τ2] — a function value (applied via App)."""

    fn: Node


@dataclass(frozen=True, slots=True)
class FoldL(Node):
    """foldL(c, f) : [τ1] → τ2 — left fold, the sole recursion scheme.

    ``block_in``/``block_out``/``seq`` mirror the blocked ``for``: they
    never change semantics (the fold still visits elements one by one),
    only the I/O pattern the cost model and executor assume — fetch
    ``block_in`` elements per request, evict ``block_out`` bytes per
    output write.  The paper blocks ``unfoldR`` with "an analogous rule";
    folds over device-resident data need the same treatment (external
    aggregation, duplicate removal).
    """

    init: Node
    fn: Node
    block_in: BlockSize = 1
    block_out: BlockSize = 1
    seq: tuple[str, str] | None = None


@dataclass(frozen=True, slots=True)
class For(Node):
    """for (x [k1] ← source) [k2] body — the functional for loop.

    * ``block_in == 1`` (the default, written without an annotation in the
      paper) binds ``var`` to successive *elements* of ``source``.
    * ``block_in != 1`` binds ``var`` to successive *blocks* of up to
      ``block_in`` elements — the form ``apply-block`` introduces.
    * ``block_out`` buffers the produced output (annotation ``[k2]``); it
      never changes semantics, only costing.
    * ``seq`` is the ``seq-ac`` sequential-access annotation, a pair of
      hierarchy node names ``(m1, m2)``; it also only affects costing.

    The loop is list-valued: iteration results are concatenated.
    """

    var: str
    source: Node
    body: Node
    block_in: BlockSize = 1
    block_out: BlockSize = 1
    seq: tuple[str, str] | None = None


@dataclass(frozen=True, slots=True)
class TreeFold(Node):
    """treeFold[k](c, f) : [τ] → τ — tree-shaped bracketing of a k-ary f.

    Queue semantics (Figure 2): repeatedly take ``arity`` items off the
    queue, apply ``fn``, push the result to the back, padding the final
    incomplete batch with ``init``; the single remaining item is the
    result.  Used to represent divide-and-conquer (Merge-Sort).
    """

    arity: int
    init: Node
    fn: Node

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise ValueError("treeFold arity must be at least 2")


@dataclass(frozen=True, slots=True)
class UnfoldR(Node):
    """unfoldR(f) : ⟨[τ1], …, [τn]⟩ → [τr] — simultaneous list consumption.

    Each step applies ``fn`` to the state tuple of lists, producing a
    chunk of output and a new state; terminates when all lists are empty.
    ``block_in``/``block_out``/``seq`` mirror the blocked ``for`` — the
    paper notes an "analogous rule to introduce bigger blocks to our
    implementation of unfoldR".
    """

    fn: Node
    block_in: BlockSize = 1
    block_out: BlockSize = 1
    seq: tuple[str, str] | None = None


@dataclass(frozen=True, slots=True)
class FuncPow(Node):
    """funcPow[k](f) — the 2^k-ary function built from a binary f (Fig 2)."""

    power: int
    fn: Node

    def __post_init__(self) -> None:
        if self.power < 1:
            raise ValueError("funcPow power must be at least 1")


@dataclass(frozen=True, slots=True)
class Builtin(Node):
    """A named Figure-2 definition used as a function value."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in BUILTIN_NAMES:
            raise ValueError(f"unknown builtin {self.name!r}")


@dataclass(frozen=True, slots=True)
class HashPartition(Node):
    """partition-by-hash into ``buckets`` classes : [τ] → [[τ]].

    ``key_index == 0`` hashes the whole element; ``i ≥ 1`` hashes the
    ``i``-th tuple component.  The hash-part rule (Section 6.2) zips
    partitions of several inputs and maps the original function over them;
    OCAS's efficient linear-time plugin implementation is mirrored by the
    interpreter.  ``buckets`` may be a named parameter tuned later.
    """

    buckets: BlockSize
    key_index: int = 0


@dataclass(frozen=True, slots=True)
class SizeAnnot(Node):
    """A programmer-supplied result-size annotation (Section 5.1).

    ``annot`` is an annotated type from :mod:`repro.cost.annotated`; the
    cost estimator uses it in place of the static worst-case rules.  The
    wrapped expression's semantics are unchanged.
    """

    expr: Node
    annot: object


# ----------------------------------------------------------------------
# Cached structural hashing and hash-consing
# ----------------------------------------------------------------------
_NODE_CLASSES: tuple[type, ...] = (
    Var, Lit, Lam, App, Tup, Proj, Sing, Empty, Concat, If, Prim,
    FlatMap, FoldL, For, TreeFold, UnfoldR, FuncPow, Builtin,
    HashPartition, SizeAnnot,
)


def _install_hash_cache(cls: type) -> None:
    """Wrap the dataclass-generated ``__hash__`` with a per-instance cache.

    The structural hash of a tree is computed once, on first use, and
    stored in the ``_hash`` slot; every later ``hash()`` — every seen-set
    probe, dict lookup, or dedup key — is O(1).
    """
    structural = cls.__hash__

    def __hash__(self, _structural=structural):
        try:
            return self._hash
        except AttributeError:
            value = _structural(self)
            object.__setattr__(self, "_hash", value)
            return value

    cls.__hash__ = __hash__


for _cls in _NODE_CLASSES:
    _install_hash_cache(_cls)
del _cls


@functools.cache
def field_names(cls: type) -> tuple[str, ...]:
    """Declared field names of a dataclass type, in declaration order.

    Computed once per class: ``dataclasses.fields`` rebuilds its tuple on
    every call, which AST walkers would otherwise pay per node visited.
    """
    return tuple(field.name for field in dataclasses.fields(cls))


def _child_fields(cls: type) -> tuple[tuple[str, bool], ...]:
    hints = typing.get_type_hints(cls)
    return tuple(
        (name, hints[name] != Node)
        for name in field_names(cls)
        if hints[name] in (Node, tuple[Node, ...])
    )


#: Per node class, the fields that hold sub-expressions, in declaration
#: order: ``(name, is_tuple)`` — ``is_tuple`` for a ``tuple[Node, ...]``
#: field, false for a single ``Node``.  Every AST walker iterates this
#: table instead of re-deriving the fields per node.
CHILD_FIELDS: dict[type, tuple[tuple[str, bool], ...]] = {
    cls: _child_fields(cls) for cls in _NODE_CLASSES
}

#: Per node class, the fields that may hold a named block/bucket
#: parameter, in the order :func:`block_param_order` visits them.
PARAM_FIELDS: dict[type, tuple[str, ...]] = {
    cls: tuple(
        name
        for name in ("block_in", "block_out", "buckets")
        if name in field_names(cls)
    )
    for cls in _NODE_CLASSES
}


def node_size(node: Node) -> int:
    """Number of AST nodes, memoized on the instance.

    Shared (interned) subtrees make this amortized O(1): each distinct
    subtree is counted once per process, not once per containing program.
    """
    try:
        return node._size
    except AttributeError:
        pass
    size = 1
    for child in children(node):
        size += node_size(child)
    object.__setattr__(node, "_size", size)
    return size


def node_key(node: Node) -> tuple[int, int, str]:
    """A cheap structural summary: ``(hash, size, head constructor)``.

    Not a substitute for equality — two distinct trees may collide — but
    a constant-time first-pass key for indexes and dedup maps.
    """
    return (hash(node), node_size(node), type(node).__name__)


_INTERN_POOL: dict[Node, Node] = {}


def intern_node(node: Node) -> Node:
    """Hash-cons *node*: return the canonical instance for its structure.

    Children are interned bottom-up, so structurally identical subtrees
    of different programs become the *same* object.  Identity then makes
    both hashing (cached once on the shared instance) and equality
    (identity fast path) cheap for the search's seen-set bookkeeping.
    """
    pool = _INTERN_POOL
    existing = pool.get(node)
    if existing is not None:
        return existing
    canonical = map_children(node, intern_node)
    pool[canonical] = canonical
    return canonical


def intern_pool_size() -> int:
    """Number of distinct trees currently hash-consed."""
    return len(_INTERN_POOL)


def clear_intern_pool() -> None:
    """Drop all interned nodes (tests; long-lived processes)."""
    _INTERN_POOL.clear()


# ----------------------------------------------------------------------
# Pattern utilities
# ----------------------------------------------------------------------
def pattern_names(pattern: Pattern) -> tuple[str, ...]:
    """All variable names bound by a lambda pattern, left to right."""
    if isinstance(pattern, str):
        return (pattern,)
    names: list[str] = []
    for sub in pattern:
        names.extend(pattern_names(sub))
    return tuple(names)


# ----------------------------------------------------------------------
# Generic traversal
# ----------------------------------------------------------------------
def children(node: Node) -> tuple[Node, ...]:
    """Direct sub-expressions of a node, in field order."""
    out: list[Node] = []
    for name, is_tuple in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if is_tuple:
            out.extend(value)
        else:
            out.append(value)
    return tuple(out)


def child_steps(node: Node) -> Iterator[tuple[PositionStep, Node]]:
    """Direct sub-expressions with their position steps, in field order."""
    for name, is_tuple in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if is_tuple:
            for index, item in enumerate(value):
                yield (name, index), item
        else:
            yield (name, None), value


def map_children(node: Node, fn: Callable[[Node], Node]) -> Node:
    """Rebuild *node* with ``fn`` applied to each direct child."""
    changes: dict[str, object] = {}
    for name, is_tuple in CHILD_FIELDS[type(node)]:
        value = getattr(node, name)
        if is_tuple:
            new_items = tuple(fn(v) for v in value)
            if any(a is not b for a, b in zip(new_items, value)):
                changes[name] = new_items
        else:
            new_value = fn(value)
            if new_value is not value:
                changes[name] = new_value
    if not changes:
        return node
    return dataclasses.replace(node, **changes)


def walk(node: Node) -> Iterator[Node]:
    """Pre-order traversal of the expression tree."""
    yield node
    for child in children(node):
        yield from walk(child)


def node_count(node: Node) -> int:
    """Number of AST nodes — the program-size tiebreaker in search."""
    return node_size(node)


# ----------------------------------------------------------------------
# Free variables and substitution
# ----------------------------------------------------------------------
def free_vars(node: Node) -> frozenset[str]:
    """Free variables of an expression, memoized on the instance."""
    try:
        return node._free
    except AttributeError:
        pass
    out: frozenset[str]
    if isinstance(node, Var):
        out = frozenset({node.name})
    elif isinstance(node, Lam):
        out = free_vars(node.body) - set(pattern_names(node.pattern))
    elif isinstance(node, For):
        out = free_vars(node.source) | (free_vars(node.body) - {node.var})
    else:
        out = frozenset[str]().union(*map(free_vars, children(node)))
    object.__setattr__(node, "_free", out)
    return out


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """A variable name derived from *base* not present in *avoid*.

    A pure function of its arguments — *base* itself, else the smallest
    ``base_N`` not in *avoid* — so a rewrite's output never depends on
    what the process did before (the rewrite engine memoizes outcomes).
    """
    if base not in avoid:
        return base
    for suffix in itertools.count():
        candidate = f"{base}_{suffix}"
        if candidate not in avoid:
            return candidate
    raise AssertionError("unreachable")  # pragma: no cover


def substitute(node: Node, name: str, replacement: Node) -> Node:
    """Capture-avoiding substitution of ``Var(name)`` by *replacement*."""
    if isinstance(node, Var):
        return replacement if node.name == name else node
    if isinstance(node, Lam):
        bound = set(pattern_names(node.pattern))
        if name in bound:
            return node
        replacement_free = free_vars(replacement)
        if bound & replacement_free:
            node = _rename_lam(node, replacement_free | free_vars(node.body))
        return dataclasses.replace(
            node, body=substitute(node.body, name, replacement)
        )
    if isinstance(node, For):
        new_source = substitute(node.source, name, replacement)
        if node.var == name:
            return dataclasses.replace(node, source=new_source)
        if node.var in free_vars(replacement):
            avoid = free_vars(replacement) | free_vars(node.body) | {name}
            new_var = fresh_name(node.var, avoid)
            renamed_body = substitute(node.body, node.var, Var(new_var))
            node = dataclasses.replace(node, var=new_var, body=renamed_body)
        return dataclasses.replace(
            node,
            source=new_source,
            body=substitute(node.body, name, replacement),
        )
    return map_children(node, lambda child: substitute(child, name, replacement))


def _rename_lam(node: Lam, avoid: frozenset[str] | set[str]) -> Lam:
    """α-rename every pattern variable of a lambda away from *avoid*."""
    mapping: dict[str, str] = {}

    def rename_pattern(pattern: Pattern) -> Pattern:
        if isinstance(pattern, str):
            new = fresh_name(pattern, set(avoid) | set(mapping.values()))
            mapping[pattern] = new
            return new
        return tuple(rename_pattern(sub) for sub in pattern)

    new_pattern = rename_pattern(node.pattern)
    body = node.body
    for old, new in mapping.items():
        if old != new:
            body = substitute(body, old, Var(new))
    return Lam(new_pattern, body)


# ----------------------------------------------------------------------
# Position paths
# ----------------------------------------------------------------------
def format_path(path: PositionPath) -> str:
    """Render a position path for humans, e.g. ``body.args[0].fn``."""
    if not path:
        return "<root>"
    return ".".join(
        name if index is None else f"{name}[{index}]"
        for name, index in path
    )


def node_at(root: Node, path: PositionPath) -> Node:
    """The subexpression of *root* a position path points at.

    :raises LookupError: the path does not resolve in this tree (a path
        recorded against a different program, or a stale field name).
    """
    node: object = root
    for step, (name, index) in enumerate(path):
        if not isinstance(node, Node) or not hasattr(node, name):
            raise LookupError(
                f"path {format_path(path)} does not resolve at step {step} "
                f"({name!r} of {type(node).__name__})"
            )
        value = getattr(node, name)
        if index is not None:
            if not isinstance(value, tuple) or index >= len(value):
                raise LookupError(
                    f"path {format_path(path)} does not resolve at step "
                    f"{step} ({name}[{index}] of {type(node).__name__})"
                )
            value = value[index]
        node = value
    if not isinstance(node, Node):
        raise LookupError(
            f"path {format_path(path)} resolves to a non-node "
            f"{type(node).__name__}"
        )
    return node


# ----------------------------------------------------------------------
# Synthesis parameters
# ----------------------------------------------------------------------
def block_params(node: Node) -> frozenset[str]:
    """Names of all tunable block/bucket parameters occurring in a program."""
    return frozenset(block_param_order(node))


def block_param_order(node: Node) -> tuple[str, ...]:
    """Named block/bucket parameters in first-occurrence pre-order.

    A node's own parameters (``block_in``, ``block_out`` or ``buckets``)
    come before its children's.  Memoized on the instance, so a rewrite
    that shares all but one spine with its parent computes only the new
    spine.
    """
    try:
        return node._params
    except AttributeError:
        pass
    order: dict[str, None] = {}
    for name in PARAM_FIELDS[type(node)]:
        value = getattr(node, name)
        if isinstance(value, str):
            order[value] = None
    for child in children(node):
        order.update(dict.fromkeys(block_param_order(child)))
    out = tuple(order)
    object.__setattr__(node, "_params", out)
    return out
