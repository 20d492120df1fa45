"""The verifier's placement pass (codes ``PLC001``–``PLC005``).

Checks that a program's device story is consistent with one concrete
:class:`~repro.hierarchy.MemoryHierarchy`:

* ``PLC001`` — a declared input/output location is not a node of the
  hierarchy;
* ``PLC002`` — a sequential-access annotation ``[m1 ⇝ m2]`` names an
  unknown hierarchy node;
* ``PLC003`` — the annotated movement does not follow a hierarchy edge
  toward the processor (``m2`` must be ``m1``'s parent, or the root for
  a root-resident source);
* ``PLC004`` — seq-ac's interference condition does not hold.  The
  condition is re-derived here *independently* of the rule that
  introduced the annotation (:mod:`repro.rules.seq_ac`): the loop must
  be blocked, its source must resolve to data residing on ``m1``, and
  the program's output must not be written back to ``m1``.  An
  annotated ``foldL``/``unfoldR`` outside application position is also
  flagged: without the application argument there is no source to
  justify the annotation.
* ``PLC005`` (warning) — a construct inside an annotated ``for`` body
  reads ``m1``-resident data without its own sequential annotation.
  The rule refuses to fire in this state, but ``swap-iter`` creates it
  legally by moving an annotated loop inside another (each annotation
  travels with its loop), so on a *final* program this is a lint about
  interleaved seeks, not an error.

Device resolution follows the cost estimator's context handling: a
variable's location comes from the input declarations, and a
``(λ⟨…⟩. body) arg`` application binds the pattern to the locations of
the argument's components (``order-inputs`` wraps annotated loops this
way, with an ``if`` choosing between two orderings — both branches must
agree on each component's device for the binding to resolve).  Loop and
unapplied-lambda bindings shadow to "no device".
"""

from __future__ import annotations

from ..hierarchy import MemoryHierarchy
from ..ocal.ast import (
    App,
    FoldL,
    For,
    HashPartition,
    If,
    Lam,
    Node,
    Pattern,
    PositionPath,
    Tup,
    UnfoldR,
    Var,
    child_steps,
    pattern_names,
)
from .diagnostics import Diagnostic

__all__ = ["placement_pass"]

#: a resolved location: a device name, ``None`` (unknown / not device
#: resident), or a tuple mirroring a tuple value's structure.
Location = "str | None | tuple"


def placement_pass(
    program: Node,
    hierarchy: MemoryHierarchy,
    input_locations: dict[str, str],
    output_location: str | None = None,
) -> list[Diagnostic]:
    """Check every device reference of *program* against *hierarchy*."""
    diagnostics: list[Diagnostic] = []
    known = set(hierarchy.nodes)
    for name, location in sorted(input_locations.items()):
        if location not in known:
            diagnostics.append(
                Diagnostic(
                    code="PLC001",
                    message=(
                        f"input {name!r} is declared on {location!r}, "
                        f"which is not a node of the hierarchy "
                        f"(nodes: {sorted(known)})"
                    ),
                )
            )
    if output_location is not None and output_location not in known:
        diagnostics.append(
            Diagnostic(
                code="PLC001",
                message=(
                    f"output location {output_location!r} is not a node "
                    f"of the hierarchy (nodes: {sorted(known)})"
                ),
            )
        )
    checker = _SeqChecker(hierarchy, output_location)
    checker.check(program, (), dict(input_locations))
    diagnostics.extend(checker.diagnostics)
    return diagnostics


class _SeqChecker:
    """Positioned traversal validating every ``seq`` annotation."""

    def __init__(
        self,
        hierarchy: MemoryHierarchy,
        output_location: str | None,
    ):
        self.hierarchy = hierarchy
        self.output_location = output_location
        self.diagnostics: list[Diagnostic] = []

    # ------------------------------------------------------------------
    def check(self, node: Node, path: PositionPath, env: dict) -> None:
        if isinstance(node, App) and isinstance(node.fn, Lam):
            self.check(node.arg, path + (("arg", None),), env)
            body_env = dict(env)
            _bind_pattern(
                node.fn.pattern, _locate(node.arg, env), body_env
            )
            self.check(
                node.fn.body,
                path + (("fn", None), ("body", None)),
                body_env,
            )
            return
        if isinstance(node, App) and isinstance(node.fn, (FoldL, UnfoldR)):
            fn = node.fn
            if fn.seq is not None:
                self._check_seq(
                    fn, path + (("fn", None),), node.arg, None, env
                )
            # Recurse without re-flagging the fn as "outside application
            # position" — descend into its own children directly.
            self._descend(fn, path + (("fn", None),), env)
            self.check(node.arg, path + (("arg", None),), env)
            return
        if isinstance(node, For) and node.seq is not None:
            self._check_seq(node, path, node.source, node.body, env)
        elif isinstance(node, (FoldL, UnfoldR)) and node.seq is not None:
            self.diagnostics.append(
                Diagnostic(
                    code="PLC004",
                    message=(
                        f"sequential-access annotation on a "
                        f"{type(node).__name__} outside application "
                        f"position; there is no source to justify it"
                    ),
                    path=path,
                )
            )
        self._descend(node, path, env)

    def _descend(self, node: Node, path: PositionPath, env: dict) -> None:
        for step, child in child_steps(node):
            child_env = _env_for(node, step[0], env)
            self.check(child, path + (step,), child_env)

    # ------------------------------------------------------------------
    def _check_seq(
        self,
        loop: Node,
        path: PositionPath,
        source: Node,
        body: Node | None,
        env: dict,
    ) -> None:
        m1, m2 = loop.seq  # type: ignore[union-attr]
        known = set(self.hierarchy.nodes)
        unknown = [name for name in (m1, m2) if name not in known]
        if unknown:
            self.diagnostics.append(
                Diagnostic(
                    code="PLC002",
                    message=(
                        f"sequential-access annotation [{m1} ⇝ {m2}] "
                        f"names unknown hierarchy node(s) "
                        f"{sorted(set(unknown))} "
                        f"(nodes: {sorted(known)})"
                    ),
                    path=path,
                )
            )
            return
        parent = self.hierarchy.parent(m1)
        expected = self.hierarchy.root.name if parent is None else parent.name
        if m2 != expected:
            self.diagnostics.append(
                Diagnostic(
                    code="PLC003",
                    message=(
                        f"sequential-access annotation [{m1} ⇝ {m2}] "
                        f"does not follow the hierarchy: data on {m1!r} "
                        f"moves to {expected!r}"
                    ),
                    path=path,
                )
            )
        if loop.block_in == 1:
            self.diagnostics.append(
                Diagnostic(
                    code="PLC004",
                    message=(
                        "sequential-access annotation on an unblocked "
                        "loop (block_in is 1)"
                    ),
                    path=path,
                )
            )
        device = _device_of(source, env)
        if device is None:
            self.diagnostics.append(
                Diagnostic(
                    code="PLC004",
                    message=(
                        f"sequential-access annotation [{m1} ⇝ {m2}] on "
                        f"a loop whose source is not a named input "
                        f"residing on a device"
                    ),
                    path=path,
                )
            )
        elif device != m1:
            self.diagnostics.append(
                Diagnostic(
                    code="PLC004",
                    message=(
                        f"sequential-access annotation claims the source "
                        f"resides on {m1!r}, but it is declared on "
                        f"{device!r}"
                    ),
                    path=path,
                )
            )
        if self.output_location == m1:
            self.diagnostics.append(
                Diagnostic(
                    code="PLC004",
                    message=(
                        f"the program's output is written to {m1!r}; "
                        f"write-back interferes with sequential reading"
                    ),
                    path=path,
                )
            )
        body_env = env
        if body is not None and isinstance(loop, For):
            body_env = dict(env)
            body_env[loop.var] = None
        if body is not None and not self._clear_of(body, m1, body_env):
            self.diagnostics.append(
                Diagnostic(
                    code="PLC005",
                    severity="warning",
                    message=(
                        f"the loop body reads other data residing on "
                        f"{m1!r} without its own sequential annotation; "
                        f"accesses interleave"
                    ),
                    path=path,
                )
            )

    def _clear_of(self, body: Node, device: str, env: dict) -> bool:
        """No construct inside *body* reads *device* data unannotated.

        Re-derivation of seq-ac's interference check, with shadow-aware
        input resolution.  One deliberate relaxation over the rule's
        application-time condition: a nested loop that is *itself*
        seq-annotated on the same device does not count as
        interference.  The rule checks its condition on the program as
        it looked when it fired, and ``swap-iter`` may later move an
        annotated loop inside another — the final program then nests
        two annotated readers of one device, each carrying its own
        sequential-seek accounting, and that is exactly what the cost
        model prices.
        """
        stack: list[tuple[Node, dict]] = [(body, env)]
        while stack:
            node, node_env = stack.pop()
            if isinstance(node, App) and isinstance(node.fn, Lam):
                stack.append((node.arg, node_env))
                body_env = dict(node_env)
                _bind_pattern(
                    node.fn.pattern, _locate(node.arg, node_env), body_env
                )
                stack.append((node.fn.body, body_env))
                continue
            source = None
            annotated = False
            if isinstance(node, For):
                source = node.source
                annotated = node.seq is not None and node.seq[0] == device
            elif isinstance(node, App) and isinstance(
                node.fn, (FoldL, UnfoldR, HashPartition)
            ):
                source = node.arg
                fn_seq = getattr(node.fn, "seq", None)
                annotated = fn_seq is not None and fn_seq[0] == device
            if (
                source is not None
                and not annotated
                and _device_of(source, node_env) == device
            ):
                return False
            for (name, _), child in child_steps(node):
                stack.append((child, _env_for(node, name, node_env)))
        return True


# ----------------------------------------------------------------------
# Location environment handling
# ----------------------------------------------------------------------
def _env_for(node: Node, field_name: str, env: dict) -> dict:
    """The location environment for one child field: loop variables and
    unapplied lambda parameters shadow to "no device"."""
    if isinstance(node, For) and field_name == "body":
        child = dict(env)
        child[node.var] = None
        return child
    if isinstance(node, Lam) and field_name == "body":
        child = dict(env)
        for name in pattern_names(node.pattern):
            child[name] = None
        return child
    return env


def _device_of(source: Node, env: dict) -> "str | None":
    loc = _locate(source, env)
    return loc if isinstance(loc, str) else None


def _locate(expr: Node, env: dict):
    """Resolve *expr* to a location (device name, ``None``, or a tuple
    mirroring tuple structure) — the placement-pass analogue of the
    estimator's ``Located`` context."""
    if isinstance(expr, Var):
        return env.get(expr.name)
    if isinstance(expr, Tup):
        return tuple(_locate(item, env) for item in expr.items)
    if isinstance(expr, If):
        return _merge_locations(
            _locate(expr.then, env), _locate(expr.orelse, env)
        )
    return None


def _merge_locations(a, b):
    if a == b:
        return a
    if isinstance(a, tuple) and isinstance(b, tuple) and len(a) == len(b):
        return tuple(_merge_locations(x, y) for x, y in zip(a, b))
    return None


def _bind_pattern(pattern: Pattern, location, env: dict) -> None:
    if isinstance(pattern, str):
        env[pattern] = location if isinstance(location, str) else None
        return
    locations = (
        location
        if isinstance(location, tuple) and len(location) == len(pattern)
        else (None,) * len(pattern)
    )
    for sub, loc in zip(pattern, locations):
        _bind_pattern(sub, loc, env)
