"""Property tests for the compiled expression evaluator (ISSUE 5).

Compiled costing's contract is *exact* agreement with the reference:
compiled evaluation must return bit-identical floats (and raise the
same exception types at the same inputs) as :meth:`Expr.evaluate`.  A
seeded generator — the conformance suite's seeding style — drives
randomly shaped expressions over random environments, including
``Fraction`` constants and integer powers; the whole-problem bundle
(:class:`CompiledProblem`) is checked against a reference written here
over ``Expr.evaluate`` on the 17 registry winners' tuning problems.
"""

import functools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from repro.api import default_registry
from repro.cost.estimator import CostEstimator, CostModel
from repro.cost.events import Constraint
from repro.ocal.serialize import node_from_json
from repro.optimizer.penalty import ParameterOptimizer, single_param_upper_bound
from repro.symbolic import (
    Add,
    Ceil,
    Const,
    Div,
    Floor,
    Log2,
    Max,
    Min,
    Mul,
    Pow,
    Sum,
    Var,
    compile_expr,
    intern_expr,
)
from repro.symbolic.compile import DOMAIN_ERRORS, CompiledExpr, compile_problem

VAR_NAMES = ("x", "y", "k1", "bout")

#: Environment values deliberately include evaluation hazards: zero
#: denominators, non-positive log arguments, Fractions, floats and ints.
ENV_VALUES = (0, 1, 2, 3, 7, 1000, 0.5, 2.0**20, Fraction(3, 2), Fraction(-1, 4))


def _gen_expr(rng: random.Random, depth: int, bound: tuple[str, ...] = ()):
    """A random well-formed expression of bounded depth."""
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.45:
            names = VAR_NAMES + bound
            return Var(rng.choice(names))
        if roll < 0.70:
            return Const(Fraction(rng.randint(-30, 90), rng.randint(1, 12)))
        return Const(rng.randint(-6, 60))
    kind = rng.randrange(10)
    child = lambda: _gen_expr(rng, depth - 1, bound)  # noqa: E731
    if kind == 0:
        return Add(tuple(child() for _ in range(rng.randint(1, 4))))
    if kind == 1:
        return Mul(tuple(child() for _ in range(rng.randint(1, 3))))
    if kind == 2:
        return Div(child(), child())
    if kind == 3:
        return Pow(child(), rng.choice([-3, -2, -1, 0, 1, 2, 3, 4]))
    if kind == 4:
        return Max(tuple(child() for _ in range(rng.randint(1, 3))))
    if kind == 5:
        return Min(tuple(child() for _ in range(rng.randint(1, 3))))
    if kind == 6:
        return Ceil(child())
    if kind == 7:
        return Floor(child())
    if kind == 8:
        return Log2(child())
    var = f"j{len(bound)}"
    return Sum(
        var,
        Const(rng.randint(-2, 3)),
        Const(rng.randint(-2, 7)),
        _gen_expr(rng, depth - 1, bound + (var,)),
    )


def _outcome(thunk):
    """(tag, value-or-exception-type) for exact comparison."""
    try:
        return ("ok", thunk())
    except Exception as error:  # noqa: BLE001 - the type IS the outcome
        return ("err", type(error))


class TestCompiledMatchesInterpreted:
    @pytest.mark.parametrize("seed", range(8))
    def test_exact_equality_on_random_expressions(self, seed):
        for index in range(400):
            rng = random.Random((seed, index, "compile-prop").__repr__())
            expr = _gen_expr(rng, rng.randint(1, 5))
            env = {
                name: rng.choice(ENV_VALUES)
                for name in expr.free_vars()
            }
            compiled = compile_expr(expr)
            want = _outcome(lambda: expr.evaluate(env))
            got = _outcome(lambda: compiled(env))
            # Exact float equality, not approx: compiled evaluation must
            # be bit-identical to the interpreter.
            assert want == got, (
                f"seed={seed} index={index}: interpreted {want} != "
                f"compiled {got} for {expr}"
            )

    def test_fraction_constants_compile_exactly(self):
        expr = Const(Fraction(10**15 + 1, 3)) * Var("x") + Const(Fraction(-7, 11))
        env = {"x": Fraction(5, 2)}
        assert compile_expr(expr)(env) == expr.evaluate(env)

    def test_integer_powers_including_negative(self):
        expr = Pow(Var("x"), -3) + Pow(Var("x"), 4) + Pow(Const(-2), 2)
        env = {"x": 3}
        assert compile_expr(expr)(env) == expr.evaluate(env)
        with pytest.raises(ZeroDivisionError):
            compile_expr(Pow(Var("x"), -1))({"x": 0})

    def test_empty_range_sum_matches(self):
        expr = Sum("j", Const(5), Const(2), Div(Const(1), Var("j")))
        assert compile_expr(expr)({}) == expr.evaluate({}) == 0.0

    def test_unbound_variable_raises_keyerror_with_message(self):
        compiled = compile_expr(Var("missing") + 1)
        with pytest.raises(KeyError, match="unbound symbolic variable"):
            compiled({})

    def test_division_by_zero_matches_interpreter(self):
        compiled = compile_expr(Div(Const(1), Var("x")))
        with pytest.raises(ZeroDivisionError):
            compiled({"x": 0})

    def test_log2_domain_error_matches_interpreter(self):
        compiled = compile_expr(Log2(Var("x")))
        with pytest.raises(ValueError):
            compiled({"x": 0})
        assert compiled({"x": 8}) == 3.0

    def test_empty_max_min_raise_valueerror_like_interpreter(self):
        # Only constructible directly (smax/smin reject zero operands),
        # but the exception type must still match the interpreter's.
        for node in (Max(()), Min(())):
            with pytest.raises(ValueError):
                node.evaluate({})
            with pytest.raises(ValueError):
                compile_expr(node)({})

    def test_overflowing_constant_raises_at_evaluation_not_compile(self):
        # float(10**400) overflows; the interpreter raises per probe
        # (where domain guards map it to inf), so compilation must
        # succeed and defer the error to evaluation.
        expr = Const(Fraction(10**400)) + Var("x")
        compiled = compile_expr(expr)
        with pytest.raises(OverflowError):
            expr.evaluate({"x": 1})
        with pytest.raises(OverflowError):
            compiled({"x": 1})


class TestCompiledExprSurface:
    def test_compile_cache_returns_same_object_for_equal_structure(self):
        a = compile_expr(Var("x") + 1)
        b = compile_expr(Var("x") + 1)
        assert a is b

    def test_compiled_expr_is_interned(self):
        compiled = CompiledExpr(Var("q") / 2)
        assert compiled.expr is intern_expr(Var("q") / 2)


# ----------------------------------------------------------------------
# The whole-problem bundle against a reference over Expr.evaluate
# ----------------------------------------------------------------------
REGISTRY = default_registry()
GOLDEN_PATH = os.path.join(
    os.path.dirname(__file__), "..", "cost", "goldens", "tuned_reference.json"
)
PENALTIES = (1e3, 1e5)


def _guarded(expr, env):
    try:
        return expr.evaluate(env)
    except DOMAIN_ERRORS:
        return math.inf


def _reference_violation(constraints, env):
    total = 0.0
    for constraint in constraints:
        lhs, rhs = _guarded(constraint.lhs, env), _guarded(constraint.rhs, env)
        total += max(0.0, (lhs - rhs) / max(1.0, abs(rhs)))
    return total


def _reference_penalized(cost, constraints, env, penalty):
    base = _guarded(cost, env)
    violation = _reference_violation(constraints, env)
    return base + penalty * violation * (1.0 + abs(base))


def _hex(values):
    """Exact comparison form: distinguishes nothing ``==`` would not,
    except that NaN equals itself."""
    return [float.hex(value) for value in values]


@functools.cache
def _golden_winners():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)["winners"]


def _winner_problem(workload):
    """(estimate, stats, tuned values) of one registry winner."""
    entry = _golden_winners()[workload]
    experiment = REGISTRY.experiment(workload)
    model = CostModel(
        hierarchy=experiment.hierarchy,
        input_annots=experiment.input_annots,
        input_locations=experiment.input_locations,
        output_location=experiment.output_location,
        stats=experiment.stats,
    )
    program = node_from_json(json.loads(entry["program"]))
    estimate = CostEstimator(model).estimate(program)
    return estimate, dict(experiment.stats), entry["values"]


def _probe_points(workload, estimate, stats, tuned):
    """Start point, tuned point and 32 seeded in-box points."""
    bounds = {
        name: single_param_upper_bound(name, estimate.constraints, stats)
        for name in sorted(estimate.parameters)
    }
    rng = random.Random(f"{workload}/compiled-problem")
    points = [
        {name: math.sqrt(bound) for name, bound in bounds.items()},
        {name: float(tuned[name]) for name in bounds},
    ]
    for index in range(32):
        # Odd points crowd the box's upper corner, where the joint
        # capacity constraints are violated.
        low = 0.0 if index % 2 == 0 else 0.9
        points.append(
            {
                name: bound ** rng.uniform(low, 1.0)
                for name, bound in bounds.items()
            }
        )
    return points


class TestCompiledProblemMatchesReference:
    @pytest.mark.parametrize("workload", REGISTRY.names())
    def test_real_tuning_problems_score_exactly(self, workload):
        estimate, stats, tuned = _winner_problem(workload)
        cost, constraints = estimate.total, estimate.constraints
        problem = compile_problem(cost, [(c.lhs, c.rhs) for c in constraints])
        points = _probe_points(workload, estimate, stats, tuned)
        envs = [{**stats, **point} for point in points]
        assert _hex(problem.violation(env) for env in envs) == _hex(
            _reference_violation(constraints, env) for env in envs
        )
        for penalty in PENALTIES:
            want = _hex(
                _reference_penalized(cost, constraints, env, penalty)
                for env in envs
            )
            assert _hex(problem.penalized(env, penalty) for env in envs) == want
            assert _hex(problem.score_points(stats, points, penalty)) == want

    def test_domain_errors_score_as_inf_on_both_sides(self):
        cost = Div(Var("x"), Var("k") + (-1))  # k = 1 divides by zero
        constraints = [Constraint(Log2(Var("k") + (-1)), Const(5))]
        problem = compile_problem(cost, [(c.lhs, c.rhs) for c in constraints])
        env = {"x": 8.0, "k": 1.0}
        assert problem.violation(env) == math.inf
        assert _reference_violation(constraints, env) == math.inf
        assert _hex([problem.penalized(env, 1e3)]) == _hex(
            [_reference_penalized(cost, constraints, env, 1e3)]
        )

    def test_missing_binding_raises_the_interpreters_keyerror(self):
        cost = Var("x") / Var("k") + Var("not_a_binding")
        constraints = [Constraint(Var("k"), Var("also_missing"))]
        problem = compile_problem(cost, [(c.lhs, c.rhs) for c in constraints])
        env = {"x": 8.0, "k": 2.0}
        for compiled, reference in (
            (
                lambda: problem.penalized(env, 1e3),
                lambda: _reference_penalized(cost, constraints, env, 1e3),
            ),
            (
                lambda: problem.violation(env),
                lambda: _reference_violation(constraints, env),
            ),
            (
                lambda: problem.score_points(env, [{"k": 4.0}], 1e3),
                lambda: _reference_penalized(cost, constraints, env, 1e3),
            ),
        ):
            with pytest.raises(KeyError) as raw:
                compiled()
            with pytest.raises(
                KeyError, match="unbound symbolic variable"
            ) as want:
                reference()
            # The optimizer re-dresses the bundle's raw KeyError into
            # exactly the interpreter's.
            assert (
                ParameterOptimizer._unbound(raw.value).args == want.value.args
            )
