"""Tests for the sequential-penalty derivative-free optimizer."""

import math

import pytest

from repro.cost import Constraint, CostEstimator, CostModel, atom, list_annot
from repro.hierarchy import MB, hdd_ram_hierarchy
from repro.ocal.builders import empty, eq, for_, if_, sing, tup, v
from repro.optimizer import optimize_parameters
from repro.symbolic import Const, as_expr, var


class TestUnconstrainedMonotone:
    def test_single_block_maximized(self):
        # cost = x/k, k ≤ 1000 → k = 1000 ("as big as possible").
        cost = var("x") / var("k")
        constraints = [
            Constraint(Const(1), var("k")),
            Constraint(var("k"), Const(1000)),
        ]
        result = optimize_parameters(cost, constraints, {"k"}, {"x": 1e6})
        assert result.feasible
        assert result.values["k"] == pytest.approx(1000, rel=0.05)

    def test_no_parameters(self):
        result = optimize_parameters(var("x") * 2, [], set(), {"x": 21})
        assert result.cost == 42
        assert result.values == {}


class TestCompetingBlocks:
    def test_balanced_split_of_shared_budget(self):
        # cost = c/(k1*k2) with k1 + k2 ≤ 100 → optimum at k1 = k2 = 50.
        cost = as_expr(1e9) / (var("k1") * var("k2"))
        constraints = [
            Constraint(var("k1") + var("k2"), Const(100)),
            Constraint(Const(1), var("k1")),
            Constraint(Const(1), var("k2")),
        ]
        result = optimize_parameters(
            cost, constraints, {"k1", "k2"}, {}
        )
        assert result.feasible
        product = result.values["k1"] * result.values["k2"]
        assert product >= 0.9 * 50 * 50

    def test_asymmetric_weights(self):
        # cost = a/k1 + b/(k1·k2), dominated by the k1 term when a ≫ b:
        # the optimizer should give k1 most of the budget.
        cost = as_expr(1e12) / var("k1") + as_expr(1e6) / (
            var("k1") * var("k2")
        )
        constraints = [
            Constraint(var("k1") + var("k2"), Const(1024)),
            Constraint(Const(1), var("k1")),
            Constraint(Const(1), var("k2")),
        ]
        result = optimize_parameters(cost, constraints, {"k1", "k2"}, {})
        assert result.feasible
        assert result.values["k1"] > result.values["k2"]

    def test_matches_grid_search(self):
        cost = as_expr(3e8) / var("k1") + as_expr(7e9) / (
            var("k1") * var("k2")
        )
        budget = 512
        constraints = [
            Constraint(var("k1") + var("k2"), Const(budget)),
            Constraint(Const(1), var("k1")),
            Constraint(Const(1), var("k2")),
        ]
        result = optimize_parameters(cost, constraints, {"k1", "k2"}, {})

        def evaluate(k1, k2):
            return 3e8 / k1 + 7e9 / (k1 * k2)

        best = min(
            evaluate(k1, budget - k1) for k1 in range(1, budget)
        )
        assert result.cost <= best * 1.1

    def test_infeasible_detected(self):
        constraints = [
            Constraint(var("k"), Const(10)),
            Constraint(Const(20), var("k")),
        ]
        result = optimize_parameters(
            var("x") / var("k"), constraints, {"k"}, {"x": 100}
        )
        assert not result.feasible


class TestNonMonotoneObjective:
    def test_interior_optimum_found(self):
        # cost = a/k + b·k has optimum at k = sqrt(a/b).
        a, b = 1e8, 1.0
        cost = as_expr(a) / var("k") + as_expr(b) * var("k")
        constraints = [
            Constraint(Const(1), var("k")),
            Constraint(var("k"), Const(10**6)),
        ]
        result = optimize_parameters(cost, constraints, {"k"}, {})
        optimum = math.sqrt(a / b)
        best = 2 * math.sqrt(a * b)
        assert result.cost <= best * 1.05
        assert 0.5 * optimum <= result.values["k"] <= 2 * optimum


class TestScipyCrossCheck:
    def test_against_scipy_on_smooth_problem(self):
        from scipy.optimize import minimize

        cost = as_expr(5e8) / var("k1") + as_expr(2e10) / (
            var("k1") * var("k2")
        )
        budget = 2048.0
        constraints = [
            Constraint(var("k1") + var("k2"), Const(budget)),
            Constraint(Const(1), var("k1")),
            Constraint(Const(1), var("k2")),
        ]
        ours = optimize_parameters(cost, constraints, {"k1", "k2"}, {})

        def objective(p):
            return 5e8 / p[0] + 2e10 / (p[0] * p[1])

        scipy_result = minimize(
            objective,
            x0=[budget / 2, budget / 2],
            bounds=[(1, budget), (1, budget)],
            constraints=[
                {"type": "ineq", "fun": lambda p: budget - p[0] - p[1]}
            ],
            method="SLSQP",
        )
        assert ours.cost <= scipy_result.fun * 1.1


class TestEndToEndWithEstimator:
    def test_bnl_blocks_fill_the_buffer_pool(self):
        ram = 8 * MB
        program = for_(
            "xB",
            v("R"),
            for_(
                "yB",
                v("S"),
                for_(
                    "a",
                    v("xB"),
                    for_(
                        "b",
                        v("yB"),
                        if_(
                            eq(v("a"), v("b")),
                            sing(tup(v("a"), v("b"))),
                            empty(),
                        ),
                    ),
                ),
                block_in="k2",
                seq=("HDD", "RAM"),
            ),
            block_in="k1",
        )
        stats = {"x": 2.0**28, "y": 2.0**24}
        model = CostModel(
            hierarchy=hdd_ram_hierarchy(ram),
            input_annots={
                "R": list_annot(atom(1), var("x")),
                "S": list_annot(atom(1), var("y")),
            },
            input_locations={"R": "HDD", "S": "HDD"},
            stats=stats,
        )
        estimate = CostEstimator(model).estimate(program)
        result = optimize_parameters(
            estimate.total, estimate.constraints, estimate.parameters, stats
        )
        assert result.feasible
        k1, k2 = result.values["k1"], result.values["k2"]
        # Blocks fill most of the buffer pool…
        assert k1 + k2 >= 0.5 * ram
        # …and satisfy every constraint.
        env = result.env(stats)
        for constraint in estimate.constraints:
            assert constraint.satisfied(env)

    def test_tuned_cost_beats_naive_parameters(self):
        program = for_(
            "xB",
            v("R"),
            for_("a", v("xB"), sing(v("a"))),
            block_in="k1",
        )
        stats = {"x": 2.0**26}
        model = CostModel(
            hierarchy=hdd_ram_hierarchy(8 * MB),
            input_annots={"R": list_annot(atom(1), var("x"))},
            input_locations={"R": "HDD"},
            stats=stats,
        )
        estimate = CostEstimator(model).estimate(program)
        result = optimize_parameters(
            estimate.total, estimate.constraints, estimate.parameters, stats
        )
        naive_cost = estimate.total.evaluate({**stats, "k1": 1.0})
        assert result.cost < naive_cost / 100


class TestSafeEvalNarrowing:
    """ISSUE 5 satellite: domain errors become inf, malformed problems raise."""

    def test_domain_errors_still_become_inf(self):
        # x/k with k allowed to reach 0 during probing must not crash;
        # the 1/k1 ZeroDivisionError path scores as infinitely bad.
        cost = var("x") / (var("k1") + (-1))  # k1=1 divides by zero
        constraints = [
            Constraint(Const(1), var("k1")),
            Constraint(var("k1"), Const(64)),
        ]
        result = optimize_parameters(cost, constraints, {"k1"}, {"x": 1e6})
        assert result.feasible
        assert result.values["k1"] > 1

    def test_malformed_problem_surfaces_instead_of_inf(self):
        # The objective references a variable that is neither a tuned
        # parameter nor a statistic: that is a malformed problem, and it
        # must raise (KeyError), not silently tune to cost=inf.
        cost = var("x") / var("k1") + var("not_a_binding")
        constraints = [
            Constraint(Const(1), var("k1")),
            Constraint(var("k1"), Const(1000)),
        ]
        with pytest.raises(KeyError, match="unbound symbolic variable"):
            optimize_parameters(cost, constraints, {"k1"}, {"x": 1e6})


class TestFoldKeepsEdgeBehaviour:
    """ISSUE 16 satellite: tuning the statistics-folded problem must not
    move the two edges the unfolded tuner pinned."""

    @staticmethod
    def _reference(cost, constraints, parameters, stats):
        """The pattern search on the *unfolded* problem."""
        from repro.optimizer import ParameterOptimizer

        return ParameterOptimizer(
            cost=cost,
            constraints=list(constraints),
            parameters=frozenset(parameters),
            stats=dict(stats),
        ).run()

    @staticmethod
    def _memo_tune(cost, constraints, parameters, stats):
        from repro.cost import CostEstimate, CostEvents, CostMemo

        estimate = CostEstimate(
            events=CostEvents(),
            result=None,
            total=cost,
            constraints=list(constraints),
            parameters=frozenset(parameters),
        )
        return CostMemo().tune(estimate, stats, penalty_rounds=4)

    @pytest.mark.parametrize("where", ["cost", "constraint", "no-parameters"])
    def test_unbound_variable_still_raises(self, where):
        # Neither a statistic nor a parameter: substitution leaves it in
        # the folded problem, and the tuner must still refuse it.
        cost = var("x") / var("k1")
        constraints = [
            Constraint(Const(1), var("k1")),
            Constraint(var("k1"), Const(1000)),
        ]
        parameters = {"k1"}
        if where == "cost":
            cost = cost + var("stray")
        elif where == "constraint":
            constraints.append(Constraint(var("k1") * var("stray"), var("x")))
        else:
            cost, constraints, parameters = var("x") * var("stray"), [], set()
        for tune in (optimize_parameters, self._memo_tune):
            with pytest.raises(
                KeyError, match="unbound symbolic variable 'stray'"
            ):
                tune(cost, constraints, parameters, {"x": 1e6})

    @pytest.mark.parametrize("where", ["cost", "constraint"])
    def test_fold_time_domain_error_tunes_like_the_unfolded_problem(
        self, where
    ):
        # A zero cardinality under a division: simplify() raises on the
        # substituted expression, which therefore stays unfolded and
        # fails per probe (cost → inf), exactly as before the fold.
        stats = {"x": 0, "y": 1e6}
        cost = var("y") / var("k1")
        constraints = [
            Constraint(Const(1), var("k1")),
            Constraint(var("k1") * var("x") + var("k1"), Const(1000)),
            Constraint(var("x"), Const(5)),
        ]
        if where == "cost":
            cost = cost + var("y") / var("x")
        else:
            constraints.append(
                Constraint(var("k1") * (var("y") / var("x")), Const(10**9))
            )
        want = self._reference(cost, constraints, {"k1"}, stats)
        assert (want.cost == math.inf) == (where == "cost")
        for tune in (optimize_parameters, self._memo_tune):
            got = tune(cost, constraints, {"k1"}, stats)
            assert got.values == want.values
            assert got.cost == want.cost
            assert got.feasible == want.feasible

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_statistic_is_left_symbolic(self, bad):
        stats = {"x": bad, "y": 1e6}
        cost = var("y") / var("k1") + var("x")
        constraints = [
            Constraint(Const(1), var("k1")),
            Constraint(var("k1"), Const(1000)),
        ]
        want = self._reference(cost, constraints, {"k1"}, stats)
        got = optimize_parameters(cost, constraints, {"k1"}, stats)
        assert got.values == want.values
        assert float.hex(got.cost) == float.hex(want.cost)

    def test_satisfied_parameter_free_constraints_are_dropped(self):
        from repro.optimizer.penalty import fold_problem

        constraints = [
            Constraint(var("x"), Const(10)),  # holds: dropped
            Constraint(var("x"), Const(10)),  # …each copy of it
            Constraint(var("x"), Const(2)),  # violated: stays, twice,
            Constraint(var("x"), Const(2)),  # duplicates weigh the penalty
            Constraint(var("k") * var("x"), Const(100)),
        ]
        cost, kept = fold_problem(var("x") / var("k"), constraints, {"x": 5})
        assert cost == Const(5) / var("k")
        assert [(c.lhs, c.rhs) for c in kept] == [
            (Const(5), Const(2)),
            (Const(5), Const(2)),
            (Const(5) * var("k"), Const(100)),
        ]
