"""The benchmark's workloads.

Each workload builds its inputs once per set-up (build), runs one pass over
its solves (run_pass) and checks the outputs of one pass against the
independent dual bounds of bench_dual (verify). Every call into netnewton
goes through its module attribute (netnewton.solver.newton_solve, ...) so
that the traced run sees it.

The instances are fixed, so every pass of every run repeats the same
solves and the same price-update count; --seed only sets the order in
which a workload with independent solves visits its instances. The two
study workloads run netnewton's own comparison harness on the seed-7 study
and have nothing to reorder.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

import netnewton
from bench_trace import Patch

FAMILY_SEED = 7
FIRST_ORDER_TRIALS = 1
SCALE_LADDER = ((15, 8), (30, 15), (60, 30), (120, 60))
SCALE_P = 0.5
INSTANCE_SEED = 2010
MIXED_SEEDS = (0, 1, 2)
MIXED_SHAPE = (10, 6)
# The study's diagonal-method constant (1.5e-3) is tuned to log utilities.
# With quadratic sources the curvature scaling is an order of magnitude
# larger: at 1.5e-3 these three draws take 150k-210k updates each, at 2e-2
# 12k-16k. The next draw (seed 3) is left out because it needs more than
# 100k updates at 2e-2 (and 300k do not suffice at 1.5e-3), which would
# triple the pass.
MIXED_DIAGONAL_STEPSIZE = 2e-2


@dataclass
class PassResult:
    attempted: int = 0
    failed: int = 0
    price_updates: int = 0
    fingerprint: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def _recorder(calls: list):
    def make(fn):
        def record(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, kwargs, result))
            return result
        return record
    return make


SOLVE_ERRORS = (ArithmeticError, AssertionError, RuntimeError, ValueError)


def _attempt(out: PassResult, label: str, solve, converged):
    """Run one operation: it counts as attempted, and as failed when it
    raises or does not converge. Returns (result or None if it raised, ok)."""
    out.attempted += 1
    try:
        result = solve()
    except SOLVE_ERRORS as exc:
        out.failed += 1
        out.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None, False
    ok = bool(converged(result))
    if not ok:
        out.failed += 1
        out.errors.append(f"{label}: did not converge")
    return result, ok


def _order(seed: int, n: int) -> list:
    return [int(i) for i in np.random.default_rng(seed).permutation(n)]


class Study:
    """run_comparison on the seed-7 15x8 family (ExperimentSpec defaults)."""

    def __init__(self, trials: int, methods: tuple, captured: tuple):
        self.trials = trials
        self.methods = methods
        self.captured = captured  # (module, function) whose results verify reads

    def build(self, seed: int):
        return netnewton.experiment.ExperimentSpec(
            trials=self.trials, seed=FAMILY_SEED, methods=self.methods
        )

    def run_pass(self, spec, capture: list | None = None) -> PassResult:
        patch = Patch()
        if capture is not None:
            for module, attr in self.captured:
                patch.replace(getattr(netnewton, module), attr, _recorder(capture))
        try:
            summary = netnewton.experiment.run_comparison(spec)
        finally:
            patch.restore()
        out = PassResult()
        for row in summary.rows:
            out.attempted += 1
            if row.error:
                out.failed += 1
                out.errors.append(f"trial {row.trial} {row.method}: {row.error}")
            else:
                out.price_updates += row.counted_iters
            out.fingerprint.append(
                (row.trial, row.method, row.counted_iters, row.iters_to_band, row.h_final, row.h_ref)
            )
        if capture is not None:
            capture.append(summary)  # after the recorded calls
        return out


def _returned_rows(summary, calls) -> list:
    """The study rows whose solve returned (and so was recorded), in call
    order; a solve that raised leaves h_final unset."""
    from bench_dual import CheckFailed

    rows = [r for r in summary.rows if r.h_final is not None]
    if len(rows) != len(calls):
        raise CheckFailed(f"{len(calls)} recorded solves for {len(rows)} rows")
    return rows


class FamilyNewton(Study):
    name = "family-newton"

    def __init__(self):
        super().__init__(50, ("newton",), (("solver", "two_pass_solve"),))

    def verify(self, spec, capture) -> dict:
        from bench_dual import TARGET_A, CheckFailed, Dual, check_reference, check_two_pass

        *calls, summary = capture
        rows = _returned_rows(summary, calls)
        ratios = []
        for row, (args, _, result) in zip(rows, calls):
            if row.error:
                continue
            net, config = args
            dual = Dual(net)
            ratios.append(check_two_pass(dual, result, config.mu, TARGET_A))
            y = result.pass2.x[net.num_sources:]
            dual_min = dual.minimum(1.0 / (result.scale * y))
            check_reference(row.h_ref, dual_min)
            if result.h_final + dual_min < -1e-9 * max(abs(result.h_final), 1.0):
                raise CheckFailed(f"trial {row.trial}: h_final below the dual bound")
            if not (row.h_final == result.h_final and row.counted_iters == result.total_dual_iters
                    and row.final_feasible and row.rel_error <= TARGET_A):
                raise CheckFailed(f"trial {row.trial}: row does not match its solve")
        return {"solves_checked": len(ratios), "max_rel_error_bound": max(ratios, default=None)}


class FamilyFirstOrder(Study):
    name = "family-firstorder"

    def __init__(self):
        super().__init__(
            FIRST_ORDER_TRIALS,
            ("diagonal", "subgradient"),
            (("baselines", "diagonal_scaled_solve"), ("baselines", "subgradient_solve")),
        )

    def verify(self, spec, capture) -> dict:
        from bench_dual import BAND, CheckFailed, Dual, check_first_order, check_reference

        *calls, summary = capture
        rows = _returned_rows(summary, calls)
        gaps = []
        for row, (args, kwargs, result) in zip(rows, calls):
            if row.error:
                continue
            net, _ = args
            dual = Dual(net)
            check_reference(row.h_ref, dual.minimum(result.prices))
            gaps.append(check_first_order(dual, result, kwargs["h_ref"], BAND))
            if row.counted_iters != result.iterations or row.h_final != result.h_final:
                raise CheckFailed(f"trial {row.trial} {row.method}: row does not match its solve")
        return {"solves_checked": len(gaps), "max_dual_gap": max(gaps, default=None)}


class ScaleNewton:
    """Single-pass newton_solve, as `netnewton solve` runs it, on a ladder
    of random instances at the family's route density. Each pass solves a
    fresh copy of every instance, so per-instance caches (the companion
    graph) are rebuilt as they are for a caller loading the network."""

    name = "scale-newton"

    def build(self, seed: int):
        nets = [
            netnewton.experiment.random_network(L, S, SCALE_P, [INSTANCE_SEED, L, S])
            for L, S in SCALE_LADDER
        ]
        return nets, _order(seed, len(nets))

    def run_pass(self, inputs, capture: list | None = None) -> PassResult:
        nets, order = inputs
        out = PassResult()
        results = {}
        for idx in order:
            net = copy.copy(nets[idx])
            res, ok = _attempt(
                out, f"ladder {SCALE_LADDER[idx]}",
                lambda: netnewton.solver.newton_solve(
                    netnewton.model.BarrierProblem(net, 1.0, 1.0), netnewton.solver.SolverConfig()),
                lambda r: r.converged,
            )
            if res is None:
                results[idx] = None
                continue
            out.price_updates += res.total_dual_iters
            results[idx] = (res.total_dual_iters, res.primal_iters, res.h_final)
            if ok and capture is not None:
                capture.append((net, res))
        out.fingerprint = [results[i] for i in sorted(results)]
        return out

    def verify(self, inputs, capture) -> dict:
        from bench_dual import Dual, check_barrier_gap

        gaps = [check_barrier_gap(Dual(net), res.x, 1.0, 1.0) for net, res in capture]
        return {"solves_checked": len(capture), "max_barrier_gap": max(gaps, default=None)}


def mixed_network(seed: int):
    """Bernoulli(0.5) routing on MIXED_SHAPE links x sources; even sources
    get a log utility (weight in [5, 15]), odd ones a concave quadratic
    whose break point slope/curvature lies 1.2-2x above the largest
    capacity. Redrawn until build_network accepts it."""
    L, S = MIXED_SHAPE
    rng = np.random.default_rng(seed)
    model = netnewton.model
    while True:
        routing = (rng.random((L, S)) < 0.5).astype(float)
        caps = rng.uniform(20.0, 50.0, size=L)
        utilities = []
        for i in range(S):
            if i % 2 == 0:
                utilities.append(model.LogUtility(float(rng.uniform(5.0, 15.0))))
            else:
                slope = float(rng.uniform(0.5, 1.5))
                break_point = caps.max() * float(rng.uniform(1.2, 2.0))
                utilities.append(model.QuadraticUtility(slope, slope / break_point))
        try:
            return model.build_network(routing, caps, utilities)
        except model.InvalidNetworkError:
            continue


class MixedUtility:
    """Two-pass Newton and both baselines on log/quadratic instances."""

    name = "mixed-utility"

    def build(self, seed: int):
        nets = [mixed_network(s) for s in MIXED_SEEDS]
        return nets, _order(seed, len(nets))

    def run_pass(self, inputs, capture: list | None = None) -> PassResult:
        nets, order = inputs
        solver, baselines = netnewton.solver, netnewton.baselines
        out = PassResult()
        results = {}
        for idx in order:
            net = copy.copy(nets[idx])
            reference, _ = _attempt(out, f"instance {idx} reference",
                                    lambda: solver.reference_optimum(net), lambda r: True)
            if reference is None:
                results[idx] = None
                continue
            h_ref = reference[1]
            newton_cfg = solver.SolverConfig(a=0.01, store_iterates=False)
            sub_cfg = baselines.FirstOrderConfig(
                stepsize=baselines.subgradient_family_stepsize(net))
            diag_cfg = baselines.FirstOrderConfig(stepsize=MIXED_DIAGONAL_STEPSIZE)
            solves = [
                ("newton", newton_cfg, lambda: solver.two_pass_solve(net, newton_cfg),
                 lambda r: r.pass1.converged and r.pass2.converged),
                ("subgradient", sub_cfg,
                 lambda: baselines.subgradient_solve(net, sub_cfg, h_ref=h_ref),
                 lambda r: r.converged),
                ("diagonal", diag_cfg,
                 lambda: baselines.diagonal_scaled_solve(net, diag_cfg, h_ref=h_ref),
                 lambda r: r.converged),
            ]
            row = [h_ref]
            for method, config, solve, converged in solves:
                res, ok = _attempt(out, f"instance {idx} {method}", solve, converged)
                if res is None:
                    row.append(None)
                    continue
                count = res.total_dual_iters if method == "newton" else res.iterations
                out.price_updates += count
                row.append((count, res.h_final))
                if ok and capture is not None:
                    capture.append((method, net, h_ref, config, res))
            results[idx] = row
        out.fingerprint = [results[i] for i in sorted(results)]
        return out

    def verify(self, inputs, capture) -> dict:
        from bench_dual import (
            BAND, TARGET_A, Dual, check_first_order, check_reference, check_two_pass,
        )

        ratios, gaps = [], []
        for method, net, h_ref, config, res in capture:
            dual = Dual(net)
            if method == "newton":
                ratios.append(check_two_pass(dual, res, config.mu, TARGET_A))
                check_reference(h_ref, dual.minimum())
            else:
                gaps.append(check_first_order(dual, res, h_ref, BAND))
        return {"solves_checked": len(capture), "max_rel_error_bound": max(ratios, default=None),
                "max_dual_gap": max(gaps, default=None)}


WORKLOADS = {w.name: w for w in (FamilyNewton(), FamilyFirstOrder(), ScaleNewton(), MixedUtility())}
