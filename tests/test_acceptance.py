"""Acceptance suite: one test per criterion, each printing a PASS line.

Two clauses encode stated bounds that are not theorems and fail by
construction on random instances, with self-contained explanations in
their assertion messages: the cut-based lower bound on the contraction
factor (criterion 3) and the barrier-gap bound without the
barrier-parameter factor (criterion 9, first clause). Every other
criterion must pass at its stated tolerance.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from netnewton import (
    BarrierProblem,
    DualControlConfig,
    SolverConfig,
    build_auxiliary_graph,
    build_dual_graph,
    build_splitting,
    distributed_sum,
    dual_step_distributed,
    dual_step_matrix,
    eval_grad,
    eval_h,
    eval_hessian_diag,
    init_dual_state,
    kkt_direction,
    newton_solve,
    phase_diagnostics,
    primal_direction,
    random_network,
    reference_optimum,
    reference_solve,
    run_dual_with_error_control,
    solve_dual_exact,
    spectral_diagnostics,
    spectral_radius,
    two_pass_solve,
)
from netnewton.cli import main as cli_main
from netnewton.experiment import ExperimentSpec, run_comparison
from netnewton.model import save_network

from conftest import example_state, init_state, random_positive_state, three_flow_example
from test_auxgraph import check_structure, sigma


def report(criterion: int, message: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def sized_network(rng, max_links=20, max_sources=10):
    L = int(rng.integers(2, max_links + 1))
    S = int(rng.integers(2, max_sources + 1))
    return random_network(L, S, 0.5, rng.integers(0, 2**31))


@dataclass
class SolveCase:
    name: str
    network: object
    problem: BarrierProblem
    config: SolverConfig
    result: object
    f_ref: float


@pytest.fixture(scope="session")
def solve_batch(request):
    """The five-link two-source example plus twenty random networks solved
    with default tolerances, with exact references; shared by criteria
    7, 8 and 9."""
    import netnewton

    cases = []
    two_flow = netnewton.build_network(
        [[1, 0], [0, 1], [1, 1], [1, 0], [0, 1]],
        [1, 1, 2, 1, 1],
        [netnewton.LogUtility(1.0)] * 2,
    )
    nets = [("two_flow", two_flow)]
    seeds = np.random.SeedSequence(881).spawn(20)
    nets += [(f"rand{i}", random_network(15, 8, 0.5, s)) for i, s in enumerate(seeds)]
    for name, net in nets:
        config = SolverConfig()  # p=1e-3, epsilon=1e-4, V=0.12 defaults
        problem = BarrierProblem(net, config.mu)
        result = newton_solve(problem, config)
        assert result.converged, f"{name} did not converge"
        f_ref = reference_solve(problem, tol=1e-12).f_final
        cases.append(SolveCase(name, net, problem, config, result, f_ref))
    return cases


def test_criterion_01_dual_splitting_soundness():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        net = sized_network(rng)
        _, H, g = init_state(net)
        lam1 = spectral_radius(build_dual_graph(net, H))
        assert lam1 < 1.0
        w_star = solve_dual_exact(net, H, g)
        split = build_splitting(net, H, g)
        w = np.zeros(net.num_links)
        tol = 1e-9
        for _ in range(200_000):
            if np.abs(w - w_star).max() <= tol:
                break
            w = dual_step_matrix(split, w)
        assert np.abs(w - w_star).max() <= tol, "price iteration failed to reach 1e-9"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"100 instances contract (rho<1) and reach the dense solution; {elapsed:.1f}s")


def test_criterion_02_distributed_matrix_equivalence():
    rng = np.random.default_rng(1002)
    for trial in range(100):
        net = sized_network(rng, max_links=15, max_sources=8)
        if trial % 2:
            _, H, g = random_positive_state(net, rng)
        else:
            _, H, g = init_state(net)
        w = rng.normal(size=net.num_links) * rng.uniform(0.1, 5.0)
        split = build_splitting(net, H, g)
        state = init_dual_state(net, H, w)
        got = dual_step_distributed(net, H, g, state).w
        want = dual_step_matrix(split, w)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    report(2, "per-link and matrix updates agree to 1e-12 on 100 pairs")


def test_criterion_03_spectral_bounds():
    # reconstructions of the two worked examples
    for spread, lam_expected in ((False, 0.47), (True, 0.12)):
        net = three_flow_example(spread=spread)
        _, H, _ = example_state(net)
        rep = spectral_diagnostics(net, H)
        assert rep.lambda1 == pytest.approx(lam_expected, abs=0.05)
        assert rep.lower_bound <= rep.lambda1 <= rep.upper_bound
    # every generated instance with exact max-cut enumeration
    rng = np.random.default_rng(1003)
    failures = []
    for _ in range(40):
        net = sized_network(rng)
        _, H, _ = init_state(net)
        rep = spectral_diagnostics(net, H)
        assert rep.lambda1 <= rep.upper_bound + 1e-12
        if not rep.lower_bound <= rep.lambda1 + 1e-12:
            failures.append(
                (net.num_links, net.num_sources, rep.lower_bound, rep.lambda1)
            )
    assert not failures, (
        "cut-based lower bound exceeded the contraction factor on "
        f"{len(failures)}/40 generated instances, e.g. (L, S, lower, lambda1) = "
        f"{failures[0]}. Known-failing check: the quantity 4*mc/L is only a "
        "valid lower bound for special topologies (both worked examples "
        "satisfy it); the row-scaled coupling Laplacian admits counterexamples."
    )
    report(3, "spectral bounds hold on examples and generated instances")


def test_criterion_04_auxiliary_graph():
    rng = np.random.default_rng(1004)
    for _ in range(500):
        net = sized_network(rng, max_links=14, max_sources=9)
        aux = build_auxiliary_graph(net)
        check_structure(net, aux)
        assert aux.rounds == net.num_sources - 1
    report(4, "all six structural facts hold on 500 networks; S-1 rounds")


def test_criterion_05_distributed_summation():
    rng = np.random.default_rng(1005)
    for _ in range(100):
        net = sized_network(rng, max_links=12, max_sources=8)
        aux = build_auxiliary_graph(net)
        y_star = rng.uniform(0.0, 3.0, net.num_sources)
        z_star = rng.uniform(0.0, 3.0, net.num_links)
        run = distributed_sum(net, aux, y_star, z_star)
        expected = sigma(net, range(net.num_sources), y_star, z_star)
        scale = max(1.0, abs(expected))
        assert np.abs(run.y_final - expected).max() <= 1e-12 * scale
        assert np.abs(run.z_final - expected).max() <= 1e-12 * scale
        for t in range(1, net.num_sources + 1):
            for i in range(net.num_sources):
                want = sigma(net, aux.neighborhood(i, t), y_star, z_star)
                assert run.y_hist[t, i] == pytest.approx(want, rel=1e-9, abs=1e-9)
            for l in range(net.num_links):
                reach = frozenset().union(
                    *(aux.neighborhood(i, t - 1) for i in aux.theta[l])
                )
                want = sigma(net, reach, y_star, z_star)
                assert run.z_hist[t, l] == pytest.approx(want, rel=1e-9, abs=1e-9)
    report(5, "final sums exact everywhere; round-t values match the oracle")


def test_criterion_06_error_control_soundness():
    rng = np.random.default_rng(1006)
    checked = 0
    while checked < 100:
        net = sized_network(rng, max_links=15, max_sources=8)
        cfg = SolverConfig(max_primal_iters=4, theta_term=0.0)
        res = newton_solve(BarrierProblem(net, 1.0), cfg)
        for rec in res.trace:
            H = eval_hessian_diag(res_problem := BarrierProblem(net, 1.0), rec.x)
            g = eval_grad(res_problem, rec.x)
            lam1 = spectral_radius(build_dual_graph(net, H))
            F = min(max(1.05 * lam1, 1e-6), 0.999)
            dual_cfg = DualControlConfig(
                T=int(rng.integers(1, 10)), p=1e-3, epsilon=1e-4, F=F
            )
            split = build_splitting(net, H, g)
            w, cert = run_dual_with_error_control(net, H, split, dual_cfg)
            exact, _ = kkt_direction(net, H, g)
            inexact = primal_direction(net, H, g, w).delta
            gamma = exact - inexact
            err = float(np.sum(gamma * gamma * H))
            lam_sq = float(np.sum(inexact * inexact * H))
            assert err <= dual_cfg.p**2 * lam_sq + dual_cfg.epsilon + 1e-12, cert
            checked += 1
        # fixed-point distance bound along a fresh run on the same state
        split = build_splitting(net, H, g)
        w_star = solve_dual_exact(net, H, g)
        amp = np.sqrt(net.num_links) / (1.0 - F)
        w = np.ones(net.num_links)
        for _ in range(40):
            w_next = dual_step_matrix(split, w)
            assert np.abs(w_star - w).max() <= amp * np.abs(w_next - w).max() * (
                1 + 1e-9
            ) + 1e-15
            w = w_next
    report(6, f"{checked} accepted price solves satisfy the error tolerance")


def test_criterion_07_primal_invariants(solve_batch):
    damped_steps = 0
    for case in solve_batch:
        for rec in case.result.trace:
            assert rec.min_slack > 0, f"{case.name} slack at step {rec.k}"
            assert rec.feas_residual <= 1e-9, f"{case.name} residual at step {rec.k}"
        rep = phase_diagnostics(case.result, case.problem, case.config, case.f_ref)
        bad = [
            v for v in rep.violations
            if v["kind"] in ("damped_decrease", "stepsize_sandwich")
        ]
        assert not bad, f"{case.name}: {bad}"
        damped_steps += rep.steps_checked["damped"]
    assert damped_steps > 0
    report(7, f"positivity, feasibility and {damped_steps} damped decreases verified")


def test_criterion_08_quadratic_phase(solve_batch):
    quad_steps = 0
    subopt_checks = 0
    for case in solve_batch:
        rep = phase_diagnostics(case.result, case.problem, case.config, case.f_ref)
        bad = [
            v for v in rep.violations
            if v["kind"] in ("quadratic_contraction", "suboptimality")
        ]
        assert not bad, f"{case.name}: {bad}"
        quad_steps += rep.steps_checked["quadratic"]
        subopt_checks += rep.steps_checked["suboptimality"]
    assert quad_steps > 0 and subopt_checks > 0
    report(8, f"{quad_steps} contraction and {subopt_checks} suboptimality checks clean")


def test_criterion_09_barrier_error(solve_batch):
    randoms = [c for c in solve_batch if c.name != "two_flow"]
    gaps = []
    for case in randoms:
        _, h_ref = reference_optimum(case.network)
        gap = eval_h(case.network, case.result.x) - h_ref  # mu = 1 solutions
        nu = case.network.num_sources + case.network.num_links
        assert gap <= case.config.mu * nu, "even the corrected bound failed"
        gaps.append((case, h_ref, gap))
    # two-pass relative-error guarantee at the 1% target
    for case, h_ref, _ in gaps[:10]:
        tp = two_pass_solve(case.network, SolverConfig(a=0.01))
        assert tp.relative_error(h_ref) <= 0.01, case.name
    # the stated bound without the barrier-parameter factor
    worst = max(gap for _, _, gap in gaps)
    assert all(gap <= case.config.mu for case, _, gap in gaps), (
        f"h(x(mu)) - h_ref <= mu failed on the generated instances "
        f"(worst gap {worst:.3f} with mu=1). Known-failing check: the gap "
        "bound omits the barrier parameter, one log term per variable; the "
        "corrected bound mu*(S+L) and the 1% two-pass guarantee both hold."
    )
    report(9, "barrier gaps within mu and two-pass error within 1%")


@pytest.mark.slow
def test_criterion_10_comparison_study():
    started = time.perf_counter()
    spec = ExperimentSpec(trials=50, links=15, sources=8, bernoulli_p=0.5, seed=7)
    summary = run_comparison(spec)
    for method in spec.methods:
        assert summary.failures(method) == 0, summary.to_dict()["failures"]
    newton = summary.mean_iters("newton")
    diagonal = summary.mean_iters("diagonal")
    subgrad = summary.mean_iters("subgradient")
    assert newton * 10 <= diagonal, (newton, diagonal)
    assert newton * 10 <= subgrad, (newton, subgrad)
    assert newton < diagonal < subgrad  # the reported ordering
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"criterion 10 took {elapsed:.0f}s"
    report(
        10,
        f"means newton={newton:.0f}, diagonal={diagonal:.0f}, "
        f"subgradient={subgrad:.0f} over 50 nets in {elapsed:.0f}s",
    )


def test_criterion_11_determinism(tmp_path):
    spec_doc = {
        "trials": 2, "links": 6, "sources": 4, "seed": 5,
        "max_first_order_iters": 200000,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"summary_{tag}.json"
        assert cli_main(["compare", str(spec_path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    net = random_network(6, 4, 0.5, 5)
    net_path = tmp_path / "net.json"
    save_network(net, net_path)
    traces = []
    for tag in ("a", "b"):
        trace = tmp_path / f"trace_{tag}.csv"
        js = tmp_path / f"trace_{tag}.json"
        assert cli_main(
            ["solve", str(net_path), "--trace", str(trace), "--json", str(js)]
        ) == 0
        traces.append(trace.read_bytes() + js.read_bytes())
    assert traces[0] == traces[1]
    report(11, "identical seeds give byte-identical summaries and traces")
