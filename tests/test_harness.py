import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import netnewton
from netnewton import (
    BarrierProblem,
    LogUtility,
    SolverConfig,
    build_auxiliary_graph,
    build_network,
    newton_solve,
    random_network,
    run_comparison,
    save_network,
    two_pass_solve,
)
from netnewton.cli import build_parser, main
from netnewton.experiment import ExperimentSpec, load_experiment_spec
from netnewton.model import network_to_dict


class TestRandomNetwork:
    def test_seed_determinism(self):
        a = random_network(8, 5, 0.5, 42)
        b = random_network(8, 5, 0.5, 42)
        assert json.dumps(network_to_dict(a)) == json.dumps(network_to_dict(b))

    def test_all_ones_routing_valid(self):
        net = random_network(4, 3, 1.0, 0)
        assert net.routing.sum() == 12

    def test_draw_validity_rate(self):
        # fraction of raw 15x8 draws at p=0.5 surviving the rejection rules
        rng = np.random.default_rng(2024)
        draws = rng.random((10_000, 15, 8)) < 0.5
        rows_ok = draws.sum(axis=2).min(axis=1) >= 1
        cols_ok = draws.sum(axis=1).min(axis=1) >= 1
        candidates = np.nonzero(rows_ok & cols_ok)[0]
        valid = 0
        for idx in candidates:
            R = draws[idx].astype(float)
            adj = (R @ R.T) > 0
            seen = {0}
            stack = [0]
            while stack:
                i = stack.pop()
                for j in np.nonzero(adj[i])[0]:
                    if int(j) not in seen:
                        seen.add(int(j))
                        stack.append(int(j))
            valid += len(seen) == 15
        assert valid / 10_000 > 0.9

    @pytest.mark.parametrize("kwargs", [
        {"links": 0}, {"sources": 0}, {"bernoulli_p": 0.0}, {"bernoulli_p": 1.5},
        {"omega_range": (0.2, 0.5)}, {"capacity_range": (0.0, 5.0)},
    ])
    def test_impossible_arguments_rejected_before_drawing(self, kwargs):
        args = dict(links=4, sources=3, bernoulli_p=0.5, seed=0, max_redraws=1)
        with pytest.raises(ValueError):
            random_network(**{**args, **kwargs})

    @pytest.mark.parametrize("name, bad", [
        ("capacity_range", (20.0, float("inf"))), ("capacity_range", (-float("inf"), 5.0)),
        ("omega_range", (5.0, float("nan"))), ("omega_range", (float("nan"), 15.0)),
        ("capacity_range", (50.0, 20.0)),
    ])
    def test_bad_range_rejected_by_name(self, name, bad):
        # no uniform draw lies in a reversed or unbounded range; numpy would
        # raise OverflowError, or a ValueError that names no range
        with pytest.raises(ValueError, match=f"^{name} must be finite with low <= high"):
            random_network(4, 3, 0.5, 0, **{name: bad})

    def test_redraw_cap(self):
        with pytest.raises(RuntimeError, match="draws"):
            # at this density a 20x20 draw with no empty column is hopeless
            random_network(20, 20, 0.01, 0, max_redraws=20)


class TestMetrics:
    def test_feedback_conservation(self, two_flow_network):
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), SolverConfig())
        m = res.metrics
        S = two_flow_network.num_sources
        assert m.dual_feedbacks == S * m.dual_rounds
        assert m.dual_pushes == S * m.dual_rounds
        rounds = build_auxiliary_graph(two_flow_network).diameter + 1
        assert m.summation_rounds == rounds * res.primal_iters
        assert m.aux_construction_rounds == S - 1

    def test_snapshot_deltas_sum_to_totals(self, two_flow_network):
        # the per-step consensus rounds in the trace add up to the total
        res = newton_solve(BarrierProblem(two_flow_network, 1.0), SolverConfig())
        assert res.primal_iters > 1
        assert all(rec.consensus_rounds > 0 for rec in res.trace)
        total = sum(rec.consensus_rounds for rec in res.trace)
        assert total == res.metrics.consensus_rounds

    def test_study_trial_0_counts_pinned(self):
        # seed-7 study trial 0; pass 2 repeats pass 1 and is not run
        seed = np.random.SeedSequence(7).spawn(1)[0]
        net = random_network(15, 8, 0.5, seed)
        tp = two_pass_solve(net, SolverConfig(store_iterates=False))
        assert tp.pass2_reused
        assert tp.pass1.metrics.totals() == {
            "dual_rounds": 637, "init_pushes": 368, "init_feedbacks": 184,
            "dual_pushes": 5096, "dual_feedbacks": 5096, "consensus_execs": 335,
            "consensus_rounds": 1675, "summation_rounds": 115,
            "aux_construction_rounds": 7,
        }
        assert [rec.consensus_rounds for rec in tp.traces] == [
            30, 25, 25, 30, 30, 30, 35, 40, 45, 50, 65, 90, 130, 170, 210, 225,
            220, 175, 10, 10, 10, 10, 10,
        ]


@pytest.fixture(scope="module")
def small_summary():
    spec = ExperimentSpec(
        trials=2, links=6, sources=4, seed=11,
        max_first_order_iters=200_000,
    )
    return spec, run_comparison(spec)


class TestRunComparison:
    def test_three_method_rows_per_trial(self, small_summary):
        spec, summary = small_summary
        assert len(summary.rows) == spec.trials * 3
        for method in spec.methods:
            assert summary.failures(method) == 0
            assert summary.mean_iters(method) is not None

    def test_all_methods_near_reference(self, small_summary):
        spec, summary = small_summary
        for row in summary.rows:
            if row.method == "newton":
                # judged on the scale its relative-error target refers to
                assert row.rel_error <= spec.a
            else:
                assert row.rel_error <= 5e-3

    def test_slack_profiles_match_method_character(self, small_summary):
        _, summary = small_summary
        for row in summary.rows:
            if row.method == "newton":
                assert row.min_slack_overall > 0  # interior at every step
            else:
                assert row.min_slack_overall < 0  # feasible only in the end
            assert row.final_feasible

    def test_study_row_keys(self, small_summary):
        _, summary = small_summary
        for row in summary.to_dict()["trials"]:
            assert set(row) == {
                "trial", "method", "counted_iters", "iters_to_band", "h_final",
                "h_ref", "rel_error", "final_feasible", "min_slack_overall", "error",
            }

    def test_deterministic_rerun(self, small_summary):
        spec, summary = small_summary
        again = run_comparison(spec)
        assert json.dumps(summary.to_dict()) == json.dumps(again.to_dict())

    def test_no_solve_outlives_its_row(self, monkeypatch):
        # each row's first-order result, histories included, must be freed
        # before the next row's solve starts
        results, alive_at_start = [], []

        def tracked(solve):
            def wrapper(*args, **kwargs):
                alive_at_start.append(sum(ref() is not None for ref in results))
                res = solve(*args, **kwargs)
                results.append(weakref.ref(res))
                return res
            return wrapper

        for name in ("diagonal_scaled_solve", "subgradient_solve"):
            monkeypatch.setattr(
                netnewton.experiment, name, tracked(getattr(netnewton.experiment, name))
            )
        spec = ExperimentSpec(
            trials=1, seed=7, methods=("diagonal", "subgradient"), max_first_order_iters=500
        )
        summary = run_comparison(spec)
        assert [row.h_final is not None for row in summary.rows] == [True, True]
        assert alive_at_start == [0, 0]
        assert all(ref() is None for ref in results)

    def test_unconverged_newton_row_records_error(self):
        # at (120, 60) pass 2 of the two-pass solve does not converge
        spec = ExperimentSpec(trials=1, links=120, sources=60, seed=7, methods=("newton",))
        summary = run_comparison(spec)
        (row,) = summary.rows
        assert row.error == "did not meet the termination criterion"
        assert row.counted_iters is None
        assert row.rel_error > spec.a
        assert None not in (row.h_final, row.final_feasible, row.min_slack_overall)
        assert summary.failures("newton") == 1 and summary.mean_iters("newton") is None

    def test_spec_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"trials": 2, "links": 5, "sources": 3, "seed": 1}))
        spec = load_experiment_spec(path)
        assert spec.trials == 2 and spec.links == 5

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentSpec(methods=("newton", "genie"))


_ONE_LOG_SOURCE = '[{"route": [0], "utility": {"family": "log"}}]'


class TestCli:
    @pytest.fixture
    def example_file(self, tmp_path, two_flow_network):
        path = tmp_path / "two_flow.json"
        save_network(two_flow_network, path)
        return path

    def test_gen_deterministic_file(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["gen", "--links", "6", "--sources", "4", "--seed", "9",
                     "--out", str(out1)]) == 0
        assert main(["gen", "--links", "6", "--sources", "4", "--seed", "9",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_solve_writes_monotone_trace(self, tmp_path, example_file):
        trace = tmp_path / "trace.csv"
        code = main(["solve", str(example_file), "--trace", str(trace)])
        assert code == 0
        rows = trace.read_text().splitlines()
        header = rows[0].split(",")
        f_idx, phase_idx = header.index("f"), header.index("phase")
        damped_f = [float(r.split(",")[f_idx]) for r in rows[1:]
                    if r.split(",")[phase_idx] == "damped"]
        assert all(b <= a for a, b in zip(damped_f, damped_f[1:]))

    def test_solve_two_pass_json(self, tmp_path, example_file):
        out = tmp_path / "out.json"
        code = main(["solve", str(example_file), "--two-pass", "--json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert "two_pass" in doc and doc["pass2"]["converged"]

    def test_solve_two_pass_counts_a_reused_pass_once(self, tmp_path, example_file):
        # on this network pass 2 would repeat pass 1 (scale 1, mu 1)
        out, trace = tmp_path / "out.json", tmp_path / "trace.csv"
        assert main(["solve", str(example_file), "--two-pass", "--json", str(out),
                     "--trace", str(trace)]) == 0
        doc = json.loads(out.read_text())
        assert doc["two_pass"]["pass2_reused"] is True
        assert doc["two_pass"]["total_dual_iters"] == doc["pass1"]["total_dual_iters"]
        rows = trace.read_text().splitlines()[1:]
        assert len(rows) == doc["pass1"]["primal_iters"]

    def test_solve_two_pass_summary_counts_both_passes(self, tmp_path, capsys):
        # capacity 0.01 forces a rescaled pass 2, so both passes run
        path, out = tmp_path / "one_link.json", tmp_path / "out.json"
        save_network(build_network([[1]], [0.01], [LogUtility(1.0)]), path)
        assert main(["solve", str(path), "--two-pass", "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["two_pass"]["pass2_reused"] is False
        summary = dict(f.split("=") for f in capsys.readouterr().err.split())
        total = doc["two_pass"]["total_dual_iters"]
        assert int(summary["dual_iters"]) == total == 38
        assert total == doc["pass1"]["total_dual_iters"] + doc["pass2"]["total_dual_iters"]
        assert int(summary["primal_iters"]) == (
            doc["pass1"]["primal_iters"] + doc["pass2"]["primal_iters"]
        )
        assert summary["converged"] == "True"

    def test_invalid_parameter_window_rejected(self, example_file):
        assert main(["solve", str(example_file), "--b", "0.5"]) == 2

    def test_malformed_network_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["solve", str(bad)]) == 2

    def test_missing_file_rejected(self):
        assert main(["solve", "/nonexistent/net.json"]) == 2

    @pytest.mark.parametrize("route, utility", [
        ([0.5], {"family": "log", "weight": 1.0}),
        ([None], {"family": "log", "weight": 1.0}),
        ([0], {"family": "log", "weight": "x"}),
    ])
    def test_malformed_network_fields_rejected(self, tmp_path, capsys, route, utility):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"links": [1.0], "sources": [
            {"route": route, "utility": utility}]}))
        assert main(["solve", str(bad)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    # the log case used to fail on the Hessian, the quadratic one on stage 2
    # after two numpy warnings
    @pytest.mark.parametrize("utility", [
        '{"family": "log", "weight": Infinity}',
        '{"family": "quadratic", "slope": Infinity, "curvature": 1.0}',
    ], ids=["log", "quadratic"])
    def test_non_finite_utility_rejected(self, tmp_path, capsys, utility):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"links": [1.0], "sources": [{{"route": [0], "utility": {utility}}}]}}')
        assert main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "utility 0 has a non-finite parameter" in err

    @pytest.mark.parametrize("links", ['[true, 2.5]', '[1.0, "2.5"]', '"12"'])
    def test_non_numeric_capacities_rejected(self, tmp_path, capsys, links):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"links": {links}, "sources": [{{"route": [0, 1], '
                       '"utility": {"family": "log", "weight": 1.0}}]}')
        assert main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "capacities must be numbers" in err

    @pytest.mark.parametrize("doc", [
        {"trials": 1, "colour": "red"},
        [1, 2],
        {"trials": "many"},
        {"trials": 1, "a": "x"},
        {"trials": 1, "omega_range": [0.2, 0.5]},
        {"trials": 1, "max_first_order_iters": 0},
        {"trials": 1, "a": 0},
        {"trials": 1, "a": -0.5},
        {"trials": 1, "diagonal_stepsize": -1},
        {"trials": 1, "subgradient_stepsize": 0},
        {"trials": 1, "a": float("nan")},
        {"trials": 1, "diagonal_stepsize": float("nan")},
        {"trials": 1, "subgradient_stepsize": float("nan")},
        # bools pass as numbers.Integral and numbers.Real
        {"trials": True},
        {"trials": 1, "seed": False},
        {"trials": 1, "max_first_order_iters": True},
        {"trials": 1, "bernoulli_p": True},
        {"trials": 1, "a": True},
        {"trials": 1, "omega_range": [5.0, True]},
        {"trials": 1, "diagonal_stepsize": True},
        # json writes infinity as Infinity, which it reads back as a float
        {"trials": 1, "a": float("inf")},
        {"trials": 1, "capacity_range": [20.0, float("inf")]},
        {"trials": 1, "omega_range": [5.0, float("nan")]},
        {"trials": 1, "capacity_range": [50.0, 20.0]},
        {"trials": 1, "omega_range": [5.0, 10.0, 15.0], "capacity_range": [20.0]},
        # a repeated method ran its rows twice, and no method wrote an empty study
        {"trials": 1, "methods": ["newton", "newton"]},
        {"trials": 1, "methods": []},
    ])
    def test_malformed_spec_rejected(self, tmp_path, capsys, doc):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc))
        assert main(["compare", str(spec)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("method", ["diagonal", "subgradient"])
    def test_infinite_stepsize_spec_rejected(self, tmp_path, capsys, method):
        # JSON's Infinity reads as a float; the row would run and report a
        # divergence at step 1, blaming a stepsize the spec set to infinity
        spec = tmp_path / "spec.json"
        spec.write_text(f'{{"trials": 1, "seed": 7, "methods": ["{method}"], '
                        f'"{method}_stepsize": Infinity}}')
        assert main(["compare", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "stepsize must be positive and finite" in err

    @pytest.mark.parametrize("flag", ["--a", "--mu", "--epsilon", "--theta-term"])
    def test_nan_parameter_rejected(self, capsys, example_file, flag):
        assert main(["solve", str(example_file), "--two-pass", flag, "nan"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    # an infinite target is vacuous and an infinite mu breaks the Hessian;
    # each is refused up front with a message that names it
    @pytest.mark.parametrize("flag, name", [
        ("--a", "target a must"), ("--mu", "finite mu"), ("--epsilon", "epsilon must"),
        ("--theta-term", "theta_term must"),
    ])
    def test_infinite_parameter_rejected(self, capsys, example_file, flag, name):
        assert main(["solve", str(example_file), "--two-pass", flag, "inf"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and name in err and "finite" in err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_nonpositive_max_iters_rejected(self, capsys, example_file, cap):
        assert main(["solve", str(example_file), "--max-iters", cap]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize("links, sources, message", [
        ("[1e309]", _ONE_LOG_SOURCE, "capacities must be finite"),
        ("[NaN]", _ONE_LOG_SOURCE, "capacities must be finite"),
        ("[]", "[]", "at least one link and one source"),
        # the Hessian at the feasible start overflows to inf
        ("[1e-300]", _ONE_LOG_SOURCE, "hessian diagonal must be finite"),
    ], ids=["inf-capacity", "nan-capacity", "empty", "hessian-overflow"])
    def test_unusable_network_rejected(self, tmp_path, capsys, links, sources, message):
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"links": {links}, "sources": {sources}}}')
        assert main(["solve", str(bad)]) in (1, 2)
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("capacity_range, code, message, injected", [
        # a failing saddle residual check of the reference optimum, injected
        ([1e12, 2e12], 1, "saddle residual too large", True),
        # the Hessian at the feasible start overflows to inf
        ([1e-150, 2e-150], 2, "finite and strictly positive", False),
        ([1e-300, 2e-300], 2, "finite and strictly positive", False),
    ], ids=["huge", "tiny", "tinier"])
    def test_compare_reference_failure_reported(self, tmp_path, capsys, monkeypatch,
                                                capacity_range, code, message, injected):
        # the stacked reference solve runs before any row, so its failure
        # stops the study with one line on stderr, never a traceback
        if injected:
            def failing(*args):
                raise AssertionError(message)

            monkeypatch.setattr(netnewton.solver, "stacked_kkt_direction", failing)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"trials": 2, "capacity_range": capacity_range,
                                    "methods": ["newton"]}))
        assert main(["compare", str(spec)]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_compare_huge_capacities_completes(self, tmp_path, capsys):
        # the saddle residual tolerance scales with the terms, so rounding
        # at capacities near 1e12 no longer stops the study
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"trials": 2, "capacity_range": [1e12, 2e12],
                                    "methods": ["newton"]}))
        assert main(["compare", str(spec)]) == 0
        rows = json.loads(capsys.readouterr().out)["trials"]
        assert [row["error"] for row in rows] == [None, None]
        assert all(0 <= row["rel_error"] <= 0.01 for row in rows)

    def test_parser_defaults_have_one_owner(self):
        parser = build_parser()
        args = vars(parser.parse_args(["solve", "x.json"]))
        config = SolverConfig()
        names = {"max_iters": "max_primal_iters"}
        for flag in ("mu", "p", "epsilon", "V", "theta_term", "max_iters", "a"):
            assert args[flag] == getattr(config, names.get(flag, flag)), flag
        assert parser.parse_args(["spectra", "x.json"]).mu == BarrierProblem.mu
        gen = parser.parse_args(["gen", "--links", "2", "--sources", "2"])
        assert gen.prob == ExperimentSpec().bernoulli_p

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_directory_argument_rejected(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_impossible_gen_arguments_rejected(self, capsys):
        assert main(["gen", "--links", "0", "--sources", "2"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_spectra_report(self, tmp_path, example_file, capsys):
        assert main(["spectra", str(example_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["dual_graph"]) == {
            "lambda1", "lower", "upper", "max_cut", "max_out_degree"
        }

    def test_aux_dump(self, example_file, capsys):
        assert main(["aux-dump", str(example_file)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta"] == [[0], [1], [0, 1], [0], [1]]

    def test_compare_summary_shape(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "trials": 1, "links": 5, "sources": 3, "seed": 3,
            "methods": ["newton", "diagonal", "subgradient"],
            "max_first_order_iters": 200000,
        }))
        out = tmp_path / "summary.json"
        assert main(["compare", str(spec), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["means"]) == {"newton", "diagonal", "subgradient"}
        assert len(doc["trials"]) == 3

    def test_outdir_environment_variable(self, tmp_path, example_file, monkeypatch):
        monkeypatch.setenv("NETNEWTON_OUTDIR", str(tmp_path / "outputs"))
        assert main(["solve", str(example_file), "--trace", "runs/trace.csv"]) == 0
        assert (tmp_path / "outputs" / "runs" / "trace.csv").exists()

    def test_entry_point_runs(self):
        # the child imports the same netnewton as this process, installed or not
        src = str(Path(netnewton.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "netnewton.cli", "gen", "--links", "3",
             "--sources", "2", "--seed", "1"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)
