"""Command-line interface.

Subcommands: solve (run the distributed method on a network file),
compare (multi-method study from an experiment spec), spectra (dual-graph
report at the feasible start), aux-dump (companion-graph debug dump), and
gen (seeded random instance). Outputs land in --out / --trace paths or,
when relative, under NETNEWTON_OUTDIR if that variable is set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .auxgraph import build_auxiliary_graph
from .experiment import load_experiment_spec, random_network, run_comparison
from .model import (
    BarrierProblem,
    eval_hessian_diag,
    feasible_init,
    load_network,
    network_to_dict,
    save_network,
)
from .solver import (
    SolverConfig,
    newton_solve,
    trace_to_json,
    two_pass_solve,
    write_trace_csv,
)
from .splitting import spectral_diagnostics

__all__ = ["main", "build_parser"]


def _outpath(raw: str) -> Path:
    path = Path(raw)
    base = os.environ.get("NETNEWTON_OUTDIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netnewton",
        description="Distributed Newton-type rate control and baselines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the distributed method on a network file")
    solve.add_argument("network", help="network JSON file")
    solve.add_argument("--mu", type=float, default=1.0)
    solve.add_argument("--p", type=float, default=1e-3)
    solve.add_argument("--epsilon", type=float, default=1e-4)
    solve.add_argument("--V", type=float, default=0.12)
    solve.add_argument("--b", type=float, default=None)
    solve.add_argument("--theta-term", type=float, default=1e-8)
    solve.add_argument("--max-iters", type=int, default=200)
    solve.add_argument("--two-pass", action="store_true",
                       help="run the rescaled second pass (relative target --a)")
    solve.add_argument("--a", type=float, default=0.01)
    solve.add_argument("--trace", help="write the iteration trace CSV here")
    solve.add_argument("--json", dest="json_out",
                       help="write the full trace JSON (certificates included)")
    solve.add_argument("--spectra", action="store_true",
                       help="embed per-iteration dual-graph diagnostics in the JSON")

    comp = sub.add_parser("compare", help="run the comparison study")
    comp.add_argument("spec", help="experiment spec JSON file")
    comp.add_argument("--out", help="write the summary JSON here")

    spect = sub.add_parser("spectra", help="dual-graph spectral report")
    spect.add_argument("network")
    spect.add_argument("--mu", type=float, default=1.0)
    spect.add_argument("--out", help="write the report JSON here")

    aux = sub.add_parser("aux-dump", help="dump the companion graph")
    aux.add_argument("network")
    aux.add_argument("--out", help="write the dump JSON here")

    gen = sub.add_parser("gen", help="generate a seeded random network file")
    gen.add_argument("--links", type=int, required=True)
    gen.add_argument("--sources", type=int, required=True)
    gen.add_argument("--prob", type=float, default=0.5)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output file (default: stdout)")

    return parser


def _emit(doc: dict, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out:
        _outpath(out).write_text(text + "\n")
    else:
        print(text)


def _cmd_solve(args) -> int:
    net = load_network(args.network)
    config = SolverConfig(
        mu=args.mu, p=args.p, epsilon=args.epsilon, V=args.V, b=args.b,
        theta_term=args.theta_term, max_primal_iters=args.max_iters,
        a=args.a, record_spectra=args.spectra,
    )
    if args.two_pass:
        result = two_pass_solve(net, config)
        records = result.pass1.trace + result.pass2.trace
        doc = {
            "two_pass": {
                "scale": result.scale,
                "shift": result.shift,
                "h_pass1": result.h_pass1,
                "h_final": result.h_final,
                "total_dual_iters": result.total_dual_iters,
            },
            "pass1": trace_to_json(result.pass1, config),
            "pass2": trace_to_json(result.pass2, config),
        }
        final = result.pass2
    else:
        final = newton_solve(BarrierProblem(net, config.mu), config)
        records = final.trace
        doc = trace_to_json(final, config)
    if args.trace:
        write_trace_csv(records, _outpath(args.trace))
    if args.json_out:
        _emit(doc, args.json_out)
    print(
        f"converged={final.converged} primal_iters={final.primal_iters} "
        f"dual_iters={final.total_dual_iters} h={final.h_final:.10g}",
        file=sys.stderr,
    )
    return 0 if final.converged else 1


def _cmd_compare(args) -> int:
    spec = load_experiment_spec(args.spec)
    summary = run_comparison(spec)
    out = args.out
    if out is None and spec.outdir is not None:
        out = str(Path(spec.outdir) / "summary.json")
    _emit(summary.to_dict(), out)
    return 0


def _cmd_spectra(args) -> int:
    net = load_network(args.network)
    x0 = feasible_init(net)
    H = eval_hessian_diag(BarrierProblem(net, args.mu), x0)
    report = spectral_diagnostics(net, H)
    _emit({"dual_graph": report.to_dict()}, args.out)
    return 0


def _cmd_aux_dump(args) -> int:
    net = load_network(args.network)
    aux = build_auxiliary_graph(net)
    _emit(aux.to_dict(), args.out)
    return 0


def _cmd_gen(args) -> int:
    net = random_network(args.links, args.sources, args.prob, args.seed)
    if args.out:
        save_network(net, _outpath(args.out))
    else:
        print(json.dumps(network_to_dict(net), indent=2))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "spectra": _cmd_spectra,
    "aux-dump": _cmd_aux_dump,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"netnewton: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"netnewton: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
