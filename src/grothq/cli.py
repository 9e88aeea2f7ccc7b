"""Command-line entry point.

Subcommands: norms, classify, gbound, phases, states, projector, experiment.
Every command emits one JSON document on stdout (rarity runs may stream JSONL
records first).  Exit codes: 0 success, 2 input validation failure, 3
numerical non-convergence.
"""

import argparse
import json
import sys
from contextlib import ExitStack
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import experiments, forms, matrix_io, norms, states
from .linalg import (
    ConvergenceError,
    InputValidationError,
    eigenvalue_multiplicities,
    largest_singular_value,
    norm_entrywise_l1,
    require_square,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3


@dataclass
class CliConfig:
    optimizer: forms.OptimizerConfig = field(default_factory=forms.OptimizerConfig)
    output_path: Optional[str] = None


def load_config(path) -> CliConfig:
    """Type-check the config file's JSON; OptimizerConfig checks the ranges."""
    if path is None:
        return CliConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputValidationError(f"malformed config JSON in {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputValidationError(f"config file is not UTF-8 text: {path}: {exc}")
    if not isinstance(doc, dict):
        raise InputValidationError("config must be a JSON object")
    tol = doc.get("tolerances", {})
    if not isinstance(tol, dict) or not all(map(matrix_io.is_finite_number, tol.values())):
        raise InputValidationError("'tolerances' must be an object of finite numbers")
    settings = {key: doc[key] for key in ("seed", "starts") if key in doc}
    if "max_iterations" in tol:
        settings["max_iterations"] = tol["max_iterations"]
    for key, val in settings.items():
        if not matrix_io.is_json_int(val):
            raise InputValidationError(f"{key!r} must be an integer, got {val!r}")
    if "phase_tolerance" in tol:
        settings["phase_tolerance"] = float(tol["phase_tolerance"])
    output_path = doc.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise InputValidationError(f"'output_path' must be a string, got {output_path!r}")
    return CliConfig(forms.OptimizerConfig(**settings), output_path)


def _emit(doc: dict):
    print(json.dumps(doc))


def cmd_norms(args, cli_cfg):
    m = matrix_io.load_matrix(args.matrix)
    _emit(norms.norm_report(m).to_dict())


def cmd_gbound(args, cli_cfg):
    a = require_square(matrix_io.load_matrix(args.matrix))
    l1, gp = norm_entrywise_l1(a), forms.g_prime(a)
    _emit({
        "dim": a.shape[0],
        "l1_norm": l1,
        "s_max": largest_singular_value(a),
        "g_prime": gp,
        "g_upper": min(l1, gp),
    })


def cmd_classify(args, cli_cfg):
    m = matrix_io.load_matrix(args.matrix)
    cfg = cli_cfg.optimizer
    result = forms.classify(m, cfg)
    doc = result.to_dict()
    doc["optimizer"] = {"starts": cfg.starts, "seed": cfg.seed}
    _emit(doc)


def cmd_phases(args, cli_cfg):
    m = matrix_io.load_matrix(args.matrix)
    _emit(forms.phase_system_solvable(m).to_dict())


def cmd_states(args, cli_cfg):
    family = states.build_family(args.dim)
    which = args.check
    doc = {"dim": family.dim, "count": family.count,
           "recipe": [[int(p), int(k)] for p, k in family.recipe]}
    if family.dim >= 5:
        doc["note"] = ("construction beyond dim 4 is a conjectural extension; "
                       "checks report empirical results only")
    if which in ("all", "resolution"):
        doc["resolution_residual"] = states.resolution_check(family)
    if which in ("all", "isotropy"):
        ok, multisets = states.isotropy_check(family)
        doc["isotropy"] = {"ok": ok, "multiset": [float(x) for x in multisets[0]]}
    if which in ("all", "permutation"):
        if family.dim <= 6:
            ok, _ = states.permutation_invariance_check(family)
            doc["permutation_invariance"] = {"ok": ok}
        else:
            doc["permutation_invariance"] = {"skipped": "dim > 6"}
    if which == "all":
        doc["overlap_power_sums"] = {
            str(r): states.overlap_power_sum(family, 0, r) for r in (1, 2, 3, 4)}
    _emit(doc)


def cmd_projector(args, cli_cfg):
    family = states.build_family(args.dim)
    proj = states.build_projector(family)
    matrix_io.save_matrix(args.out, proj.matrix)
    clusters = eigenvalue_multiplicities(proj.eigenvalues)
    _emit({
        "dim": family.dim,
        "dim_big": proj.dim_big,
        "rank": proj.rank,
        "trace": float(np.trace(proj.matrix).real),
        "eigenvalue_clusters": [[v, c] for v, c in clusters],
        "n_factor": norms.normalization_factor(proj.matrix),
        "unit_set_scale": float(np.sqrt(family.dim - 1)),
        "out": args.out,
    })


def cmd_h6(args, cli_cfg):
    _emit(experiments.run_h6(args.lam).to_dict())


def cmd_h12(args, cli_cfg):
    _emit(experiments.run_h12(args.lam).to_dict())


def cmd_g6(args, cli_cfg):
    cfg = cli_cfg.optimizer
    _emit(experiments.certify_g6(starts=cfg.starts, seed=cfg.seed).to_dict())


def cmd_bounded(args, cli_cfg):
    _emit(experiments.run_bounded_demo(args.dim, args.samples, cli_cfg.optimizer.seed).to_dict())


def cmd_rarity(args, cli_cfg):
    cfg = cli_cfg.optimizer
    out_path = args.out or cli_cfg.output_path
    # records go to the --out file when given, else to stdout before the summary;
    # the file opens at the first record, so rejected arguments leave no file
    fh = None
    with ExitStack() as stack:
        def sink(record):
            nonlocal fh
            if fh is None:
                fh = (stack.enter_context(open(out_path, "a", encoding="utf-8"))
                      if out_path else sys.stdout)
            fh.write(json.dumps(record) + "\n")

        stats = experiments.run_rarity(
            args.ensemble, args.samples, cfg.seed, cfg.starts, dim=args.dim, sink=sink)
    _emit(stats.to_dict())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grothq",
        description="Matrix-form quadratic maximization bounds, coherent-state "
                    "projectors, and the bound-region experiments.")
    parser.add_argument("--config", help="JSON file mirroring CliConfig")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norms", help="row-norm report for a matrix JSON file")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("classify", help="bracket g and certify unit-set membership")
    p.add_argument("--matrix", required=True)
    p.add_argument("--starts", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gbound", help="closed-form upper bounds only")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_gbound)

    p = sub.add_parser("phases", help="solvability of the phase system phi_ij = chi_i + psi_j")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("states", help="build a state family and run its checks")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--check", choices=["all", "resolution", "isotropy", "permutation"],
                   default="all")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("projector", help="write the overlap projector as matrix JSON")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_projector)

    p = sub.add_parser("experiment", help="run a named experiment")
    ex = p.add_subparsers(dest="kind", required=True)

    q = ex.add_parser("h6", help="6-dim projector trace value q = 6 lambda")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.set_defaults(func=cmd_h6)
    q = ex.add_parser("h12", help="12-dim projector trace value q = 12 lambda")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q.set_defaults(func=cmd_h12)
    q = ex.add_parser("g6", help="two-route certification of the 6-dim supremum")
    q.add_argument("--starts", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.set_defaults(func=cmd_g6)
    q = ex.add_parser("bounded", help="density/unitary trace values stay within 1")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--seed", type=int, default=None)
    q.set_defaults(func=cmd_bounded)
    q = ex.add_parser("rarity", help="random-sampling study of values above 1")
    q.add_argument("--ensemble", required=True,
                   choices=list(experiments.RARITY_ENSEMBLES))
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--starts", type=int, default=None)
    q.add_argument("--dim", type=int, default=6)
    q.add_argument("--out", default=None, help="JSONL file to append records to")
    q.set_defaults(func=cmd_rarity)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    try:
        cli_cfg = load_config(args.config)
        overrides = {key: getattr(args, key) for key in ("seed", "starts")
                     if getattr(args, key, None) is not None}
        cli_cfg.optimizer = replace(cli_cfg.optimizer, **overrides)
        args.func(args, cli_cfg)
    except (InputValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except experiments.ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
