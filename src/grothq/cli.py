"""Command-line entry point.

Subcommands: norms, classify, gbound, phases, states, projector, experiment.
Every command emits one JSON document on stdout (rarity runs may stream JSONL
records first).  Exit codes: 0 success, 2 input validation failure, 3
numerical non-convergence.

Flags are the only configuration.  Each ``cmd_*`` takes the parsed flags and
the ``forms.OptimizerConfig`` that ``dispatch`` builds from ``--seed`` and
``--starts`` (the defaults are OptimizerConfig's), returns its document, and
``dispatch`` prints it; a command with ``--matrix`` finds the loaded matrix in
``args.matrix``.
"""

import argparse
import json
import sys
from contextlib import ExitStack

import numpy as np

from . import experiments, forms, matrix_io, norms, states
from .linalg import (
    ConvergenceError,
    InputValidationError,
    eigenvalue_multiplicities,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONVERGENCE = 3


def cmd_norms(args, cfg):
    return norms.norm_report(args.matrix).to_dict()


def cmd_gbound(args, cfg):
    return {"dim": args.matrix.shape[0], **forms.closed_form_bounds(args.matrix)}


def cmd_classify(args, cfg):
    doc = forms.classify(args.matrix, cfg).to_dict()
    doc["optimizer"] = {"starts": cfg.starts, "seed": cfg.seed}
    return doc


def cmd_phases(args, cfg):
    return forms.phase_system_solvable(args.matrix).to_dict()


def cmd_states(args, cfg):
    family = states.build_family(args.dim)
    doc = {"dim": family.dim, "count": family.count,
           "recipe": [[int(p), int(k)] for p, k in family.recipe]}
    if family.dim >= 5:
        doc["note"] = ("construction beyond dim 4 is a conjectural extension; "
                       "checks report empirical results only")
    doc["resolution_residual"] = states.resolution_check(family)
    ok, multisets = states.isotropy_check(family)
    doc["isotropy"] = {"ok": ok, "multiset": [float(x) for x in multisets[0]]}
    ok, _ = states.permutation_invariance_check(family)
    doc["permutation_invariance"] = {"ok": ok}
    doc["overlap_power_sums"] = {
        str(r): states.overlap_power_sum(family, 0, r) for r in (1, 2, 3, 4)}
    return doc


def cmd_projector(args, cfg):
    family = states.build_family(args.dim)
    proj = states.build_projector(family)
    matrix_io.save_matrix(args.out, proj.matrix)
    clusters = eigenvalue_multiplicities(proj.eigenvalues)
    return {
        "dim": family.dim,
        "dim_big": proj.dim_big,
        "rank": proj.rank,
        "trace": float(np.trace(proj.matrix).real),
        "eigenvalue_clusters": [[v, c] for v, c in clusters],
        "n_factor": norms.normalization_factor(proj.matrix),
        "unit_set_scale": float(np.sqrt(family.dim - 1)),
        "out": args.out,
    }


def cmd_h6(args, cfg):
    return experiments.run_h6(args.lam).to_dict()


def cmd_h12(args, cfg):
    return experiments.run_h12(args.lam).to_dict()


def cmd_g6(args, cfg):
    return experiments.certify_g6(starts=cfg.starts, seed=cfg.seed).to_dict()


def cmd_bounded(args, cfg):
    return experiments.run_bounded_demo(args.dim, args.samples, cfg.seed).to_dict()


def cmd_rarity(args, cfg):
    # records go to the --out file when given, else to stdout before the summary;
    # the file opens at the first record, so rejected arguments leave no file
    fh = None
    with ExitStack() as stack:
        def sink(record):
            nonlocal fh
            if fh is None:
                fh = (stack.enter_context(open(args.out, "a", encoding="utf-8"))
                      if args.out else sys.stdout)
            fh.write(json.dumps(record) + "\n")

        stats = experiments.run_rarity(
            args.ensemble, args.samples, cfg.seed, cfg.starts, dim=args.dim, sink=sink)
    return stats.to_dict()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grothq",
        description="Matrix-form quadratic maximization bounds, coherent-state "
                    "projectors, and the bound-region experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the options several commands share, each declared once in its own parent
    matrix, seed, starts, dim, samples, lam = (
        argparse.ArgumentParser(add_help=False) for _ in range(6))
    matrix.add_argument("--matrix", required=True)
    seed.add_argument("--seed", type=int, default=None)
    starts.add_argument("--starts", type=int, default=None)
    dim.add_argument("--dim", type=int, required=True)
    samples.add_argument("--samples", type=int, required=True)
    lam.add_argument("--lambda", dest="lam", type=float, required=True)

    p = sub.add_parser("norms", parents=[matrix], help="row-norm report for a matrix JSON file")
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("classify", parents=[matrix, seed, starts],
                       help="bracket g and certify unit-set membership")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gbound", parents=[matrix], help="closed-form upper bounds only")
    p.set_defaults(func=cmd_gbound)

    p = sub.add_parser("phases", parents=[matrix],
                       help="solvability of the phase system phi_ij = chi_i + psi_j")
    p.set_defaults(func=cmd_phases)

    p = sub.add_parser("states", parents=[dim], help="build a state family and run its checks")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("projector", parents=[dim],
                       help="write the overlap projector as matrix JSON")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_projector)

    p = sub.add_parser("experiment", help="run a named experiment")
    ex = p.add_subparsers(dest="kind", required=True)

    q = ex.add_parser("h6", parents=[lam], help="6-dim projector trace value q = 6 lambda")
    q.set_defaults(func=cmd_h6)
    q = ex.add_parser("h12", parents=[lam], help="12-dim projector trace value q = 12 lambda")
    q.set_defaults(func=cmd_h12)
    q = ex.add_parser("g6", parents=[seed, starts],
                      help="check g_lower against the exact 6-dim torus witness")
    q.set_defaults(func=cmd_g6)
    q = ex.add_parser("bounded", parents=[seed, dim, samples],
                      help="density/unitary trace values stay within 1")
    q.set_defaults(func=cmd_bounded)
    q = ex.add_parser("rarity", parents=[seed, starts, samples],
                      help="random-sampling study of values above 1")
    q.add_argument("--ensemble", required=True,
                   choices=list(experiments.RARITY_ENSEMBLES))
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
        # flags left out keep OptimizerConfig's defaults
        cfg = forms.OptimizerConfig(**{key: getattr(args, key) for key in ("seed", "starts")
                                       if getattr(args, key, None) is not None})
        if hasattr(args, "matrix"):
            args.matrix = matrix_io.load_matrix(args.matrix)
        print(json.dumps(args.func(args, cfg)))
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
