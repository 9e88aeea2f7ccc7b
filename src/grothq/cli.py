"""Command-line entry point.

Subcommands: norms, classify, gbound, phases, states, projector, experiment.
Every command emits one JSON document on stdout (rarity runs may stream JSONL
records first).  Exit codes: 0 success, 2 input validation failure, 3
numerical non-convergence.
"""

import argparse
import json
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

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
    seed: int = 0
    starts: int = 64
    tolerances: dict = field(default_factory=dict)
    output_path: str = None

    def validate(self):
        if self.starts < 1:
            raise InputValidationError("starts must be >= 1")
        if self.seed < 0:
            raise InputValidationError("seed must be a non-negative integer")
        for key, val in self.tolerances.items():
            if not isinstance(val, (int, float)) or val <= 0:
                raise InputValidationError(f"tolerance {key!r} must be positive")
        return self


def load_config(path) -> CliConfig:
    if path is None:
        return CliConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise InputValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise InputValidationError(f"malformed config JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise InputValidationError("config must be a JSON object")
    cfg = CliConfig(
        seed=doc.get("seed", 0),
        starts=doc.get("starts", 64),
        tolerances=doc.get("tolerances", {}),
        output_path=doc.get("output_path"),
    )
    return cfg.validate()


def parse_matrix_file(path: str) -> np.ndarray:
    """Load and validate a matrix JSON file (the schema in matrix_io)."""
    return matrix_io.load_matrix(path)


def _emit(doc: dict):
    print(json.dumps(doc))


def _optimizer_config(args, cli_cfg: CliConfig) -> forms.OptimizerConfig:
    starts = getattr(args, "starts", None)
    seed = getattr(args, "seed", None)
    tol = cli_cfg.tolerances
    return forms.OptimizerConfig(
        starts=starts if starts is not None else cli_cfg.starts,
        seed=seed if seed is not None else cli_cfg.seed,
        max_iterations=int(tol.get("max_iterations", 200)),
        phase_tolerance=float(tol.get("phase_tolerance", 1e-10)),
    )


def cmd_norms(args, cli_cfg):
    m = parse_matrix_file(args.matrix)
    _emit(norms.norm_report(m).to_dict())


def cmd_gbound(args, cli_cfg):
    a = require_square(parse_matrix_file(args.matrix))
    smax = largest_singular_value(a)
    d = a.shape[0]
    l1 = norm_entrywise_l1(a)
    _emit({
        "dim": d,
        "l1_norm": l1,
        "s_max": smax,
        "g_prime": d * smax,
        "g_upper": min(l1, d * smax),
    })


def cmd_classify(args, cli_cfg):
    m = parse_matrix_file(args.matrix)
    cfg = _optimizer_config(args, cli_cfg)
    result = forms.classify(m, cfg)
    doc = result.to_dict()
    doc["optimizer"] = {"starts": cfg.starts, "seed": cfg.seed}
    _emit(doc)


def cmd_phases(args, cli_cfg):
    m = parse_matrix_file(args.matrix)
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


def cmd_experiment(args, cli_cfg):
    kind = args.kind
    if kind == "h6":
        _emit(experiments.run_h6(args.lam).to_dict())
    elif kind == "h12":
        _emit(experiments.run_h12(args.lam).to_dict())
    elif kind == "g6":
        starts = args.starts if args.starts is not None else cli_cfg.starts
        seed = args.seed if args.seed is not None else cli_cfg.seed
        _emit(experiments.certify_g6(starts=starts, seed=seed).to_dict())
    elif kind == "bounded":
        seed = args.seed if args.seed is not None else cli_cfg.seed
        _emit(experiments.run_bounded_demo(args.dim, args.samples, seed).to_dict())
    elif kind == "rarity":
        seed = args.seed if args.seed is not None else cli_cfg.seed
        starts = args.starts if args.starts is not None else cli_cfg.starts
        out_path = args.out or cli_cfg.output_path
        # records go to the --out file when given, else to stdout before the summary
        with open(out_path, "a", encoding="utf-8") if out_path else nullcontext(sys.stdout) as fh:
            stats = experiments.run_rarity(
                args.ensemble, args.samples, seed, starts, dim=args.dim,
                sink=lambda record: fh.write(json.dumps(record) + "\n"))
        _emit(stats.to_dict())
    else:  # pragma: no cover - argparse restricts choices
        raise InputValidationError(f"unknown experiment {kind!r}")


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
    q = ex.add_parser("h12", help="12-dim projector trace value q = 12 lambda")
    q.add_argument("--lambda", dest="lam", type=float, required=True)
    q = ex.add_parser("g6", help="two-route certification of the 6-dim supremum")
    q.add_argument("--starts", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q = ex.add_parser("bounded", help="density/unitary trace values stay within 1")
    q.add_argument("--dim", type=int, required=True)
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--seed", type=int, default=None)
    q = ex.add_parser("rarity", help="random-sampling study of values above 1")
    q.add_argument("--ensemble", required=True,
                   choices=list(experiments.RARITY_ENSEMBLES))
    q.add_argument("--samples", type=int, required=True)
    q.add_argument("--seed", type=int, default=None)
    q.add_argument("--starts", type=int, default=None)
    q.add_argument("--dim", type=int, default=6)
    q.add_argument("--out", default=None, help="JSONL file to append records to")
    p.set_defaults(func=cmd_experiment)

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
        args.func(args, cli_cfg)
    except InputValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except experiments.ConsistencyError as exc:
        print(f"consistency error: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
