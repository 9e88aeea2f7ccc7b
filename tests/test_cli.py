import argparse
import dataclasses
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import grothq
from grothq import (OptimizerConfig, build_family, build_projector, classify, cli,
                    eigenvalue_multiplicities, experiments, hermitian_eig, linalg,
                    matrix_to_dict, fourier_matrix, normalization_factor, save_matrix, states)
from grothq.cli import dispatch
from grothq.linalg import InputValidationError
from grothq.matrix_io import load_matrix


def write_matrix(tmp_path, name, m):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_dict(np.asarray(m, dtype=complex))))
    return str(path)


def run_cli(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


# --- matrix file parsing ---

def test_parse_matrix_roundtrip(tmp_path):
    m = np.array([[1.0, 2.0j], [0.5 - 0.5j, -1.0]])
    path = write_matrix(tmp_path, "m.json", m)
    assert np.array_equal(load_matrix(path), m)


def test_parse_matrix_missing_file():
    with pytest.raises(InputValidationError, match="not found"):
        load_matrix("/nonexistent/matrix.json")


def test_parse_matrix_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InputValidationError, match="malformed"):
        load_matrix(str(path))


def test_parse_matrix_dimension_mismatch(tmp_path):
    path = tmp_path / "dims.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0]] * 3}))
    with pytest.raises(InputValidationError, match="rows\\*cols"):
        load_matrix(str(path))


def test_parse_matrix_nonfinite_entry(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[NaN, 0]]}')
    with pytest.raises(InputValidationError, match="non-finite"):
        load_matrix(str(path))


@pytest.mark.parametrize("doc", [
    {"rows": True, "cols": True, "entries": [[1, 0]]},
    {"rows": 1, "cols": 1, "entries": [[True, False]]},
], ids=["shape", "entry"])
def test_parse_matrix_rejects_booleans(tmp_path, doc):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(InputValidationError):
        load_matrix(str(path))


def test_parse_matrix_int_beyond_float_range(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[1%s, 0]]}' % ("0" * 400))
    with pytest.raises(InputValidationError, match="non-finite"):
        load_matrix(str(path))


def test_gbound_exit_2_on_boolean_matrix(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps({"rows": True, "cols": True, "entries": [[True, False]]}))
    assert dispatch(["gbound", "--matrix", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("role", ["matrix"])
def test_cli_exit_2_on_file_not_utf8(tmp_path, capsys, role):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"seed": "\u00e9"}'.encode("latin-1"))
    assert dispatch(["norms", "--matrix", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {role} file is not UTF-8 text: {bad}: ")


@pytest.mark.parametrize("fault, message", [
    ("missing", "error: {what} file not found: {path}\n"),
    ("malformed", "error: malformed {what} JSON in {path}: "),
])
@pytest.mark.parametrize("what", ["matrix"])
def test_matrix_and_config_files_share_one_reader(tmp_path, capsys, what, fault, message):
    # the UTF-8 message is checked by test_cli_exit_2_on_file_not_utf8
    bad = tmp_path / "bad.json"
    if fault == "malformed":
        bad.write_text("{not json")
    assert dispatch(["norms", "--matrix", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message.format(what=what, path=bad))


def test_cli_exit_2_on_bad_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("[]")
    code, _ = run_cli(capsys, ["norms", "--matrix", str(path)])
    assert code == 2


@pytest.mark.parametrize("command", ["classify", "norms"])
def test_cli_exit_2_on_entry_whose_modulus_overflows(tmp_path, capsys, command):
    # both parts are finite floats, the modulus is not
    path = tmp_path / "top.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1.5e308, 1.5e308]] * 4}))
    assert dispatch([command, "--matrix", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# --- subcommands ---

def test_norms_subcommand(tmp_path, capsys):
    path = write_matrix(tmp_path, "eye.json", np.eye(3))
    code, out = run_cli(capsys, ["norms", "--matrix", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["n_factor"] == 1.0
    assert doc["in_S_d"] is True


def test_gbound_subcommand(tmp_path, capsys):
    path = write_matrix(tmp_path, "f4.json", fourier_matrix(4))
    code, out = run_cli(capsys, ["gbound", "--matrix", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["g_prime"] == pytest.approx(4.0, abs=1e-9)
    assert doc["g_upper"] == pytest.approx(4.0, abs=1e-9)


def test_gbound_runs_one_svd(tmp_path, capsys, monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    path = write_matrix(tmp_path, "m.json", [[1, 2j], [0.5, -1]])
    code, _ = run_cli(capsys, ["gbound", "--matrix", path])
    assert code == 0
    assert calls == [(2, 2)]


@pytest.mark.parametrize("command", ["norms", "gbound", "classify"])
def test_bounds_past_the_float_range_print_no_warning(tmp_path, capsys, command):
    # s_max = 2e308 and ||theta||_1 = 4e308 are inf in the JSON, not warnings
    path = write_matrix(tmp_path, "m.json", np.full((2, 2), 1e308))
    assert dispatch([command, "--matrix", path]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "Infinity" in captured.out


def test_phases_subcommand(tmp_path, capsys):
    theta = np.array([[1.0, 1.0j], [-1.0j, -1.0]])
    path = write_matrix(tmp_path, "h.json", theta)
    code, out = run_cli(capsys, ["phases", "--matrix", path])
    assert code == 0
    assert json.loads(out)["solvable"] is False


def test_phases_rank_one_12x12(tmp_path, capsys):
    # 144 equations: far past the size the former shift enumeration covered
    rng = np.random.default_rng(21)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    theta = np.outer(x, y)
    path = str(tmp_path / "rank_one.json")
    save_matrix(path, theta)
    code, out = run_cli(capsys, ["phases", "--matrix", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["solvable"] is True
    assert doc["n_equations"] == 144 and doc["rank_coefficient"] == 23
    gap = np.add.outer(doc["chi"], doc["psi"]) - np.angle(theta)
    assert np.abs((gap + np.pi) % (2 * np.pi) - np.pi).max() < 1e-8


def test_projector_then_classify_pipeline(tmp_path, capsys):
    out_path = str(tmp_path / "pi6.json")
    code, out = run_cli(capsys, ["projector", "--dim", "3", "--out", out_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["rank"] == 3
    assert doc["n_factor"] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    code, out = run_cli(capsys, ["classify", "--matrix", out_path,
                                 "--starts", "64", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    witness_value = 3 + 2 * np.sqrt(2)
    assert doc["g_lower"] == pytest.approx(witness_value, abs=1e-6)
    assert doc["g_upper"] == pytest.approx(6.0, abs=1e-9)
    assert doc["in_G_prime"] is False
    assert doc["in_G"] == "certified_no"
    assert doc["scaling"]["lambda_max_in_G_prime"] == pytest.approx(1 / 6, abs=1e-9)


@pytest.mark.parametrize("dim", [3, 4])
def test_projector_decomposes_once_and_keeps_its_stdout(tmp_path, capsys, monkeypatch, dim):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return hermitian_eig(*args, **kwargs)

    for module in (grothq, linalg, states, cli):
        for name, value in list(vars(module).items()):
            if value is hermitian_eig:
                monkeypatch.setattr(module, name, counted)
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, ["projector", "--dim", str(dim), "--out", "pi.json"])
    assert code == 0
    assert len(calls) == 1
    # the document as printed when the command decomposed the matrix a second time
    proj = build_projector(build_family(dim))
    clusters = eigenvalue_multiplicities(hermitian_eig(proj.matrix).eigenvalues)
    expected = {
        "dim": dim,
        "dim_big": proj.dim_big,
        "rank": proj.rank,
        "trace": float(np.trace(proj.matrix).real),
        "eigenvalue_clusters": [[v, c] for v, c in clusters],
        "n_factor": normalization_factor(proj.matrix),
        "unit_set_scale": float(np.sqrt(dim - 1)),
        "out": "pi.json",
    }
    assert out == json.dumps(expected) + "\n"


def test_states_subcommand(capsys):
    code, out = run_cli(capsys, ["states", "--dim", "4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 12
    assert doc["resolution_residual"] <= 1e-12
    assert doc["isotropy"]["ok"] is True
    assert doc["permutation_invariance"]["ok"] is True
    assert doc["overlap_power_sums"]["2"] == pytest.approx(3.0, abs=1e-9)


def test_states_checks_permutation_invariance_at_dim_7(capsys):
    code, out = run_cli(capsys, ["states", "--dim", "7"])
    assert code == 0
    assert json.loads(out)["permutation_invariance"] == {"ok": False}


@pytest.mark.parametrize("dim", range(2, 9))
def test_states_prints_every_check_at_every_dim(capsys, dim):
    family = build_family(dim)
    iso_ok, multisets = states.isotropy_check(family)
    perm_ok, _ = states.permutation_invariance_check(family)
    expected = {"dim": dim, "count": family.count,
                "recipe": [[int(p), int(k)] for p, k in family.recipe]}
    if dim >= 5:
        expected["note"] = ("construction beyond dim 4 is a conjectural extension; "
                            "checks report empirical results only")
    expected["resolution_residual"] = states.resolution_check(family)
    expected["isotropy"] = {"ok": iso_ok, "multiset": [float(x) for x in multisets[0]]}
    expected["permutation_invariance"] = {"ok": perm_ok}
    expected["overlap_power_sums"] = {
        str(r): states.overlap_power_sum(family, 0, r) for r in (1, 2, 3, 4)}
    code, out = run_cli(capsys, ["states", "--dim", str(dim)])
    assert code == 0
    assert out == json.dumps(expected) + "\n"


def test_states_has_no_check_filter(capsys):
    assert dispatch(["states", "--dim", "4", "--check", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --check all" in captured.err


def test_classify_exit_2_on_a_non_square_matrix(tmp_path, capsys):
    path = write_matrix(tmp_path, "wide.json", np.ones((2, 3)))
    assert dispatch(["classify", "--matrix", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: expected a square matrix, got shape (2, 3)\n"


@pytest.mark.parametrize("argv, message", [
    (["states", "--dim", "1"], "dimension must be >= 2"),
    (["projector", "--dim", "1", "--out", "pi.json"], "dimension must be >= 2"),
    (["experiment", "bounded", "--dim", "1", "--samples", "2"], "dimension must be >= 2"),
    (["experiment", "bounded", "--dim", "3", "--samples", "0"], "samples must be >= 1"),
    (["experiment", "rarity", "--ensemble", "random_normal", "--samples", "0"],
     "samples must be >= 1"),
    (["experiment", "rarity", "--ensemble", "random_normal", "--samples", "1", "--dim", "1"],
     "dimension must be >= 2"),
], ids=["states", "projector", "bounded_dim", "bounded_samples", "rarity_samples", "rarity_dim"])
def test_cli_exit_2_on_a_dimension_or_sample_count_out_of_range(
        tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert dispatch(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not (tmp_path / "pi.json").exists()


@pytest.mark.parametrize("argv, keys", [
    (["gbound", "--matrix", "theta.json"],
     ["dim", "l1_norm", "s_max", "g_prime", "g_upper"]),
    (["projector", "--dim", "3", "--out", "pi.json"],
     ["dim", "dim_big", "rank", "trace", "eigenvalue_clusters", "n_factor",
      "unit_set_scale", "out"]),
    (["states", "--dim", "4"],
     ["dim", "count", "recipe", "resolution_residual", "isotropy",
      "permutation_invariance", "overlap_power_sums"]),
    (["states", "--dim", "5"],
     ["dim", "count", "recipe", "note", "resolution_residual", "isotropy",
      "permutation_invariance", "overlap_power_sums"]),
], ids=["gbound", "projector", "states", "states_dim5_permutation"])
def test_cli_only_documents_keep_their_key_order(tmp_path, capsys, monkeypatch, argv, keys):
    monkeypatch.chdir(tmp_path)
    write_matrix(tmp_path, "theta.json", [[1, 2j], [0.5, -1]])
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert list(json.loads(out)) == keys


def test_classify_document_is_the_classification_then_its_optimizer(tmp_path, capsys):
    theta = np.array([[1, 2j], [0.5, -1]])
    path = write_matrix(tmp_path, "theta.json", theta)
    code, out = run_cli(capsys, ["classify", "--matrix", path, "--starts", "3", "--seed", "5"])
    assert code == 0
    doc = json.loads(out)
    expected = classify(theta, OptimizerConfig(starts=3, seed=5)).to_dict()
    assert list(doc) == [*expected, "optimizer"]
    assert list(doc["optimizer"].items()) == [("starts", 3), ("seed", 5)]


def test_cli_defaults_come_from_optimizer_config(tmp_path, capsys):
    theta = np.random.default_rng(7).standard_normal((3, 3)) * 0.3
    path = write_matrix(tmp_path, "theta.json", theta)
    code, out = run_cli(capsys, ["classify", "--matrix", path])
    assert code == 0
    doc = json.loads(out)
    assert doc.pop("optimizer") == {"starts": 64, "seed": 0}
    assert doc == json.loads(json.dumps(classify(theta, OptimizerConfig()).to_dict()))
    code, out = run_cli(capsys, ["classify", "--matrix", path, "--seed", "2"])
    assert code == 0
    assert json.loads(out)["optimizer"] == {"starts": 64, "seed": 2}


def test_experiment_h6(capsys):
    code, out = run_cli(capsys, ["experiment", "h6", "--lambda", "0.2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["q_value"] == pytest.approx(1.2, abs=1e-12)
    assert doc["region"] == "grothendieck"


def test_experiment_g6_two_starts_seed_10(capsys):
    # g_lower from two starts at seed 10 must reach the torus witness value
    code, out = run_cli(capsys, ["experiment", "g6", "--starts", "2", "--seed", "10"])
    assert code == 0
    assert json.loads(out)["agrees"]


def test_experiment_g6_one_start_exits_0(capsys):
    code, out = run_cli(capsys, ["experiment", "g6", "--starts", "1"])
    assert code == 0
    assert json.loads(out)["agrees"]


def test_experiment_g6_exit_3_when_g_lower_misses_the_witness(capsys, monkeypatch):
    real = experiments.g_lower

    def g_lower_off(theta, config=None):
        value = 3 + 2 * np.sqrt(2) + 2 * experiments.G6_AGREEMENT_TOL
        return dataclasses.replace(real(theta, config), best_value=value)

    monkeypatch.setattr(experiments, "g_lower", g_lower_off)
    code = dispatch(["experiment", "g6", "--starts", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("consistency error: ")


def test_experiment_h6_out_of_range_exit_2(capsys):
    code, _ = run_cli(capsys, ["experiment", "h6", "--lambda", "0.5"])
    assert code == 2


def test_experiment_bounded_stdout_byte_identical():
    argv = [sys.executable, "-m", "grothq.cli", "experiment", "bounded",
            "--dim", "3", "--samples", "20", "--seed", "1"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_experiment_rarity_stdout_byte_identical():
    argv = [sys.executable, "-m", "grothq.cli", "experiment", "rarity",
            "--ensemble", "random_normal", "--samples", "6", "--seed", "1", "--starts", "16"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert len(first.stdout.splitlines()) == 7      # six records, then the summary
    assert first.stdout == second.stdout


@pytest.mark.parametrize("kind, lam", [("h6", "0.2"), ("h12", "0.05")])
def test_experiment_stdout_carries_no_timing(capsys, kind, lam):
    argv = ["experiment", kind, "--lambda", lam]
    outs = [run_cli(capsys, argv) for _ in range(2)]
    assert outs[0] == outs[1] and outs[0][0] == 0
    assert "runtime_s" not in json.loads(outs[0][1])["diagnostics"]


def test_experiment_rarity_writes_jsonl(tmp_path, capsys):
    out_path = tmp_path / "records.jsonl"
    code, out = run_cli(capsys, [
        "experiment", "rarity", "--ensemble", "random_general",
        "--samples", "5", "--seed", "1", "--starts", "2",
        "--out", str(out_path)])
    assert code == 0
    stats = json.loads(out)
    assert stats["samples"] == 5
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 5
    assert all(json.loads(line)["q_value"] <= 1.4049 + 1e-9 for line in lines)


def test_experiment_rarity_out_file_matches_streamed_records(tmp_path, capsys):
    argv = ["experiment", "rarity", "--ensemble", "random_normal",
            "--samples", "4", "--seed", "3", "--starts", "2"]
    code, streamed = run_cli(capsys, argv)
    assert code == 0
    out_path = tmp_path / "records.jsonl"
    code, summary = run_cli(capsys, argv + ["--out", str(out_path)])
    assert code == 0
    records = streamed.splitlines(keepends=True)
    assert len(records) == 5                        # four records, then the summary
    assert out_path.read_text(encoding="utf-8") == "".join(records[:-1])
    assert summary == records[-1]


def test_experiment_rarity_rejected_arguments_leave_no_out_file(tmp_path, capsys):
    out_path = tmp_path / "records.jsonl"
    code, out = run_cli(capsys, ["experiment", "rarity", "--ensemble", "random_normal",
                                 "--samples", "0", "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert not out_path.exists()


# each command that requires --dim, --samples or --lambda, with its other
# required arguments, and a value for the flag
@pytest.mark.parametrize("argv, flag, value", [
    (["states"], "--dim", "4"),
    (["projector", "--out", "pi.json"], "--dim", "3"),
    (["experiment", "bounded", "--samples", "2"], "--dim", "3"),
    (["experiment", "bounded", "--dim", "3"], "--samples", "2"),
    (["experiment", "rarity", "--ensemble", "random_normal"], "--samples", "2"),
    (["experiment", "h6"], "--lambda", "0.1"),
    (["experiment", "h12"], "--lambda", "0.05"),
], ids=["states", "projector", "bounded_dim", "bounded_samples", "rarity_samples",
        "h6", "h12"])
def test_shared_flags_are_required_where_declared(capsys, argv, flag, value):
    assert dispatch(argv) == 2
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err
    args = cli.build_parser().parse_args(argv + [flag, value])
    dest = {"--dim": "dim", "--samples": "samples", "--lambda": "lam"}[flag]
    assert getattr(args, dest) == (float(value) if flag == "--lambda" else int(value))


def test_rarity_dim_defaults_to_6_and_lists_samples_before_ensemble(capsys):
    args = cli.build_parser().parse_args(
        ["experiment", "rarity", "--ensemble", "random_normal", "--samples", "2"])
    assert args.dim == 6
    assert dispatch(["experiment", "rarity"]) == 2
    assert "required: --samples, --ensemble" in capsys.readouterr().err


def _commands(parser, words=()):
    """(command words, parser) of every command that runs."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from _commands(child, words + (name,))


def _long_options(parser):
    return {opt for a in parser._actions for opt in a.option_strings
            if opt.startswith("--")} - {"--help"}


def test_readme_usage_block_names_every_declared_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    documented = {}
    for line in re.sub(r"\\\s*\n", " ", block).splitlines():
        line = line.split("#")[0]
        if not line.strip():
            continue
        words = line.split()
        assert words[0] == "grothq"
        command = tuple(itertools.takewhile(lambda w: not w.startswith(("-", "[")), words[1:]))
        documented[command] = set(re.findall(r"--[a-z][a-z-]*", line))
    parser = cli.build_parser()
    top = _long_options(parser)
    assert documented == {words: _long_options(p) | top for words, p in _commands(parser)}


def test_help_exits_zero(capsys):
    assert dispatch(["--help"]) == 0


def test_unknown_subcommand_exits_2(capsys):
    assert dispatch(["frobnicate"]) == 2


def test_convergence_failure_exit_3(tmp_path, capsys, monkeypatch):
    def fail_to_converge(*args, **kwargs):
        raise np.linalg.LinAlgError("injected non-convergence")

    monkeypatch.setattr(np.linalg, "svd", fail_to_converge)
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = write_matrix(tmp_path, "m.json", m)
    code, _ = run_cli(capsys, ["gbound", "--matrix", path])
    assert code == 3


def test_json_output_round_trips(tmp_path, capsys):
    path = write_matrix(tmp_path, "m.json", np.eye(2) * 0.3)
    _, out = run_cli(capsys, ["classify", "--matrix", path, "--starts", "2"])
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "grothq.cli", "states", "--dim", "3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["resolution_residual"] <= 1e-12
