"""Command-line interface: output formats, exit codes, determinism."""

import inspect
import json
import math
import shutil
import subprocess
import warnings

import numpy as np
import pytest

from mixent import (
    CSV_HEADER,
    ESTIMATOR_ORDER,
    AwgnChannel,
    GaussianComponent,
    SweepConfig,
    estimate_all,
    format_csv,
    gaussian_bd,
    gaussian_elk_log_cross,
    gaussian_kl,
    load_mixture,
    load_noise_cov,
    mi_bounds,
    read_csv,
    run_sweep,
)
from mixent.cli import _build_parser, main
from mixent.experiments import log_grid
from support import nested, run_python

SINGLE_GAUSSIAN = {
    "family": "gaussian",
    "weights": [1.0],
    "components": [{"mean": [0.0], "cov": [[1.0]]}],
}

TWO_BOXES = {
    "family": "uniform",
    "weights": [0.5, 0.5],
    "components": [
        {"lower": [0.0], "upper": [1.0]},
        {"lower": [0.5], "upper": [1.5]},
    ],
}

BINARY_SOURCE = {
    "family": "gaussian",
    "weights": [0.5, 0.5],
    "components": [
        {"mean": [-10.0], "cov": [[1e-12]]},
        {"mean": [10.0], "cov": [[1e-12]]},
    ],
}

# Means so far apart that every squared Mahalanobis norm overflows to +inf.
FAR_APART = {
    "family": "gaussian",
    "weights": [0.5, 0.5],
    "components": [
        {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
        {"mean": [1e160, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    ],
}


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def parse_report(text):
    values = {}
    for line in text.splitlines():
        name, _, rest = line.partition("=")
        values[name.strip()] = float(rest.split("(")[0])
    return values


# -------------------------------------------------------------------- estimate


def test_estimate_single_gaussian(tmp_path, capsys):
    spec = write_json(tmp_path, "single.json", SINGLE_GAUSSIAN)
    assert main(["estimate", "--spec", spec]) == 0
    out = capsys.readouterr().out
    values = parse_report(out)
    assert set(values) == {"H_cond", "H_BD", "H_KL", "H_joint", "H_KDE", "H_ELK"}
    # A one-component mixture collapses the whole bracket.
    h = 1.4189385332046727
    for name in ("H_cond", "H_BD", "H_KL", "H_joint"):
        assert math.isclose(values[name], h, abs_tol=1e-9)


def test_estimate_with_monte_carlo_row(tmp_path, capsys):
    spec = write_json(tmp_path, "boxes.json", TWO_BOXES)
    assert main(["estimate", "--spec", spec, "--mc", "2000", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "H_MC" in out and "stderr" in out
    values = parse_report(out)
    assert values["H_cond"] <= values["H_BD"] <= values["H_KL"] <= values["H_joint"]


def test_estimate_takes_boxes_near_the_largest_float(tmp_path, capsys):
    # The box centers used to overflow, and the KDE refused them as points.
    doc = {
        "family": "uniform",
        "weights": [0.5, 0.5],
        "components": [{"lower": [1e308], "upper": [1.5e308]},
                       {"lower": [1.2e308], "upper": [1.7e308]}],
    }
    spec = write_json(tmp_path, "edge.json", doc)
    assert main(["estimate", "--spec", spec, "--mc", "1000"]) == 0
    values = parse_report(capsys.readouterr().out)
    assert values["H_cond"] <= values["H_BD"] <= values["H_KL"] <= values["H_joint"]
    assert all(math.isfinite(v) for v in values.values())


def test_estimate_is_deterministic(tmp_path, capsys):
    spec = write_json(tmp_path, "boxes.json", TWO_BOXES)
    assert main(["estimate", "--spec", spec, "--mc", "500", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["estimate", "--spec", spec, "--mc", "500", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_estimate_missing_file_is_a_runtime_error(tmp_path, capsys):
    code = main(["estimate", "--spec", str(tmp_path / "absent.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_estimate_malformed_json_is_a_runtime_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["estimate", "--spec", str(path)]) == 1
    assert "error:" in capsys.readouterr().err
    components = json.dumps(SINGLE_GAUSSIAN["components"])
    for depth in (990, 3000):
        path.write_text(f'{{"family": "gaussian", "weights": {nested(depth)}, '
                        f'"components": {components}}}')
        assert main(["estimate", "--spec", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc",
    [
        {**SINGLE_GAUSSIAN, "weights": "ab"},
        {**SINGLE_GAUSSIAN, "components": [{"mean": [0.0], "cov": [["x"]]}]},
        {**SINGLE_GAUSSIAN, "components": [{"mean": [math.nan], "cov": [[1.0]]}]},
        {**SINGLE_GAUSSIAN, "weights": [math.inf]},
        {**TWO_BOXES, "components": [{"lower": [0.0], "upper": [math.inf]}] * 2},
        {**TWO_BOXES, "components": [{"lower": [], "upper": []}] * 2},
        {"family": "gaussian", "weights": [True, True],
         "components": [{"mean": [False], "cov": [[True]]}, {"mean": [True], "cov": [[True]]}]},
    ],
    ids=["text-weights", "text-cov", "nan-mean", "inf-weight", "inf-bound", "empty-box",
         "json-booleans"],
)
def test_estimate_bad_numbers_are_one_line_errors(tmp_path, capsys, doc):
    spec = write_json(tmp_path, "bad.json", doc)
    assert main(["estimate", "--spec", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc, noise",
    [
        ({**SINGLE_GAUSSIAN, "components": [{"mean": ["a"], "cov": [[1.0]]}]}, None),
        ({**SINGLE_GAUSSIAN, "components": [{"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0]]}]},
         None),
        ({**TWO_BOXES, "components": [{"lower": [False], "upper": [True]}] * 2}, None),
        ({**TWO_BOXES, "weights": ["a", 0.5]}, None),
        (SINGLE_GAUSSIAN, [["a"]]),
        (SINGLE_GAUSSIAN, {"cov": [[1.0, 0.0], [0.0]]}),
        ({**TWO_BOXES, "weights": ["0.5", "0.5"]}, None),
        ({**SINGLE_GAUSSIAN, "components": [{"mean": [None], "cov": [[1.0]]}]}, None),
        (SINGLE_GAUSSIAN, {"cov": [["1.0"]]}),
    ],
    ids=["text-mean", "ragged-cov", "bool-bounds", "text-weight", "text-noise", "ragged-noise",
         "numeric-text-weights", "null-mean", "numeric-text-noise"],
)
def test_malformed_floats_are_one_line_errors(tmp_path, capsys, doc, noise):
    spec = write_json(tmp_path, "bad.json", doc)
    if noise is None:
        args = ["estimate", "--spec", spec]
    else:
        args = ["mi", "--spec", spec, "--noise", write_json(tmp_path, "noise.json", noise)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed ") and captured.err.count("\n") == 1


def test_estimate_accepts_weights_whose_sum_overflows(tmp_path, capsys):
    doc = {**SINGLE_GAUSSIAN, "weights": [0.5, 0.5],
           "components": [{"mean": [0.0], "cov": [[1.0]]}, {"mean": [1.0], "cov": [[2.0]]}]}
    assert main(["estimate", "--spec", write_json(tmp_path, "half.json", doc)]) == 0
    expected = capsys.readouterr()
    doc["weights"] = [1e308, 1e308]
    assert main(["estimate", "--spec", write_json(tmp_path, "huge.json", doc)]) == 0
    assert capsys.readouterr() == expected


def test_estimate_mc_zero_is_refused(tmp_path, capsys):
    spec = write_json(tmp_path, "single.json", SINGLE_GAUSSIAN)
    assert main(["estimate", "--spec", spec, "--mc", "0"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["estimate", "mi"])
def test_undecodable_files_are_one_line_errors(tmp_path, capsys, command):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{")
    bad = str(path)
    if command == "estimate":
        args = ["estimate", "--spec", bad]
    else:
        spec = write_json(tmp_path, "source.json", BINARY_SOURCE)
        args = ["mi", "--spec", spec, "--noise", bad]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert bad in err


# ----------------------------------------------------------------------- sweep


def test_sweep_writes_csv_to_stdout(capsys):
    code = main(
        ["sweep", "--experiment", "g1", "--grid", "0:1:2", "--n", "4",
         "--dim", "2", "--mc", "300"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * len(ESTIMATOR_ORDER)


def test_sweep_writes_files(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    plot = tmp_path / "rows.svg"
    code = main(
        ["sweep", "--experiment", "u1", "--grid", "0:1:3", "--n", "4", "--dim", "2",
         "--mc", "300", "--out", str(out), "--plot", str(plot)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out.read_text().startswith(CSV_HEADER)
    assert plot.read_text().lstrip().startswith("<svg")


def test_sweep_plot_of_an_underflowed_grid_is_a_one_line_error(tmp_path, capsys):
    # exp(-800) is 0.0: the sweep is well defined there, its log-axis plot is not.
    out = tmp_path / "rows.csv"
    plot = tmp_path / "rows.svg"
    code = main(
        ["sweep", "--experiment", "g1", "--grid=-800:0:2", "--n", "3", "--dim", "2",
         "--mc", "50", "--out", str(out), "--plot", str(plot)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "log axis" in captured.err
    assert read_csv(out)[0].param == 0.0
    assert not plot.exists()


def test_sweep_repeat_is_bit_identical(tmp_path):
    args = ["sweep", "--experiment", "g3", "--grid", "2:4:2", "--n", "6", "--dim", "2",
            "--clusters", "3", "--mc", "200"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_sweep_usage_errors_exit_two(capsys):
    assert main(["sweep", "--experiment", "g9"]) == 2
    assert main(["sweep", "--experiment", "g1", "--grid", "banana"]) == 2
    assert main(["sweep", "--experiment", "g1", "--grid", "2:1:5"]) == 2
    assert main(["sweep", "--experiment", "g1", "--grid", "0:1:0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["--experiment", "g1", "--dim", "0"],
        ["--experiment", "g1", "--dim=-1"],
        ["--experiment", "g2", "--dim", "0"],
        ["--experiment", "g4", "--grid=-2:0:3"],
    ],
    ids=["g1-dim-0", "g1-dim-negative", "g2-dim-0", "g4-grid-rounds-to-0"],
)
def test_sweep_bad_dimension_is_a_one_line_error(capsys, args):
    assert main(["sweep", *args, "--n", "3", "--mc", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "dimension must be at least 1" in captured.err


@pytest.mark.parametrize("command", ["estimate", "estimate-without-mc", "sweep"])
def test_negative_seed_is_a_one_line_error(tmp_path, capsys, command):
    if command.startswith("estimate"):
        spec = write_json(tmp_path, "single.json", SINGLE_GAUSSIAN)
        mc = ["--mc", "10"] if command == "estimate" else []
        args = ["estimate", "--spec", spec, *mc, "--seed", "-1"]
    else:
        args = ["sweep", "--experiment", "g1", "--seed", "-1", "--mc", "10", "--n", "2",
                "--grid", "0:1:2"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "seed must be non-negative" in captured.err


@pytest.mark.parametrize("grid", ["nan:1:3", "0:inf:3"])
def test_sweep_non_finite_grid_is_a_one_line_error(capsys, grid):
    assert main(["sweep", "--experiment", "g4", "--grid", grid, "--n", "2", "--mc", "50"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "must be finite" in captured.err


@pytest.mark.parametrize(
    "experiment, lo, hi, steps", [("g4", 0.0, 3.0, 7), ("u4", 0.0, 2.5, 6)]
)
def test_sweep_dimension_grid_rounds_to_unique_integers(tmp_path, experiment, lo, hi, steps):
    out = tmp_path / "dims.csv"
    code = main(
        ["sweep", "--experiment", experiment, "--grid", f"{lo}:{hi}:{steps}", "--n", "2",
         "--mc", "50", "--out", str(out)]
    )
    assert code == 0
    params = sorted({row.param for row in read_csv(out)})
    expected = np.unique(np.rint(np.exp(np.linspace(lo, hi, steps))))
    assert params == expected.tolist()


def test_sweep_balanced_clusters_flag(tmp_path):
    out = tmp_path / "c.csv"
    code = main(
        ["sweep", "--experiment", "u3", "--grid", "2:3:2", "--n", "6", "--dim", "2",
         "--clusters", "3", "--mc", "200", "--balanced-clusters", "--out", str(out)]
    )
    assert code == 0 and out.exists()


# -------------------------------------------------------------------------- mi


def test_mi_bounds_output(tmp_path, capsys):
    spec = write_json(tmp_path, "source.json", BINARY_SOURCE)
    noise = write_json(tmp_path, "noise.json", {"cov": [[1.0]]})
    assert main(["mi", "--spec", spec, "--noise", noise]) == 0
    out = capsys.readouterr().out
    values = parse_report(out)
    assert set(values) == {"MI_lower", "MI_upper"}
    assert values["MI_lower"] <= values["MI_upper"] + 1e-12
    assert math.isclose(values["MI_lower"], math.log(2.0), abs_tol=1e-3)


def test_mi_alpha_out_of_range_is_a_runtime_error(tmp_path, capsys):
    spec = write_json(tmp_path, "source.json", BINARY_SOURCE)
    noise = write_json(tmp_path, "noise.json", {"cov": [[1.0]]})
    assert main(["mi", "--spec", spec, "--noise", noise, "--alpha", "1.5"]) == 1
    assert "error:" in capsys.readouterr().err


def test_mi_malformed_noise_is_a_runtime_error(tmp_path, capsys):
    spec = write_json(tmp_path, "source.json", BINARY_SOURCE)
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"scale": 2.0}))
    assert main(["mi", "--spec", spec, "--noise", str(noise)]) == 1
    assert "error:" in capsys.readouterr().err
    noise.write_text(json.dumps({"cov": [[True]]}))
    assert main(["mi", "--spec", spec, "--noise", str(noise)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "booleans" in err
    noise.write_text(f'{{"cov": {nested(3000)}}}')
    assert main(["mi", "--spec", spec, "--noise", str(noise)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_estimate_overflowing_distances_are_infinite_without_warnings(tmp_path):
    # +inf is the exact distance here, so the overflow is not worth a warning
    # and both bounds reach the ceiling.
    spec = write_json(tmp_path, "far.json", FAR_APART)
    proc = run_python("-m", "mixent.cli", "estimate", "--spec", spec)
    assert proc.returncode == 0
    assert proc.stderr == ""
    values = parse_report(proc.stdout)
    assert values["H_BD"] == values["H_KL"] == values["H_joint"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_all(load_mixture(spec))
        assert report.h_bd == report.h_kl == report.h_joint
        a, b = (GaussianComponent(c["mean"], c["cov"]) for c in FAR_APART["components"])
        assert gaussian_kl(a, b) == math.inf
        assert gaussian_bd(a, b) == math.inf
        assert gaussian_elk_log_cross(a, b) == -math.inf


# ------------------------------------------------------------ library defaults

# Two Gaussians of different spreads, so that the Chernoff order moves the MI
# lower bound.
UNEQUAL_PAIR = {
    "family": "gaussian",
    "weights": [0.3, 0.7],
    "components": [{"mean": [0.0], "cov": [[0.5]]}, {"mean": [1.5], "cov": [[4.0]]}],
}

# Per command: its required options, every other option, the options that
# only the CLI reads, and the library call that every other option is passed to.
COMMANDS = {
    "estimate": (["--spec", "s.json"], ["--mc", "10", "--seed", "1"], {"spec"}, estimate_all),
    "sweep": (["--experiment", "g1"],
              ["--n", "3", "--dim", "2", "--clusters", "2", "--grid", "0:1:2", "--mc", "10",
               "--seed", "1", "--out", "o.csv", "--plot", "o.svg", "--balanced-clusters"],
              {"grid", "out", "plot"}, SweepConfig),
    "mi": (["--spec", "s.json", "--noise", "n.json"], ["--alpha", "0.3"], {"spec", "noise"},
           mi_bounds),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_option_is_named_for_the_library_parameter_it_sets(command):
    required, optional, cli_only, target = COMMANDS[command]
    parsed = vars(_build_parser().parse_args([command, *required, *optional]))
    assert parsed.pop("command") == command
    assert len(parsed) == sum(arg.startswith("--") for arg in required + optional)
    assert set(parsed) - cli_only <= set(inspect.signature(target).parameters)
    # Only the required options are set when nothing else is given.
    parsed = vars(_build_parser().parse_args([command, *required]))
    assert set(parsed) == {"command", *(arg[2:] for arg in required[::2])}


def test_sweep_options_left_out_take_the_library_defaults(capsys):
    assert main(["sweep", "--experiment", "g1", "--grid", "0:1:2"]) == 0
    config = SweepConfig("g1", grid=log_grid("g1", 0.0, 1.0, 2))
    assert capsys.readouterr().out == format_csv(run_sweep(config))


@pytest.mark.parametrize("doc", [UNEQUAL_PAIR, TWO_BOXES], ids=["gaussian", "uniform"])
def test_estimate_options_left_out_take_the_library_defaults(tmp_path, capsys, doc):
    spec = write_json(tmp_path, "spec.json", doc)
    assert main(["estimate", "--spec", spec]) == 0
    report = estimate_all(load_mixture(spec))
    fields = {"H_cond": report.h_cond, "H_BD": report.h_bd, "H_KL": report.h_kl,
              "H_joint": report.h_joint, "H_KDE": report.h_kde, "H_ELK": report.h_elk}
    assert report.mc is None
    assert parse_report(capsys.readouterr().out) == {
        name: float(f"{value:.12g}") for name, value in fields.items()
    }


def test_mi_alpha_left_out_takes_the_library_default(tmp_path, capsys):
    spec = write_json(tmp_path, "pair.json", UNEQUAL_PAIR)
    noise = write_json(tmp_path, "noise.json", {"cov": [[0.2]]})
    assert main(["mi", "--spec", spec, "--noise", noise]) == 0
    mixture, channel = load_mixture(spec), AwgnChannel(load_noise_cov(noise))
    lower, upper = mi_bounds(mixture, channel)
    assert lower != mi_bounds(mixture, channel, alpha=0.3)[0]
    assert parse_report(capsys.readouterr().out) == {
        "MI_lower": float(f"{lower:.12g}"), "MI_upper": float(f"{upper:.12g}")
    }


# ----------------------------------------------------------------- entry point


def test_no_arguments_is_a_usage_error(capsys):
    assert main([]) == 2
    assert main(["not-a-command"]) == 2
    capsys.readouterr()


@pytest.mark.skipif(shutil.which("mixent") is None, reason="console script not on PATH")
def test_installed_console_script(tmp_path):
    spec = write_json(tmp_path, "single.json", SINGLE_GAUSSIAN)
    proc = subprocess.run(
        ["mixent", "estimate", "--spec", spec], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "H_KL" in proc.stdout
