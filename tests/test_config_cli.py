"""Config schema validation and the command-line front end, including the
determinism contract and exit codes."""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chaoscalc
import chaoscalc.testing
from chaoscalc.cli import main
from chaoscalc.config import ConfigError, parse_config
from chaoscalc.volterra import TableKernel

BASE = {
    "grid": {"horizon": 1.0, "cells": 8},
    "kernel": {"kind": "ou", "alpha": 1.0},
    "integrand": {"builder": "constant", "value": 1.0},
    "t": 1.0,
    "lambdas": [0.5, 1.0],
    "seed": 7,
}


def cfg_with(**kw):
    obj = json.loads(json.dumps(BASE))
    obj.update(kw)
    return obj


def test_parse_minimal_config():
    cfg = parse_config(BASE)
    assert cfg.grid.cells == 8
    assert cfg.volatility_mode == "none"
    assert cfg.lambdas == (0.5, 1.0)


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError):
        parse_config(cfg_with(bogus=1))
    with pytest.raises(ConfigError):
        parse_config(cfg_with(kernel={"kind": "ou", "alpha": 1.0, "beta": 2.0}))
    with pytest.raises(ConfigError):
        parse_config(cfg_with(integrand={"builder": "constant", "value": 1, "x": 2}))


def test_missing_fields_rejected():
    bad = {k: v for k, v in BASE.items() if k != "seed"}
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_volatility_validation():
    cfg = parse_config(
        cfg_with(volatility={"mode": "wick", "spec": {"builder": "constant", "value": 2.0}})
    )
    assert cfg.volatility_mode == "wick"
    with pytest.raises(ConfigError):
        parse_config(cfg_with(volatility={"mode": "wick"}))
    with pytest.raises(ConfigError):
        parse_config(cfg_with(volatility={"mode": "sideways", "spec": BASE["integrand"]}))


def test_builders_produce_processes():
    cfg = parse_config(cfg_with(integrand={"builder": "brownian"}))
    proc = cfg.integrand()
    assert proc.at(0).is_zero()
    assert proc.at(4).component(1).entries == {(i,): 1.0 for i in range(4)}

    weights = [1.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    cfg = parse_config(cfg_with(integrand={"builder": "wiener", "weights": weights}))
    proc = cfg.integrand()
    assert proc.at(3).component(1).entries == {(0,): 1.0, (2,): 2.0}

    cfg = parse_config(cfg_with(integrand={"builder": "donsker", "order": 4, "eps": 0.25}))
    proc = cfg.integrand()
    assert proc.at(0).is_zero()
    assert not proc.at(2).is_zero()

    cfg = parse_config(cfg_with(integrand={"builder": "random", "max_order": 2}))
    assert cfg.integrand().max_order() <= 2


def test_custom_builder_round_trip():
    from chaoscalc import ChaosVector, make_grid

    g = make_grid(1.0, 8)
    vec = ChaosVector.deterministic(g, 3.0)
    cells = [None] * 7 + [vec.to_json()]
    cfg = parse_config(cfg_with(integrand={"builder": "custom", "cells": cells}))
    proc = cfg.integrand()
    assert proc.at(0).is_zero()
    assert proc.at(7).expectation() == 3.0


def run_cli(args, tmp_path):
    return main(args + ["--out", str(tmp_path)])


def test_cli_identity_suite(tmp_path):
    code = run_cli(["identity-suite", "--draws", "3"], tmp_path)
    assert code == 0
    lines = (tmp_path / "identity_suite.csv").read_text().strip().splitlines()
    assert lines[0] == "identity,max_residual"
    assert len(lines) == 10
    for line in lines[1:]:
        assert float(line.split(",")[1]) <= 1e-10


def test_cli_donsker(tmp_path):
    code = run_cli(
        ["donsker", "--cells", "16", "--order", "6", "--eps", "0.25",
         "--lambda-sweep", "0.5,1,2"],
        tmp_path,
    )
    assert code == 0
    lines = (tmp_path / "donsker.csv").read_text().strip().splitlines()
    assert lines[0] == "lambda,norm_sq,a3_max,bound_max,finite"
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.endswith("True")


def test_cli_fbm_cov_small(tmp_path):
    code = run_cli(["fbm-cov", "--cells", "64", "--hurst", "0.7", "--pairs", "1:0.5"], tmp_path)
    assert code == 0
    lines = (tmp_path / "fbm_cov.csv").read_text().strip().splitlines()
    assert len(lines) == 2


def test_cli_fbm_cov_sums_the_cells_below_an_unaligned_s(tmp_path):
    """On 10 cells 0.3 / 0.1 rounds to 2.9999999999999996, yet three cells
    lie below s = 0.3: the sum takes them all, as ``snap_down`` does."""
    assert run_cli(["fbm-cov", "--cells", "10", "--hurst", "0.7", "--pairs", "1:0.3"], tmp_path) == 0
    row = (tmp_path / "fbm_cov.csv").read_text().strip().splitlines()[1].split(",")
    grid, k = chaoscalc.make_grid(1.0, 10), chaoscalc.FbmKernel(H=0.7)
    g = chaoscalc.kernel_eval
    want = grid.step * sum(g(k, 1.0, grid.t_mid(u)) * g(k, 0.3, grid.t_mid(u)) for u in range(3))
    assert float(row[3]) == pytest.approx(want, rel=1e-12)
    assert float(row[5]) < 0.05


def test_cli_mc_compare(tmp_path):
    code = run_cli(["mc-compare", "--cells", "8", "--paths", "20000", "--seed", "3"], tmp_path)
    assert code == 0
    lines = (tmp_path / "mc_compare.csv").read_text().strip().splitlines()
    assert lines[0].startswith("experiment,")
    assert len(lines) == 6
    for line in lines[1:]:
        z = abs(float(line.split(",")[-1]))
        assert z < 4.0


def test_cli_mc_compare_rejects_fewer_than_two_paths(tmp_path, capsys):
    for paths in ("1", "0"):
        assert run_cli(["mc-compare", "--cells", "4", "--paths", paths], tmp_path) == 2
        assert "--paths must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "mc_compare.csv").exists()


@pytest.mark.parametrize("args,message", [
    (["donsker", "--alpha", "nan"], "alpha must be finite"),
    (["donsker", "--alpha", "inf"], "alpha must be finite"),
    (["donsker", "--lambda-sweep", "0.5,nan"], "lambdas must be finite"),
    (["identity-suite", "--draws", "0"], "n_draws must be at least 1"),
    (["identity-suite", "--order", "-1"], "max_order must be >= 0"),
    (["fbm-cov", "--hurst", "0.8", "--pairs", "2:0.5"], "need 0 < s < t <= 1.0"),
    (["fbm-cov", "--hurst", "0.8", "--pairs", "1:0.5,1:0"], "need 0 < s < t <= 1.0"),
], ids=["donsker-alpha-nan", "donsker-alpha-inf", "donsker-lambda-nan", "identity-draws-0",
        "identity-order-negative", "fbm-cov-t-beyond-horizon", "fbm-cov-s-zero"])
def test_cli_subcommand_inputs_that_compute_nothing_exit_2(tmp_path, capsys, args, message):
    small = {"donsker": ["--cells", "16", "--order", "2"], "identity-suite": ["--draws", "1"],
             "fbm-cov": ["--cells", "16"]}[args[0]]
    assert run_cli([args[0]] + small + args[1:], tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_cli_vmbv_and_determinism(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(
        integrand={"builder": "random", "max_order": 2},
        volatility={"mode": "wick", "spec": {"builder": "constant", "value": 2.0}},
    )))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "result.json").read_bytes()
    b2 = (out2 / "result.json").read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["config"]["seed"] == 7
    assert "norms" in payload["result"]


def test_cli_sweep_deterministic(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(
        sweep={"lambdas": [0.5, 1.0], "t": [0.5, 1.0], "cells": [4, 8]},
    )))
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    lines = (out1 / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2


def test_cli_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["vmbv", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps(cfg_with(bogus=1)))
    assert main(["vmbv", "--config", str(bad2), "--out", str(tmp_path)]) == 2


def test_cli_malformed_custom_cell_is_config_error(tmp_path, capsys):
    """A custom cell whose vector names its grid with the config's keys
    instead of the serialized ones exits 2; no exception escapes main."""
    grid = {"horizon": 1.0, "cells": 4}
    cell = {"grid": grid, "components": []}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(
        grid=grid, integrand={"builder": "custom", "cells": [cell] * 4},
    )))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "custom: malformed cell vector" in capsys.readouterr().err


def test_cli_gate_failure_exit_code(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(
        integrand={"builder": "random", "max_order": 2, "support": [0, 1, 2, 3]},
        volatility={"mode": "strongind",
                    "spec": {"builder": "random", "max_order": 1, "support": [3, 4]}},
    )))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path)]) == 3


def test_cli_overflow_exit_code(tmp_path):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(
        integrand={"builder": "random", "max_order": 2},
        volatility={"mode": "wick", "spec": {"builder": "random", "max_order": 2}},
        truncation=2,
    )))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("mode", ["pointwise", "wick"])
def test_cli_representation_limit_exit_code(tmp_path, capsys, mode):
    """A product that needs an order-12 layered kernel on 32 cells as sparse
    tuples hits the densify limit: exit 4, not a config error."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(
        grid={"horizon": 1.0, "cells": 32},
        integrand={"builder": "donsker", "order": 12, "eps": 0.25},
        volatility={"mode": mode, "spec": {"builder": "brownian"}},
    )))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path)]) == 4
    assert "too large to densify" in capsys.readouterr().err


@pytest.mark.parametrize("lam", [math.inf, math.nan])
def test_cli_non_finite_lambda_is_config_error(tmp_path, capsys, lam):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(lambdas=[lam])))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    assert "lambdas must be finite" in capsys.readouterr().err


def test_cli_huge_lambda_writes_finite_norms(tmp_path):
    """At lambda = 1e308 the order-0 weight stays 1 although 2 * lambda
    overflows: the deterministic drift part has a finite norm."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(integrand={"builder": "brownian"}, lambdas=[1e308])))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    norms = json.loads((tmp_path / "result.json").read_text())["result"]["norms"]["1e+308"]
    assert norms["drift_part"] > 0.0
    assert all(math.isfinite(v) for v in norms.values())


@pytest.mark.parametrize("lam, code", [(-400.0, 4), (-1e308, 4), (400.0, 0)])
def test_cli_weight_overflow_exits_4_without_warning(tmp_path, capsys, recwarn, lam, code):
    """The diagnostics weight order n by n! e^{-2 lam n}: at lam = -400 the
    exponential overflows and at lam = -1e308 its exponent does.  Both are
    an overflow naming the order (exit 4), not a failed gate or a warning."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(integrand={"builder": "brownian"}, lambdas=[lam])))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path)]) == code
    if code == 4:
        assert "weighted term of order 1 overflows" in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


GRID4 = {"horizon": 1.0, "cells": 4}
CUSTOM_CELL9 = {"grid": {"T": 1.0, "M": 4}, "components": [
    {"order": 1, "grid": {"T": 1.0, "M": 4}, "entries": [[[9], 1.0]]}]}
CUSTOM_CELL_NAN = {"grid": {"T": 1.0, "M": 4}, "components": [
    {"order": 1, "grid": {"T": 1.0, "M": 4}, "entries": [[[1], math.nan]]}]}
# config overrides of the wrong type, not finite, outside the grid or out of
# a builder's or a kernel's range, by subcommand
BAD_CONFIGS = {
    "lambdas-number": ("vmbv", {"lambdas": 1.0}),
    "t-list": ("vmbv", {"t": [1.0]}),
    "cells-list": ("vmbv", {"grid": {"horizon": 1.0, "cells": [4]}}),
    "truncation-list": ("vmbv", {"truncation": [1]}),
    "wiener-weights-number": ("vmbv", {"integrand": {"builder": "wiener", "weights": 5}}),
    "constant-value-list": ("vmbv", {"integrand": {"builder": "constant", "value": [1]}}),
    "random-support-number": ("vmbv", {"integrand": {"builder": "random", "max_order": 2, "support": 3}}),
    "sweep-t-number": ("sweep", {"sweep": {"t": 0.5}}),
    "sweep-cells-number": ("sweep", {"sweep": {"cells": 8}}),
    "sweep-lambdas-number": ("sweep", {"sweep": {"lambdas": 2}}),
    "random-support-above-grid": ("vmbv", {"grid": GRID4, "integrand": {
        "builder": "random", "max_order": 2, "support": [100]}}),
    "random-support-below-grid": ("vmbv", {"grid": GRID4, "integrand": {
        "builder": "random", "max_order": 2, "support": [-1]}}),
    "custom-cell-outside-grid": ("vmbv", {"grid": GRID4, "integrand": {
        "builder": "custom", "cells": [None, None, None, CUSTOM_CELL9]}}),
    "custom-cells-number": ("vmbv", {"integrand": {"builder": "custom", "cells": 5}}),
    "integrand-number": ("vmbv", {"integrand": 5}),
    "kernel-alpha-list": ("vmbv", {"kernel": {"kind": "ou", "alpha": [1.0]}}),
    "table-values-number": ("vmbv", {"kernel": {"kind": "table", "values": 5}}),
    "seed-list": ("vmbv", {"seed": [7]}),
    "constant-value-nan": ("vmbv", {"grid": GRID4, "integrand": {"builder": "constant", "value": math.nan}}),
    "wiener-weights-infinite": ("vmbv", {"grid": GRID4, "integrand": {
        "builder": "wiener", "weights": [1.0, math.inf, 0.0, 1.0]}}),
    "random-scale-nan": ("vmbv", {"grid": GRID4, "integrand": {"builder": "random", "max_order": 2, "scale": math.nan}}),
    "table-node-nan": ("vmbv", {"kernel": {"kind": "table", "values": [[1.0, math.nan], [0.5, 1.0]]}}),
    "donsker-eps-nan": ("vmbv", {"grid": GRID4, "integrand": {"builder": "donsker", "order": 2, "eps": math.nan}}),
    "random-max-order-negative": ("vmbv", {"grid": GRID4, "integrand": {"builder": "random", "max_order": -1}}),
    "random-entries-zero": ("vmbv", {"grid": GRID4, "integrand": {"builder": "random", "max_order": 2, "entries": 0}}),
    "random-support-empty": ("vmbv", {"grid": GRID4, "integrand": {"builder": "random", "max_order": 1, "support": []}}),
    "custom-coefficient-nan": ("vmbv", {"grid": GRID4, "integrand": {
        "builder": "custom", "cells": [None, None, None, CUSTOM_CELL_NAN]}}),
    "t-below-one-cell": ("vmbv", {"t": 0.1}),
    "donsker-eps-above-horizon": ("vmbv", {"grid": GRID4, "integrand": {"builder": "donsker", "order": 2, "eps": 1.5}}),
    "donsker-eps-negative": ("vmbv", {"grid": GRID4, "integrand": {"builder": "donsker", "order": 2, "eps": -0.25}}),
    "donsker-eps-unaligned": ("vmbv", {"grid": GRID4, "integrand": {"builder": "donsker", "order": 2, "eps": 0.3}}),
    "donsker-eps-zero": ("vmbv", {"grid": GRID4, "integrand": {"builder": "donsker", "order": 2, "eps": 0.0}}),
    "donsker-order-negative": ("vmbv", {"grid": GRID4, "integrand": {"builder": "donsker", "order": -1, "eps": 0.25}}),
    "ou-alpha-zero": ("vmbv", {"kernel": {"kind": "ou", "alpha": 0.0}}),
    "fbm-hurst-one": ("vmbv", {"kernel": {"kind": "fbm", "H": 1.0}}),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_config_of_wrong_type_or_outside_grid_is_config_error(tmp_path, capsys, name):
    """A value of the wrong type, or a cell the grid does not have, raises
    ConfigError while the config is read or its processes are built, and
    the command line exits 2 with one line on stderr, the same on a rerun."""
    command, overrides = BAD_CONFIGS[name]
    obj = cfg_with(**overrides)
    with pytest.raises(ConfigError):
        parse_config(obj).integrand()
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(obj))
    errors = []
    for rerun in range(2):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / str(rerun))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        errors.append(err)
    assert errors[0] == errors[1]
    assert not list(tmp_path.glob("*/*"))


def test_cli_random_wick_volatility_at_one_cell_computes(tmp_path):
    """At t of one cell, random integrand components whose tuples miss that
    cell have a derivative stack with no entry; under a random Wick
    volatility the integral computes (exit 0), the same bytes on a rerun."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(
        grid={"horizon": 1.0, "cells": 6}, kernel={"kind": "ou", "alpha": 0.5},
        integrand={"builder": "random", "max_order": 2, "entries": 3}, t=1 / 6, lambdas=[0.0], seed=88,
        volatility={"mode": "wick", "spec": {"builder": "random", "max_order": 1}},
    )))
    runs = []
    for rerun in range(2):
        assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path / str(rerun))]) == 0
        runs.append((tmp_path / str(rerun) / "result.json").read_bytes())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("values", [[[1.0]], [], [[0.0, 1.0], [1.0]], [[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]]],
                         ids=["one-node", "empty", "ragged", "not-square"])
def test_table_kernel_needs_a_square_table_of_two_nodes(tmp_path, capsys, values):
    with pytest.raises(ValueError, match="square table"):
        TableKernel.from_array(values, 1.0)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg_with(kernel={"kind": "table", "values": values})))
    assert main(["vmbv", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


SWEEP_BUILDERS = {
    "constant": {"builder": "constant", "value": 1.5},
    "brownian": {"builder": "brownian"},
    "wiener": {"builder": "wiener", "weights": [1.0, -0.5, 0.25, 2.0]},
    "donsker": {"builder": "donsker", "order": 3, "eps": 0.25},
    "random": {"builder": "random", "max_order": 2},
}
SWEEP_VOLATILITIES = ["constant", "brownian", "wiener", "random"]
OU = {"kind": "ou", "alpha": 1.0}
TURBULENCE = {"kind": "turbulence", "alpha": 1.0, "nu": 0.8}
FBM_ROUGH, FBM_SMOOTH = {"kind": "fbm", "H": 0.3}, {"kind": "fbm", "H": 0.7}
# (cells, kernel): OU and turbulence on 4 cells, both fbm kernels on 8
# cells; the full cross product would take about 20 s
SWEEP_GRIDS = [(4, OU), (4, TURBULENCE), (8, FBM_SMOOTH), (8, FBM_ROUGH)]


def _sweep_spec(name: str, cells: int) -> dict:
    """A sweep builder on a grid of ``cells`` cells: the wiener weights
    repeat to the grid size."""
    spec = dict(SWEEP_BUILDERS[name])
    if name == "wiener":
        spec["weights"] = [spec["weights"][i % 4] for i in range(cells)]
    return spec


@pytest.mark.parametrize("integrand", sorted(SWEEP_BUILDERS))
def test_cli_vmbv_sweep_exit_codes_and_rerun_bytes(tmp_path, integrand):
    """Every builder x volatility x mode config, on each grid and kernel of
    the sweep, computes or fails with a documented exit code, and a rerun
    writes equal bytes."""
    cases = itertools.product(SWEEP_GRIDS, SWEEP_VOLATILITIES, ["none", "pointwise", "wick", "strongind"])
    for (cells, kernel), vol, mode in cases:
        name = f"{integrand}-{vol}-{mode}-{kernel['kind']}{kernel.get('H', '')}-{cells}"
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg_with(
            grid={"horizon": 1.0, "cells": cells},
            kernel=kernel,
            integrand=_sweep_spec(integrand, cells),
            volatility={"mode": mode, "spec": _sweep_spec(vol, cells)},
        )))
        runs = []
        for rerun in range(2):
            out = tmp_path / f"{name}-{rerun}"
            code = main(["vmbv", "--config", str(cfg_path), "--out", str(out)])
            assert code in (0, 2, 3, 4), name
            result = out / "result.json"
            runs.append((code, result.read_bytes() if result.exists() else None))
        assert runs[0] == runs[1], name
        assert (runs[0][0] == 0) == (runs[0][1] is not None), name


def _child_env() -> dict:
    """The environment of a child process that imports the package the
    tests imported."""
    src = str(Path(chaoscalc.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "chaoscalc.cli", "identity-suite", "--draws", "1",
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "identity-suite" in proc.stdout


def test_runtime_imports_no_scipy():
    """numpy is the only runtime dependency: importing the package and its
    command line loads no scipy module."""
    code = ("import sys, chaoscalc, chaoscalc.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# -- a fuzz over the config schema --------------------------------------------

FUZZ_LAMBDAS = [0.0, 0.5, 1.0, -0.5, 50.0, -50.0]


@st.composite
def vmbv_configs(draw) -> dict:
    """A config drawn from the schema: every builder, volatility mode and
    kernel kind, on at most 8 cells with orders at most 3.  Some choices
    are invalid, times off the grid or outside it and parameters outside
    their ranges, so some configs are config errors."""
    cells = draw(st.integers(1, 8))
    grid = chaoscalc.make_grid(1.0, cells)
    value = st.floats(-2.0, 2.0)
    order = st.sampled_from([2, 0, -1, 1, 3])
    cell_times = st.integers(1, cells).map(lambda j: j * grid.step)
    time = st.one_of(cell_times, st.integers(-1, cells + 1).map(lambda j: j * grid.step),
                     st.floats(-0.25, 1.25), cell_times)

    def custom_cell():
        kind = draw(st.sampled_from(["random", "layered", "none"]))
        if kind == "none":
            return None
        if kind == "random":
            rng = chaoscalc.testing.rng_from(draw(st.integers(0, 999)))
            return chaoscalc.testing.random_chaos_vector(grid, draw(st.integers(0, 3)), rng, n_entries=2).to_json()
        kernel = chaoscalc.LayeredKernel.prefix_constant(draw(st.integers(1, 3)), grid, draw(value),
                                                          draw(st.integers(1, cells)))
        return chaoscalc.ChaosVector.from_kernel(kernel).to_json()

    def builder() -> dict:
        name = draw(st.sampled_from(sorted(chaoscalc.config._BUILDER_KEYS)))
        if name == "constant":
            return {"builder": name, "value": draw(value)}
        if name == "brownian":
            return {"builder": name}
        if name == "wiener":
            return {"builder": name, "weights": draw(st.lists(value, min_size=cells, max_size=cells))}
        if name == "donsker":
            return {"builder": name, "order": draw(order), "eps": draw(time)}
        if name == "custom":
            return {"builder": name, "cells": [custom_cell() for _ in range(cells)]}
        spec = {"builder": name, "max_order": draw(order), "entries": draw(st.sampled_from([2, 0, 1, 3])),
                "scale": draw(value)}
        if draw(st.booleans()):
            spec["support"] = draw(st.lists(st.integers(0, cells - 1), max_size=cells, unique=True))
        return spec

    kind = draw(st.sampled_from(["ou", "turbulence", "fbm", "table"]))
    if kind == "ou":
        kernel = {"kind": kind, "alpha": draw(st.sampled_from([1.0, 0.0, 0.5, 2.0]))}
    elif kind == "turbulence":
        kernel = {"kind": kind, "alpha": draw(st.sampled_from([1.0, 0.0, 0.5])),
                  "nu": draw(st.sampled_from([0.8, 0.5, 0.95]))}
    elif kind == "fbm":
        kernel = {"kind": kind, "H": draw(st.sampled_from([0.7, 0.0, 1.0, 0.5, 0.3]))}
    else:
        nodes = draw(st.sampled_from([2, 1, 3]))
        row = st.lists(value, min_size=nodes, max_size=nodes)
        kernel = {"kind": kind, "values": draw(st.lists(row, min_size=nodes, max_size=nodes))}
    mode = draw(st.sampled_from(["none", "pointwise", "wick", "strongind"]))
    obj = {"grid": {"horizon": 1.0, "cells": cells}, "kernel": kernel, "integrand": builder(),
           "volatility": {"mode": mode, "spec": builder()}, "t": draw(time),
           "lambdas": draw(st.lists(st.sampled_from(FUZZ_LAMBDAS), min_size=1, max_size=3)),
           "seed": draw(st.integers(0, 999))}
    if draw(st.booleans()):
        obj["truncation"] = draw(st.integers(0, 8))
    return obj


def raises_config_error(obj: dict) -> bool:
    try:
        cfg = parse_config(obj)
        cfg.integrand()
        cfg.volatility()
    except ConfigError:
        return True
    return False


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(obj=vmbv_configs())
def test_cli_vmbv_fuzz_exit_codes_and_rerun_bytes(obj):
    """Every config of the schema computes or exits with a documented code,
    a rerun writes the same bytes and the same stderr, and exit 2 means
    the config, its integrand or its volatility raised ConfigError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "exp.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        runs = []
        for rerun in range(2):
            out = os.path.join(tmp, str(rerun))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["vmbv", "--config", path, "--out", out])
            result = Path(out, "result.json")
            runs.append((code, result.read_bytes() if result.exists() else None, err.getvalue()))
    code = runs[0][0]
    assert code in (0, 2, 3, 4), runs[0][2]
    assert runs[0] == runs[1]
    assert (code == 2) == raises_config_error(obj), runs[0][2]
