"""Batch front end: experiment configs in, CSV/JSON tables out.

Subcommands bundle the verification suites:

* ``identity-suite``   per-identity max residuals over seeded draws
* ``donsker``          the point-mass integrability experiment
* ``fbm-cov``          rough-kernel covariance reproduction table
* ``mc-compare``       Monte Carlo statistics against closed forms
* ``vmbv``             one generic integral experiment from a config
* ``sweep``            cartesian sweep over lambda / t / cells

Outputs are deterministic given equal configs (including the seed): floats
are written with shortest round-trip repr, '.' decimal, no locale, sorted
keys.  Exit codes: 0 ok, 2 config/parse error, 3 integrability or
independence gate failure, 4 numeric or truncation overflow, or a kernel
too large for its representation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .chaos import ChaosProcess, ChaosVector
from .config import ConfigError, ExperimentConfig, load_config, parse_config
from .donsker import donsker_vmbv_experiment
from .errors import IndependenceError, IntegrabilityError, RepresentationLimitError, TruncationOverflowError
from .grid import make_grid
from .identities import identity_residuals
from .kernels import SymKernel
from .montecarlo import evaluate_block, sample_noise_block
from .testing import random_sym_kernel, rng_from
from .vmbv import integrate_plain, integrate_sigma, integrate_strongind, integrate_wick
from .volterra import FbmKernel, OuKernel, kernel_eval

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GATE = 3
EXIT_OVERFLOW = 4


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _run_identity_suite(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        grid, seed = cfg.grid, cfg.seed
    else:
        grid, seed = make_grid(1.0, args.cells), args.seed if args.seed is not None else 20260810
    res = identity_residuals(grid, seed, n_draws=args.draws, max_order=args.order)
    rows = [[name, val] for name, val in sorted(res.items())]
    _write_csv(os.path.join(args.out, "identity_suite.csv"), ["identity", "max_residual"], rows)
    worst = max(res.values())
    print(f"identity-suite: {len(res)} identities, max residual {worst:.3e}")
    return EXIT_OK


def _run_donsker(args) -> int:
    grid = make_grid(1.0, args.cells)
    lambdas = [float(x) for x in args.lambda_sweep.split(",")]
    rep = donsker_vmbv_experiment(args.alpha, args.eps, args.t, args.order, lambdas, grid)
    rows = [
        [r.lam, r.norm_sq, r.a3_max, r.bound_max, r.finite] for r in rep.rows
    ]
    _write_csv(
        os.path.join(args.out, "donsker.csv"),
        ["lambda", "norm_sq", "a3_max", "bound_max", "finite"],
        rows,
    )
    if not all(r.finite for r in rep.rows):
        print("donsker: non-finite norm encountered", file=sys.stderr)
        return EXIT_GATE
    print(f"donsker: {len(rep.rows)} lambda rows, all finite, dominated="
          f"{all(r.dominated for r in rep.rows)}")
    return EXIT_OK


def _run_fbm_cov(args) -> int:
    grid = make_grid(1.0, args.cells)
    hursts = [float(h) for h in args.hurst.split(",")]
    pairs = []
    for chunk in args.pairs.split(","):
        t_str, s_str = chunk.split(":")
        t, s = float(t_str), float(s_str)
        if not 0.0 < s < t <= grid.horizon:
            raise ConfigError(f"--pairs: need 0 < s < t <= {grid.horizon}, got t={t}, s={s}")
        pairs.append((t, s))
    rows = []
    for H in hursts:
        k = FbmKernel(H=H)
        for (t, s) in pairs:
            acc = 0.0
            for u in range(grid.snap_down(s)):
                mid = grid.t_mid(u)
                acc += kernel_eval(k, t, mid) * kernel_eval(k, s, mid)
            acc *= grid.step
            exact = 0.5 * (t ** (2 * H) + s ** (2 * H) - abs(t - s) ** (2 * H))
            rows.append([H, t, s, acc, exact, abs(acc - exact) / exact])
    _write_csv(
        os.path.join(args.out, "fbm_cov.csv"),
        ["H", "t", "s", "discrete", "exact", "rel_err"],
        rows,
    )
    worst = max(r[5] for r in rows)
    print(f"fbm-cov: {len(rows)} pairs, worst relative error {worst:.4f}")
    return EXIT_OK


def _run_mc_compare(args) -> int:
    grid = make_grid(1.0, args.cells)
    seed = args.seed if args.seed is not None else 20260810
    n = args.paths
    if n < 2:
        raise ConfigError(f"--paths must be at least 2 for a sample variance, got {n}")
    rng = rng_from(seed)
    block = sample_noise_block(grid, n, seed + 1)
    rows = []

    def emit(name, vals, reference):
        mean = float(np.mean(vals))
        se_mean = float(np.std(vals, ddof=1)) / math.sqrt(n)
        var = float(np.var(vals, ddof=1))
        se_var = var * math.sqrt(2.0 / (n - 1))
        z = (mean - reference) / se_mean if se_mean > 0 else 0.0
        rows.append([name, n, mean, se_mean, var, se_var, reference, z])

    for order in (1, 2, 3):
        k = random_sym_kernel(grid, order, rng, n_entries=5)
        vec = ChaosVector.from_kernel(k)
        vals = evaluate_block(vec, block) ** 2
        emit(f"isometry_n{order}", vals, math.factorial(order) * k.norm_sq())

    b = ChaosVector.brownian_at(grid, grid.horizon)
    emit("brownian_sq", evaluate_block(b, block) ** 2, grid.horizon)

    ou = OuKernel(alpha=1.0)
    proc = ChaosProcess.constant(grid, ChaosVector.deterministic(grid, 1.0))
    x1 = integrate_plain(proc, ou, grid.horizon).value
    ref = (1.0 - math.exp(-2.0 * grid.horizon)) / 2.0
    emit("x1_ou_sq", evaluate_block(x1, block) ** 2, ref)

    _write_csv(
        os.path.join(args.out, "mc_compare.csv"),
        ["experiment", "n_samples", "mean", "se_mean", "var", "se_var", "reference", "z_score"],
        rows,
    )
    worst = max(abs(r[7]) for r in rows)
    print(f"mc-compare: {len(rows)} experiments, worst |z| = {worst:.2f}")
    return EXIT_OK


def _run_single(cfg: ExperimentConfig) -> dict:
    grid = cfg.grid
    kernel = cfg.kernel()
    phi = cfg.integrand()
    lam0 = cfg.lambdas[0]
    cap = cfg.truncation
    if cfg.volatility_mode == "none":
        result = integrate_plain(phi, kernel, cfg.t, lam=lam0, max_order=cap)
    elif cfg.volatility_mode == "pointwise":
        result = integrate_sigma(phi, cfg.volatility(), kernel, cfg.t, lam=lam0, max_order=cap)
    elif cfg.volatility_mode == "wick":
        result = integrate_wick(phi, cfg.volatility(), kernel, cfg.t, lam=lam0, max_order=cap)
    else:
        result = integrate_strongind(phi, cfg.volatility(), kernel, cfg.t, lam=lam0, max_order=cap)

    norms = {}
    for lam in cfg.lambdas:
        norms[repr(float(lam))] = {
            "value": result.value.gnorm(-lam),
            "skorohod_part": result.skorohod_part.gnorm(-lam),
            "drift_part": result.drift_part.gnorm(-lam),
        }
    out = {
        "expectation": result.expectation(),
        "norms": norms,
        "diagnostics": {
            "a3_max": result.diagnostics.a3_max,
            "b4": result.diagnostics.b4,
            "b5": result.diagnostics.b5,
            "aggregate": result.diagnostics.aggregate,
            "clipped_cells": result.diagnostics.clipped_cells,
        },
        "extra_diagnostics": result.extra_diagnostics,
    }
    small = all(isinstance(k, SymKernel) for k in result.value.components.values())
    if small and sum(k.nnz() for k in result.value.components.values()) <= 5000:
        out["value"] = result.value.to_json()
    return out


def _run_vmbv(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = parse_config({**cfg.raw, "seed": args.seed})
    payload = {"config": cfg.raw, "result": _run_single(cfg)}
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "result.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"vmbv: wrote {path}")
    return EXIT_OK


def _run_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = parse_config({**cfg.raw, "seed": args.seed})
    sweep = cfg.sweep or {}
    lambdas = sweep.get("lambdas", list(cfg.lambdas))
    times = sweep.get("t", [cfg.t])
    cells_list = sweep.get("cells", [cfg.grid.cells])

    points = []
    for cells in cells_list:
        for t in times:
            points.append((int(cells), float(t)))

    def run_point(point):
        cells, t = point
        sub = parse_config(
            {
                **cfg.raw,
                "grid": {"horizon": cfg.grid.horizon, "cells": cells},
                "t": t,
                "lambdas": [float(x) for x in lambdas],
                "sweep": {},
            }
        )
        res = _run_single(sub)
        rows = []
        for lam in lambdas:
            n = res["norms"][repr(float(lam))]
            rows.append([cells, t, float(lam), n["value"], n["skorohod_part"],
                         n["drift_part"], res["expectation"]])
        return rows

    rows = [row for point in points for row in run_point(point)]
    _write_csv(
        os.path.join(args.out, "sweep.csv"),
        ["cells", "t", "lambda", "norm_value", "norm_skorohod", "norm_drift", "expectation"],
        rows,
    )
    print(f"sweep: {len(rows)} rows over {len(points)} points")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chaoscalc", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")

    sp = sub.add_parser("identity-suite", help="run the exact-identity battery")
    common(sp)
    sp.add_argument("--config", default=None)
    sp.add_argument("--cells", type=int, default=8)
    sp.add_argument("--order", type=int, default=3)
    sp.add_argument("--draws", type=int, default=50)

    sp = sub.add_parser("donsker", help="point-mass integrability experiment")
    common(sp)
    sp.add_argument("--alpha", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=0.25)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--order", type=int, default=20)
    sp.add_argument("--lambda-sweep", default="0.5,1,2")
    sp.add_argument("--cells", type=int, default=64)

    sp = sub.add_parser("fbm-cov", help="rough-kernel covariance table")
    common(sp)
    sp.add_argument("--hurst", default="0.6,0.7,0.8")
    sp.add_argument("--cells", type=int, default=512)
    sp.add_argument("--pairs", default="1:0.5,1:0.25,0.75:0.5")

    sp = sub.add_parser("mc-compare", help="Monte Carlo closed-form comparison")
    common(sp)
    sp.add_argument("--cells", type=int, default=16)
    sp.add_argument("--paths", type=int, default=100_000)

    sp = sub.add_parser("vmbv", help="one integral experiment from a config")
    common(sp)
    sp.add_argument("--config", required=True)

    sp = sub.add_parser("sweep", help="cartesian sweep from a config")
    common(sp)
    sp.add_argument("--config", required=True)

    return p


_RUNNERS = {
    "identity-suite": _run_identity_suite,
    "donsker": _run_donsker,
    "fbm-cov": _run_fbm_cov,
    "mc-compare": _run_mc_compare,
    "vmbv": _run_vmbv,
    "sweep": _run_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_PARSE if e.code not in (0, None) else 0
    try:
        return _RUNNERS[args.command](args)
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (IntegrabilityError, IndependenceError) as e:
        print(f"gate failure: {e}", file=sys.stderr)
        return EXIT_GATE
    except (TruncationOverflowError, OverflowError, FloatingPointError) as e:
        print(f"numeric overflow: {e}", file=sys.stderr)
        return EXIT_OVERFLOW
    except RepresentationLimitError as e:
        print(f"representation limit: {e}", file=sys.stderr)
        return EXIT_OVERFLOW


if __name__ == "__main__":
    sys.exit(main())
