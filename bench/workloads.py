"""The benchmark workloads: seeded op schedules, op inputs, ops and checks.

Each workload is a closed loop with one client: its ops run one after
another in one single-threaded process.  A schedule is an endless sequence
of rounds.  Round ``r`` is drawn from ``(workload, seed, r)`` alone, so a
seed gives the same ops on every machine.  Every round holds the same op
classes, which keeps the cost of a round steady across seeds; the seed
draws the parameters inside each class.

Ops call only public names of ``chaoscalc`` (its ``__all__``,
``config.parse_config``, ``identities.identity_residuals`` and
``montecarlo.{evaluate_block, sample_noise_block}``), always through the
module object, so a traced run sees the wrapped functions.  They receive
only the configs and processes built here.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from pathlib import Path

import numpy as np

import chaoscalc as cc
from chaoscalc import config, identities, montecarlo

LAMBDAS = (0.5, 1.0, 2.0)
REL_TOL = 1e-10
NOISE_PATHS = 512
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(k) for k in key))


def _materialize(proc):
    """Evaluate every cell of a lazy process, so ops start from built inputs."""
    if proc is not None:
        for _ in proc:
            pass


def _rel_err(a, b, lam: float = 0.0) -> float:
    """Weighted norm of ``a - b`` relative to the larger of the two norms."""
    scale = max(a.gnorm(-lam), b.gnorm(-lam))
    diff = a.sub(b).gnorm(-lam)
    return diff / scale if scale > 0.0 else diff


def _digest(payload, *arrays) -> str:
    h = hashlib.sha256(json.dumps(payload, sort_keys=True).encode())
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()


def _vector_json(vec) -> object:
    """Exact serialization of a chaos vector; kernels without a JSON form
    fall back to their squared norms in hex."""
    try:
        return vec.to_json()
    except AttributeError:
        return [[n, type(k).__name__, float(k.norm_sq()).hex()]
                for n, k in sorted(vec.components.items())]


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class DonskerOp:
    """The point-mass experiment of the ``donsker`` CLI subcommand."""

    def __init__(self, M: int, N: int, alpha: float, eps: float):
        self.cls = f"donsker/M{M}/N{N}"
        self.params = {"M": M, "mode": "plain", "N": N, "alpha": alpha, "eps": eps}

    def build(self):
        return cc.make_grid(1.0, self.params["M"])

    def run(self, grid):
        p = self.params
        return cc.donsker_vmbv_experiment(p["alpha"], p["eps"], 1.0, p["N"], list(LAMBDAS), grid)

    @staticmethod
    def summary(rep) -> dict:
        """Every value of the report, one homogeneous list per quantity."""
        lams = [r.lam for r in rep.rows]
        return {
            "lambdas": lams,
            "norm_sq": [r.norm_sq for r in rep.rows],
            "a3_max": [r.a3_max for r in rep.rows],
            "bound_max": [r.bound_max for r in rep.rows],
            "finite": [r.finite for r in rep.rows],
            "dominated": [r.dominated for r in rep.rows],
            "a3": [list(rep.a3_by_lambda[lam]) for lam in lams],
            "bound": [list(rep.bound_by_lambda[lam]) for lam in lams],
            "kg_layer0_cells": [list(k) for k in sorted(rep.kg_layer0)],
            "kg_layer0": [rep.kg_layer0[k] for k in sorted(rep.kg_layer0)],
            "sign_pattern_ok": rep.sign_pattern_ok,
            "diverges_at_zero_cut": rep.diverges_at_zero_cut,
        }

    def check(self, grid, rep):
        bad = [r.lam for r in rep.rows if not (r.finite and r.dominated)]
        if bad:
            return f"rows not finite and dominated at lambda {bad}"
        if not rep.sign_pattern_ok:
            return "kernel action layer signs do not alternate"
        return None

    def digest(self, rep) -> str:
        return _digest(self.summary(rep))


class WickConstantOp:
    """The point-mass integrand under a constant Wick volatility.

    At orders >= 16 this fails today with a ``ValueError`` while densifying
    a layered kernel, a known defect; the op stays in the mix and counts as
    failed, and any other failure makes the run incorrect.  If it ever
    completes, it must equal twice the plain integral.
    """

    VALUE = 2.0
    expected_error = "ValueError"

    def __init__(self, M: int, N: int, alpha: float, eps: float, cfg_seed: int):
        self.cls = f"donsker-wick-constant/M{M}"
        self.params = {"M": M, "mode": "wick-constant", "N": N, "alpha": alpha, "eps": eps}
        self.obj = {
            "grid": {"horizon": 1.0, "cells": M},
            "kernel": {"kind": "ou", "alpha": alpha},
            "integrand": {"builder": "donsker", "order": N, "eps": eps},
            "volatility": {"mode": "wick", "spec": {"builder": "constant", "value": self.VALUE}},
            "t": 1.0,
            "lambdas": list(LAMBDAS),
            "seed": cfg_seed,
        }

    def build(self):
        cfg = config.parse_config(self.obj)
        phi, vol = cfg.integrand(), cfg.volatility()
        _materialize(phi)
        _materialize(vol)
        return cfg, phi, vol, cfg.kernel()

    def run(self, inputs):
        cfg, phi, vol, kernel = inputs
        result = cc.integrate_wick(phi, vol, kernel, cfg.t, lam=cfg.lambdas[0])
        return result, [result.value.gnorm(-lam) for lam in cfg.lambdas]

    def check(self, inputs, out):
        cfg, phi, _, kernel = inputs
        result, norms = out
        if not all(math.isfinite(v) for v in norms):
            return "non-finite norm"
        plain = cc.integrate_plain(phi, kernel, cfg.t, lam=cfg.lambdas[0]).value
        err = max(_rel_err(result.value, plain.scale(self.VALUE), lam) for lam in cfg.lambdas)
        if not err <= REL_TOL:
            return f"differs from {self.VALUE} x plain integral by {err:.3e}"
        return None

    def digest(self, out) -> str:
        result, norms = out
        return _digest({"value": _vector_json(result.value), "norms": norms})


class VmbvOp:
    """One config through ``parse_config`` and the integral of its mode,
    then the weighted norms at each lambda and pathwise evaluation."""

    INTEGRATE = {
        "none": lambda phi, vol, k, t, lam: cc.integrate_plain(phi, k, t, lam=lam),
        "pointwise": lambda phi, vol, k, t, lam: cc.integrate_sigma(phi, vol, k, t, lam=lam),
        "wick": lambda phi, vol, k, t, lam: cc.integrate_wick(phi, vol, k, t, lam=lam),
        "strongind": lambda phi, vol, k, t, lam: cc.integrate_strongind(phi, vol, k, t, lam=lam),
    }

    def __init__(self, obj: dict, integrand: str, noise):
        self.obj = obj
        self.noise = noise
        mode = obj.get("volatility", {"mode": "none"})["mode"]
        M = obj["grid"]["cells"]
        self.cls = f"vmbv/M{M}/{mode}/{integrand}"
        self.params = {"M": M, "mode": mode, "N": obj["integrand"].get("max_order", 1),
                       "integrand": integrand, "kernel": obj["kernel"]["kind"]}

    def build(self):
        cfg = config.parse_config(self.obj)
        phi, vol = cfg.integrand(), cfg.volatility()
        _materialize(phi)
        _materialize(vol)
        return cfg, phi, vol, cfg.kernel()

    def run(self, inputs):
        cfg, phi, vol, kernel = inputs
        t0 = time.perf_counter()
        result = self.INTEGRATE[cfg.volatility_mode](phi, vol, kernel, cfg.t, cfg.lambdas[0])
        t1 = time.perf_counter()
        norms = [result.value.gnorm(-lam) for lam in cfg.lambdas]
        t2 = time.perf_counter()
        paths = montecarlo.evaluate_block(result.value, self.noise)
        t3 = time.perf_counter()
        return result, norms, paths, {"integrate_s": t1 - t0, "norms_s": t2 - t1,
                                      "evaluate_s": t3 - t2}

    @staticmethod
    def phases(out) -> dict:
        """Time split inside the op: integral, norms, pathwise evaluation."""
        return out[3]

    def check(self, inputs, out):
        cfg, phi, vol, kernel = inputs
        result, norms, paths, _ = out
        if not all(math.isfinite(v) for v in norms) or not np.isfinite(paths).all():
            return "non-finite norm or path value"
        if cfg.volatility_mode in ("none", "wick"):
            oracle = cc.chaos_formula_oracle(phi, kernel, cfg.t, vol)
            err = _rel_err(result.value, oracle)
            if not err <= REL_TOL:
                return f"differs from chaos_formula_oracle by {err:.3e}"
        return None

    def digest(self, out) -> str:
        result, norms, paths, _ = out
        return _digest({"value": _vector_json(result.value), "norms": norms}, paths)


class IdentityOp:
    """One draw of the exact identity battery on 8 cells at order 3."""

    def __init__(self, draw_seed: int):
        self.cls = "identities/M8/order3"
        self.params = {"M": 8, "mode": "identities", "N": 3, "draw_seed": draw_seed}

    def build(self):
        return cc.make_grid(1.0, 8)

    def run(self, grid):
        return identities.identity_residuals(grid, self.params["draw_seed"], n_draws=1, max_order=3)

    def check(self, grid, res):
        worst = max(res.values())
        if not worst <= REL_TOL:
            name = max(res, key=res.get)
            return f"identity {name} residual {worst:.3e}"
        return None

    def digest(self, res) -> str:
        return _digest(sorted(res.items()))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class Donsker:
    """Flagship point-mass experiment, plus the constant-Wick class.

    The layered high-order representation carries this workload; its time
    goes to the diagnostics and the kernel action.  A round holds ten ops
    at M = 16, one for each N in 8..16 and a second one at N = 8; one op at
    M = 32 with N drawn from 8..16; and one constant-Wick op at M = 32 with
    N drawn from 8..16.  Alpha and the cell-aligned left cut eps are drawn
    per op.  Fixing the N of the M = 16 ops keeps the median and the tail,
    which both fall among them, from moving with the seed; the single
    M = 32 op adds at most a few per cent of seed-dependent cost to a run of
    four rounds.  The second N = 8 op moves the median and the p77 tail off
    the edges between two N classes into the middle of one (N = 12 and
    N = 15), where a small change in one op's time cannot make them jump
    from one class to the next.
    """

    name = "donsker"
    TAIL_PCT = 77  # needs 44 completed ops, four rounds
    EPS = {16: (3 / 16, 4 / 16, 5 / 16), 32: (7 / 32, 8 / 32, 9 / 32)}

    def __init__(self, seed: int):
        self.seed = seed

    def round_ops(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        classes = [(16, N) for N in (8, *range(8, 17))] + [(32, rng.randint(8, 16))]
        ops = [DonskerOp(M, N, round(rng.uniform(0.5, 2.0), 4), rng.choice(self.EPS[M]))
               for M, N in classes]
        ops.append(WickConstantOp(32, rng.randint(8, 16), round(rng.uniform(0.5, 2.0), 4),
                                  rng.choice(self.EPS[32]), rng.randrange(2**31)))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def reference_ops() -> dict:
        return {"donsker/M16/N8/alpha1/eps0.25": DonskerOp(16, 8, 1.0, 0.25)}

    @staticmethod
    def reference_values(op, out):
        return DonskerOp.summary(out)


class Vmbv:
    """One experiment config per op through all four integral modes.

    The sparse kernel path runs at scale here: products and Skorohod write
    sparse results and pathwise evaluation reads them.  The integrand and
    kernel family of every op in a round are fixed by ``LAYOUT``, so each
    mode sees every integrand and the round cost does not depend on the
    seed; the seed draws kernel parameters, weights, random integrands,
    constants and the noise block.  The strongind op at M = 64 with a random
    integrand, the fifth-heaviest class, runs three times a round, so that
    the p77 tail lies in the middle of its ops and not on its edge with the
    next class; a second pointwise op at M = 16 keeps the median inside the
    cluster of M = 32 ops.
    """

    name = "vmbv"
    TAIL_PCT = 77  # needs 46 completed ops, two rounds
    CELLS = (16, 32, 64)
    # (mode, M, integrand, kernel family): every mode once at M = 16 and
    # twice at M = 32 and M = 64, each time with another integrand; then a
    # second pointwise op at M = 16 and two more strongind ops at M = 64
    # with a random integrand.  The largest outputs (about 120k entries)
    # come from a random integrand under a Brownian volatility at M = 64,
    # in both product modes.
    LAYOUT = (
        ("none", 16, "wiener", "ou"),
        ("none", 32, "random", "turbulence"),
        ("none", 32, "brownian", "ou"),
        ("none", 64, "brownian", "ou"),
        ("none", 64, "random", "turbulence"),
        ("pointwise", 16, "brownian", "turbulence"),
        ("pointwise", 32, "wiener", "ou"),
        ("pointwise", 32, "random", "turbulence"),
        ("pointwise", 64, "random", "turbulence"),
        ("pointwise", 64, "wiener", "ou"),
        ("wick", 16, "random", "ou"),
        ("wick", 32, "brownian", "turbulence"),
        ("wick", 32, "wiener", "ou"),
        ("wick", 64, "wiener", "ou"),
        ("wick", 64, "random", "ou"),
        ("strongind", 16, "wiener", "turbulence"),
        ("strongind", 32, "random", "ou"),
        ("strongind", 32, "wiener", "turbulence"),
        ("strongind", 64, "brownian", "turbulence"),
        ("strongind", 64, "random", "ou"),
        ("pointwise", 16, "wiener", "ou"),
        ("strongind", 64, "random", "ou"),
        ("strongind", 64, "random", "ou"),
    )

    def __init__(self, seed: int):
        self.seed = seed
        noise_seed = _rng(self.name, seed, "noise").randrange(2**31)
        self.noise = {M: montecarlo.sample_noise_block(cc.make_grid(1.0, M), NOISE_PATHS,
                                                       noise_seed + M)
                      for M in self.CELLS}

    @staticmethod
    def config(M: int, mode: str, integrand: str, kind: str, rng: random.Random) -> dict:
        alpha = round(rng.uniform(0.5, 2.0), 4)
        if kind == "ou":
            kernel = {"kind": "ou", "alpha": alpha}
        else:
            kernel = {"kind": "turbulence", "alpha": alpha, "nu": round(rng.uniform(0.6, 0.95), 4)}
        if integrand == "brownian":
            spec = {"builder": "brownian"}
        elif integrand == "wiener":
            spec = {"builder": "wiener", "weights": [round(rng.uniform(-1, 1), 4) for _ in range(M)]}
        else:
            spec = {"builder": "random", "max_order": 2}
        obj = {"grid": {"horizon": 1.0, "cells": M}, "kernel": kernel, "integrand": spec,
               "t": 1.0, "lambdas": list(LAMBDAS), "seed": rng.randrange(2**31)}
        if mode == "pointwise" or mode == "wick":
            obj["volatility"] = {"mode": mode, "spec": {"builder": "brownian"}}
        elif mode == "strongind":
            obj["volatility"] = {"mode": mode, "spec": {"builder": "constant",
                                                        "value": round(rng.uniform(0.5, 2.0), 4)}}
        return obj

    def round_ops(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        ops = [VmbvOp(self.config(M, mode, integrand, kind, rng), integrand, self.noise[M])
               for mode, M, integrand, kind in self.LAYOUT]
        rng.shuffle(ops)
        return ops

    @staticmethod
    def reference_ops() -> dict:
        grids = {M: cc.make_grid(1.0, M) for M in (16, 32)}
        brownian = {"grid": {"horizon": 1.0, "cells": 16}, "kernel": {"kind": "ou", "alpha": 1.0},
                    "integrand": {"builder": "brownian"}, "t": 1.0, "lambdas": list(LAMBDAS),
                    "seed": 7, "volatility": {"mode": "pointwise", "spec": {"builder": "brownian"}}}
        wiener = {"grid": {"horizon": 1.0, "cells": 32},
                  "kernel": {"kind": "turbulence", "alpha": 1.0, "nu": 0.8},
                  "integrand": {"builder": "wiener",
                                "weights": [round(math.cos(i), 6) for i in range(32)]},
                  "t": 1.0, "lambdas": list(LAMBDAS), "seed": 7,
                  "volatility": {"mode": "pointwise", "spec": {"builder": "brownian"}}}
        return {
            "pointwise/M16/ou/brownian": VmbvOp(
                brownian, "brownian", montecarlo.sample_noise_block(grids[16], 64, 11)),
            "pointwise/M32/turbulence/wiener": VmbvOp(
                wiener, "wiener", montecarlo.sample_noise_block(grids[32], 64, 11)),
        }

    @staticmethod
    def reference_values(op, out):
        result, norms, paths, _ = out
        return {
            "norms": norms,
            "skorohod_norms": [result.skorohod_part.gnorm(-lam) for lam in LAMBDAS],
            "drift_norms": [result.drift_part.gnorm(-lam) for lam in LAMBDAS],
            "expectation": result.expectation(),
            "paths": [float(v) for v in paths],
        }


class Identities:
    """Single draws of the identity battery on 8 cells at order 3.

    Cost here is per-call overhead on thousands of tiny kernels, not problem
    size; it guards small inputs against a layout that only pays at scale.
    """

    name = "identities"
    TAIL_PCT = 95  # needs 200 completed ops, 10 rounds
    ROUND = 20

    def __init__(self, seed: int):
        self.seed = seed

    def round_ops(self, r: int) -> list:
        rng = _rng(self.name, self.seed, r)
        return [IdentityOp(rng.randrange(2**31)) for _ in range(self.ROUND)]

    @staticmethod
    def reference_ops() -> dict:
        return {}

    @staticmethod
    def reference_values(op, out):
        return None


WORKLOADS = {w.name: w for w in (Donsker, Vmbv, Identities)}


def flatten(values, prefix="") -> dict:
    """Leaves of a nested reference record, keyed by their path."""
    if isinstance(values, (dict, list)):
        items = values.items() if isinstance(values, dict) else enumerate(values)
        out = {}
        for key, val in items:
            out.update(flatten(val, f"{prefix}{key}."))
        return out
    if isinstance(values, bool) or values is None:
        return {prefix.rstrip("."): values}
    return {prefix.rstrip("."): float(values)}


def compute_references(workload) -> dict:
    """Run the fixed reference ops of a workload; values keyed by op name."""
    out = {}
    for name, op in workload.reference_ops().items():
        out[name] = workload.reference_values(op, op.run(op.build()))
    return out


def compare_record(got: dict, want: dict) -> str | None:
    """First mismatch between two reference records, or None.

    Flags and non-finite values must be equal.  Finite numbers are compared
    relative to the largest recorded magnitude of the list that holds them,
    so a path value that cancels to near zero is held to its list's scale.
    """
    got, want = flatten(got), flatten(want)
    if got.keys() != want.keys():
        return "fields differ from the recorded reference"
    scale: dict[str, float] = {}
    for key, value in want.items():
        if isinstance(value, float) and math.isfinite(value):
            parent = key.rpartition(".")[0]
            scale[parent] = max(scale.get(parent, 0.0), abs(value))
    for key, value in want.items():
        g = got[key]
        if isinstance(value, float) and math.isfinite(value):
            same = abs(g - value) <= REL_TOL * max(scale[key.rpartition(".")[0]], 1e-300)
        else:
            same = g == value
        if not same:
            return f"{key} = {g!r}, recorded {value!r}"
    return None


def check_references(workload) -> list[str]:
    """Compare the reference ops with the values recorded in reference.json."""
    ops = workload.reference_ops()
    if not ops:
        return []
    recorded = json.loads(REFERENCE_FILE.read_text())
    problems = []
    for name, op in ops.items():
        if name not in recorded:
            problems.append(f"{name}: no recorded reference")
            continue
        try:
            now = workload.reference_values(op, op.run(op.build()))
        except Exception as exc:  # a reference op that raises is a finding, not a crash
            problems.append(f"{name}: raised {type(exc).__name__}: {str(exc)[:200]}")
            continue
        problem = compare_record(now, recorded[name])
        if problem is not None:
            problems.append(f"{name}: {problem}")
    return problems
