"""Experiment configuration: strict JSON schema plus integrand builders.

Unknown keys are rejected at every level so a typo fails loudly instead of
silently running a default.  Builders produce the integrand or volatility
process on the configured grid:

* ``constant``: the deterministic value at every cell,
* ``brownian``: the running driver value at the cell's left endpoint,
* ``wiener``: first-order integral of the given step weights up to each cell,
* ``donsker``: the left-cut point-mass composition,
* ``custom``: explicit serialized chaos vectors per cell (null = zero),
* ``random``: seeded sparse draws, for sweeps and identity batteries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .chaos import ChaosProcess, ChaosVector
from .donsker import donsker_process
from .grid import GridSpec, make_grid
from .kernels import SymKernel
from .testing import random_chaos_process, rng_from
from .volterra import VolterraKernel, kernel_from_config


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _number(value, where: str, kind=float):
    """``kind(value)`` for a config number; anything else, and a float that
    is not finite, is a ConfigError naming ``where``."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from e
    if kind is float and not math.isfinite(out):
        raise ConfigError(f"{where} must be finite, got {out}")
    return out


def _numbers(value, where: str, kind=float) -> list:
    """A config list of numbers, each converted by ``kind``."""
    if not isinstance(value, list):
        raise ConfigError(f"{where}: expected a list, got {value!r}")
    return [_number(v, where, kind) for v in value]


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


_KERNEL_KEYS = {
    "ou": ({"kind", "alpha"}, set()),
    "turbulence": ({"kind", "alpha", "nu"}, set()),
    "fbm": ({"kind", "H"}, set()),
    "table": ({"kind", "values"}, set()),
}

_BUILDER_KEYS = {
    "constant": ({"builder", "value"}, set()),
    "brownian": ({"builder"}, set()),
    "wiener": ({"builder", "weights"}, set()),
    "donsker": ({"builder", "order", "eps"}, {"t"}),
    "custom": ({"builder", "cells"}, set()),
    "random": ({"builder", "max_order"}, {"entries", "support", "scale"}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    grid: GridSpec
    kernel_config: dict
    integrand_config: dict
    volatility_mode: str
    volatility_config: dict | None
    t: float
    lambdas: tuple[float, ...]
    truncation: int | None
    seed: int
    sweep: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def kernel(self) -> VolterraKernel:
        return kernel_from_config(self.kernel_config, horizon=self.grid.horizon)

    def integrand(self) -> ChaosProcess:
        return build_process(self.integrand_config, self.grid, self.seed, self.t)

    def volatility(self) -> ChaosProcess | None:
        if self.volatility_mode == "none":
            return None
        return build_process(self.volatility_config, self.grid, self.seed + 1, self.t)


def _validate_kernel(cfg: dict):
    kind = cfg.get("kind") if isinstance(cfg, dict) else None
    if kind not in _KERNEL_KEYS:
        raise ConfigError(f"kernel: unknown kind {kind!r}")
    required, optional = _KERNEL_KEYS[kind]
    _require_keys(cfg, required, optional, "kernel")
    for key in sorted(required - {"kind", "values"}):
        _number(cfg[key], f"kernel: {key}")
    if kind == "table":
        if not isinstance(cfg["values"], list):
            raise ConfigError(f"kernel: values: expected a list of rows, got {cfg['values']!r}")
        for row in cfg["values"]:
            _numbers(row, "kernel: values")


def _validate_builder(cfg: dict, where: str):
    builder = cfg.get("builder") if isinstance(cfg, dict) else None
    if builder not in _BUILDER_KEYS:
        raise ConfigError(f"{where}: unknown builder {builder!r}")
    required, optional = _BUILDER_KEYS[builder]
    _require_keys(cfg, required, optional, where)


def build_process(cfg: dict, grid: GridSpec, seed: int, t: float) -> ChaosProcess:
    builder = cfg["builder"]
    if builder == "constant":
        vec = ChaosVector.deterministic(grid, _number(cfg["value"], "constant: value"))
        return ChaosProcess.constant(grid, vec)
    if builder == "brownian":
        return ChaosProcess.from_function(
            grid,
            lambda j: (
                ChaosVector.brownian_at(grid, grid.t_left(j))
                if j > 0
                else ChaosVector.zero(grid)
            ),
        )
    if builder == "wiener":
        weights = _numbers(cfg["weights"], "wiener: weights")
        if len(weights) != grid.cells:
            raise ConfigError(f"wiener: need {grid.cells} weights, got {len(weights)}")

        def wiener_at(j: int) -> ChaosVector:
            ent = {(i,): weights[i] for i in range(j) if weights[i] != 0.0}
            if not ent:
                return ChaosVector.zero(grid)
            return ChaosVector.from_kernel(SymKernel(1, grid, ent))

        return ChaosProcess.from_function(grid, wiener_at)
    if builder == "donsker":
        if "t" in cfg and abs(_number(cfg["t"], "donsker: t") - t) > 1e-12:
            raise ConfigError(f"donsker: builder t={cfg['t']} conflicts with experiment t={t}")
        order = _number(cfg["order"], "donsker: order", int)
        eps = _number(cfg["eps"], "donsker: eps")
        if order < 0:
            raise ConfigError(f"donsker: order must be >= 0, got {order}")
        if not (0.0 < eps <= grid.horizon * (1 + 1e-12) and grid.is_aligned(eps) and grid.snap_down(eps) >= 1):
            raise ConfigError(f"donsker: eps={eps} must be a whole number of cells of step {grid.step}, "
                              f"at least one, up to the horizon")
        return donsker_process(grid, order, eps)
    if builder == "custom":
        cells = cfg["cells"]
        count = len(cells) if isinstance(cells, list) else type(cells).__name__
        if count != grid.cells:
            raise ConfigError(f"custom: need {grid.cells} cell entries, got {count}")
        values = []
        for obj in cells:
            if obj is None:
                values.append(ChaosVector.zero(grid))
            else:
                try:
                    vec = ChaosVector.from_json(obj)
                except (KeyError, TypeError, ValueError) as e:
                    raise ConfigError(f"custom: malformed cell vector: {e!r}") from e
                if vec.grid != grid:
                    raise ConfigError("custom: cell vector grid differs from config grid")
                values.append(vec)
        return ChaosProcess.from_values(grid, values)
    if builder == "random":
        max_order = _number(cfg["max_order"], "random: max_order", int)
        entries = _number(cfg.get("entries", 2), "random: entries", int)
        if max_order < 0:
            raise ConfigError(f"random: max_order must be >= 0, got {max_order}")
        if entries < 1:
            raise ConfigError(f"random: entries must be >= 1, got {entries}")
        support = cfg.get("support")
        if support is not None:
            support = _numbers(support, "random: support", int)
            outside = [c for c in support if not 0 <= c < grid.cells]
            if outside:
                raise ConfigError(f"random: support cell {outside[0]} outside grid with {grid.cells} cells")
            if not support and max_order >= 1:
                raise ConfigError("random: support must be non-empty when max_order >= 1")
        return random_chaos_process(grid, max_order, rng_from(seed), n_entries=entries, cells=support,
                                    scale=_number(cfg.get("scale", 1.0), "random: scale"))
    raise ConfigError(f"unknown builder {builder!r}")


def parse_config(obj: dict) -> ExperimentConfig:
    _require_keys(
        obj,
        {"grid", "kernel", "integrand", "t", "lambdas", "seed"},
        {"volatility", "truncation", "sweep"},
        "config",
    )
    _require_keys(obj["grid"], {"horizon", "cells"}, set(), "grid")
    horizon = _number(obj["grid"]["horizon"], "grid: horizon")
    cells = _number(obj["grid"]["cells"], "grid: cells", int)
    try:
        grid = make_grid(horizon, cells)
    except ValueError as e:
        raise ConfigError(f"grid: {e}") from e
    _validate_kernel(obj["kernel"])
    try:
        kernel_from_config(obj["kernel"], horizon=grid.horizon)
    except ValueError as e:  # a parameter outside its family's range
        raise ConfigError(f"kernel: {e}") from e
    _validate_builder(obj["integrand"], "integrand")

    vol_obj = obj.get("volatility", {"mode": "none"})
    _require_keys(vol_obj, {"mode"}, {"spec"}, "volatility")
    mode = vol_obj["mode"]
    if mode not in ("none", "pointwise", "wick", "strongind"):
        raise ConfigError(f"volatility: unknown mode {mode!r}")
    vol_cfg = None
    if mode != "none":
        if "spec" not in vol_obj:
            raise ConfigError("volatility: mode requires a spec")
        _validate_builder(vol_obj["spec"], "volatility.spec")
        vol_cfg = vol_obj["spec"]

    t = _number(obj["t"], "t")
    if not (0.0 < t <= grid.horizon * (1 + 1e-12)):
        raise ConfigError(f"t={t} outside (0, horizon]")
    if grid.snap_down(t) < 1:
        raise ConfigError(f"t={t} must cover at least one cell of step {grid.step}")
    lambdas = tuple(_numbers(obj["lambdas"], "lambdas"))
    if not lambdas:
        raise ConfigError("lambdas must be non-empty")
    truncation = obj.get("truncation")
    if truncation is not None:
        truncation = _number(truncation, "truncation", int)
        if truncation < 0:
            raise ConfigError(f"truncation must be >= 0, got {truncation}")
    sweep = obj.get("sweep", {})
    _require_keys(sweep, set(), {"lambdas", "t", "cells"}, "sweep")
    sweep = {key: _numbers(values, f"sweep: {key}", int if key == "cells" else float)
             for key, values in sweep.items()}

    return ExperimentConfig(
        grid=grid,
        kernel_config=dict(obj["kernel"]),
        integrand_config=dict(obj["integrand"]),
        volatility_mode=mode,
        volatility_config=vol_cfg,
        t=t,
        lambdas=lambdas,
        truncation=truncation,
        seed=_number(obj["seed"], "seed", int),
        sweep=dict(sweep),
        raw=obj,
    )


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config(obj)
