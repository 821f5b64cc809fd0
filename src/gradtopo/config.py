"""Problem description: the RunConfig data model and its INI-style file format.

The configuration file uses plain ``key = value`` entries grouped under the
section headers ``[domain]``, ``[material]``, ``[optimizer]``, ``[stress]``
and ``[output]``.  Any key can be overridden on the command line with
``--set section.key=value``.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, replace

__all__ = [
    "Box",
    "RunConfig",
    "ConfigError",
    "load_config",
    "loads_config",
    "serialize",
    "validate",
    "validated",
    "apply_overrides",
    "cantilever_config",
    "benchmark_config",
]


class ConfigError(ValueError):
    """Raised for unparsable files or constraint-violating configurations."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [x0,x1]x[y0,y1] in mm, used for frozen regions."""

    x0: float
    y0: float
    x1: float
    y1: float

    def overlaps(self, other: "Box") -> bool:
        """True if the closed boxes share a point (an edge or corner too)."""
        return (self.x0 <= other.x1 and other.x0 <= self.x1
                and self.y0 <= other.y1 and other.y0 <= self.y1)


@dataclass(frozen=True)
class RunConfig:
    """Validated, immutable description of one optimization problem.

    Units are mm / N / MPa throughout.
    """

    # [domain]
    domain_width: float = 200.0          # a [mm]
    domain_height: float = 100.0         # b [mm]
    mesh_nx: int = 100
    mesh_ny: int = 50
    traction: tuple[float, float] = (0.0, -600.0)   # g [N/mm]
    traction_length: float | None = None  # default b/10, right edge
    traction_center: float | None = None  # default b/2
    thickness: float = 1.0               # out-of-plane plate thickness [mm]
    body_force: tuple[float, float] = (0.0, 0.0)    # f [N/mm^3]
    fixed_void: tuple[Box, ...] = ()      # phi = 0 regions
    fixed_solid: tuple[Box, ...] = ()     # phi = 1 regions

    # [material]
    youngs_modulus: float = 12500.0      # E [MPa]
    poisson: float = 0.25
    beta: float = 1.0 / 6.0
    gamma_phi: float = 0.01
    gamma_chi: float | None = None       # default: gamma_phi
    ersatz: float | None = None          # void stiffness floor sqrt; default: gamma_phi

    # [optimizer]
    volume_fraction: float = 0.8         # m
    kappa1: float = 400.0
    kappa2: float = 4000.0
    kappa3: float = 1.0
    kappa4: float = 1.0
    kappa5: float = 1.0
    tau: float = 1e-6
    tau_chi: float | None = None         # chi pseudo-time step; default: tau
    max_iter: int = 2000
    tol: float = 0.02
    seed: int = 0
    perturb: float = 0.0                 # amplitude of seeded initial noise
    safeguard: bool = False              # tau-halving on objective increase

    # [stress]
    pnorm_p: int = 8
    yield_stress: float = 45.0           # sigma_y [MPa]

    # [output]
    output_dir: str = "out"
    log_every: int = 50

    @property
    def traction_length_eff(self) -> float:
        return self.domain_height / 10.0 if self.traction_length is None else self.traction_length

    @property
    def traction_center_eff(self) -> float:
        return self.domain_height / 2.0 if self.traction_center is None else self.traction_center

    @property
    def gamma_chi_eff(self) -> float:
        return self.gamma_phi if self.gamma_chi is None else self.gamma_chi

    @property
    def ersatz_eff(self) -> float:
        return self.gamma_phi if self.ersatz is None else self.ersatz

    @property
    def tau_chi_eff(self) -> float:
        return self.tau if self.tau_chi is None else self.tau_chi


def validate(config: RunConfig) -> list[str]:
    """Return the list of invariant violations (empty iff the config is valid).

    Violations are data, not exceptions: each entry names the offending field
    and the constraint it breaks.
    """
    v: list[str] = []

    def positive(name, value):
        if not (value > 0) or not math.isfinite(value):
            v.append(f"{name}: must be > 0, got {value}")

    positive("domain_width", config.domain_width)
    positive("domain_height", config.domain_height)
    positive("thickness", config.thickness)
    if config.mesh_nx < 1:
        v.append(f"mesh_nx: must be >= 1, got {config.mesh_nx}")
    if config.mesh_ny < 1:
        v.append(f"mesh_ny: must be >= 1, got {config.mesh_ny}")
    if not (0.0 < config.volume_fraction < 1.0):
        v.append(f"volume_fraction: must be in (0,1), got {config.volume_fraction}")
    positive("youngs_modulus", config.youngs_modulus)
    if not (0.0 < config.poisson < 0.5):
        v.append(f"poisson: must be in (0,0.5), got {config.poisson}")
    if not (0.0 < config.beta <= 1.0):
        v.append(f"beta: must be in (0,1], got {config.beta}")
    positive("gamma_phi", config.gamma_phi)
    if config.gamma_chi is not None:
        positive("gamma_chi", config.gamma_chi)
    if config.ersatz is not None:
        positive("ersatz", config.ersatz)
    for name in ("kappa1", "kappa2", "kappa3", "kappa4", "kappa5"):
        if getattr(config, name) < 0:
            v.append(f"{name}: must be >= 0, got {getattr(config, name)}")
    positive("tau", config.tau)
    if config.tau_chi is not None:
        positive("tau_chi", config.tau_chi)
    positive("tol", config.tol)
    if config.pnorm_p < 2:
        v.append(f"pnorm_p: must be an integer >= 2, got {config.pnorm_p}")
    positive("yield_stress", config.yield_stress)
    if config.max_iter < 1:
        v.append(f"max_iter: must be >= 1, got {config.max_iter}")
    if config.traction_length is not None and config.traction_length <= 0:
        v.append(f"traction_length: must be > 0, got {config.traction_length}")
    half = config.traction_length_eff / 2.0
    lo, hi = config.traction_center_eff - half, config.traction_center_eff + half
    if not (lo < config.domain_height and hi > 0.0):
        v.append(f"traction_center: the load strip [{lo:g}, {hi:g}] misses the "
                 f"loaded edge [0, {config.domain_height:g}]")
    if config.seed < 0:
        v.append(f"seed: must be >= 0, got {config.seed}")
    if not (config.perturb >= 0.0 and math.isfinite(config.perturb)):
        v.append(f"perturb: must be >= 0, got {config.perturb}")
    for box in config.fixed_void + config.fixed_solid:
        if box.x1 < box.x0 or box.y1 < box.y0:
            v.append(f"fixed region {box}: empty box (x1 < x0 or y1 < y0)")
    for b0 in config.fixed_void:
        for b1 in config.fixed_solid:
            if b0.overlaps(b1):
                v.append(f"fixed regions overlap: void {b0} intersects solid {b1}")
    return v


def validated(config: RunConfig) -> RunConfig:
    """The config itself if it is valid; otherwise raise ConfigError listing
    every violation."""
    violations = validate(config)
    if violations:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(violations))
    return config


# --- file format -----------------------------------------------------------

# (section, key) -> (field name, parser)
def _parse_bool(s: str) -> bool:
    s = s.strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_boxes(s: str) -> tuple[Box, ...]:
    boxes = []
    for part in s.split(";"):
        part = part.strip()
        if not part:
            continue
        vals = [float(x) for x in part.split(",")]
        if len(vals) != 4:
            raise ValueError(f"box needs 4 numbers x0,y0,x1,y1: {part!r}")
        boxes.append(Box(*vals))
    return tuple(boxes)


def _fmt_boxes(boxes) -> str:
    return "; ".join(f"{b.x0:g},{b.y0:g},{b.x1:g},{b.y1:g}" for b in boxes)


_SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("domain", "width"): ("domain_width", float),
    ("domain", "height"): ("domain_height", float),
    ("domain", "nx"): ("mesh_nx", int),
    ("domain", "ny"): ("mesh_ny", int),
    ("domain", "traction_x"): ("traction.0", float),
    ("domain", "traction_y"): ("traction.1", float),
    ("domain", "traction_length"): ("traction_length", float),
    ("domain", "traction_center"): ("traction_center", float),
    ("domain", "thickness"): ("thickness", float),
    ("domain", "body_fx"): ("body_force.0", float),
    ("domain", "body_fy"): ("body_force.1", float),
    ("domain", "fixed_void"): ("fixed_void", _parse_boxes),
    ("domain", "fixed_solid"): ("fixed_solid", _parse_boxes),
    ("material", "youngs_modulus"): ("youngs_modulus", float),
    ("material", "poisson"): ("poisson", float),
    ("material", "beta"): ("beta", float),
    ("material", "gamma_phi"): ("gamma_phi", float),
    ("material", "gamma_chi"): ("gamma_chi", float),
    ("material", "ersatz"): ("ersatz", float),
    ("optimizer", "volume_fraction"): ("volume_fraction", float),
    ("optimizer", "kappa1"): ("kappa1", float),
    ("optimizer", "kappa2"): ("kappa2", float),
    ("optimizer", "kappa3"): ("kappa3", float),
    ("optimizer", "kappa4"): ("kappa4", float),
    ("optimizer", "kappa5"): ("kappa5", float),
    ("optimizer", "tau"): ("tau", float),
    ("optimizer", "tau_chi"): ("tau_chi", float),
    ("optimizer", "max_iter"): ("max_iter", int),
    ("optimizer", "tol"): ("tol", float),
    ("optimizer", "seed"): ("seed", int),
    ("optimizer", "perturb"): ("perturb", float),
    ("optimizer", "safeguard"): ("safeguard", _parse_bool),
    ("stress", "pnorm_p"): ("pnorm_p", int),
    ("stress", "yield_stress"): ("yield_stress", float),
    ("output", "directory"): ("output_dir", str),
    ("output", "log_every"): ("log_every", int),
}


def _apply_entry(values: dict, section: str, key: str, raw: str) -> None:
    try:
        fieldname, parser = _SCHEMA[(section, key)]
    except KeyError:
        raise ConfigError(f"unknown key [{section}] {key}") from None
    try:
        parsed = parser(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None
    if "." in fieldname:
        base, idx = fieldname.split(".")
        pair = list(values.get(base, getattr(RunConfig(), base)))
        pair[int(idx)] = parsed
        values[base] = tuple(pair)
    else:
        values[fieldname] = parsed


def loads_config(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError on parse or validation failure."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse failure: {exc}") from None
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            _apply_entry(values, section, key, raw)
    return validated(RunConfig(**values))


def load_config(path: str) -> RunConfig:
    """Load and validate a RunConfig from a file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return loads_config(text)


def serialize(config: RunConfig) -> str:
    """Render a RunConfig back to its file format (round-trips via loads_config)."""
    parser = configparser.ConfigParser()
    for (section, key), (fieldname, parser_fn) in _SCHEMA.items():
        if "." in fieldname:
            base, idx = fieldname.split(".")
            value = getattr(config, base)[int(idx)]
        else:
            value = getattr(config, fieldname)
        if value is None:
            continue
        if parser_fn is _parse_boxes:
            if not value:
                continue
            rendered = _fmt_boxes(value)
        elif parser_fn is _parse_bool:
            rendered = "true" if value else "false"
        else:
            rendered = repr(value) if isinstance(value, float) else str(value)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, rendered)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def apply_overrides(config: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``section.key=value`` overrides and re-validate."""
    values: dict = {}
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        lhs, raw = item.split("=", 1)
        section, key = lhs.split(".", 1)
        _apply_entry(values, section.strip(), key.strip(), raw.strip())
    return validated(replace(config, **values))


def cantilever_config(**overrides) -> RunConfig:
    """The built-in cantilever scenario (defaults of RunConfig).

    Keyword overrides are applied on top and the result is validated.
    """
    return validated(replace(RunConfig(), **overrides))


# Calibrated settings for the reference cantilever benchmark on the
# 100x50 mesh.  The time steps are not inside a stability region: with them
# the explicit stress coupling lets the objective rise during the transient,
# so full-run results move with floating-point rounding.  The interface
# parameter gamma_phi resolves the interface with ~2 elements, and the
# stopping tolerance is chosen so the kappa2 sweep terminates while the
# graded designs are well differentiated.
BENCHMARK_OVERRIDES: dict = {
    "traction": (0.0, -38.0),
    "traction_length": 20.0,
    "gamma_phi": 2.0,
    "gamma_chi": 5e-4,
    "ersatz": 0.01,
    "kappa1": 20.0,
    "tau": 3.5e-3,
    "tau_chi": 2e-7,
    "tol": 5.5e-2,
    "perturb": 0.02,
    "seed": 7,
    "yield_stress": 41.0,
}


def benchmark_config(**overrides) -> RunConfig:
    """The tuned cantilever benchmark (kappa2 sweep / Table-style scenario).

    Starts from the calibrated BENCHMARK_OVERRIDES; keyword overrides are
    applied on top and the result is validated.
    """
    return cantilever_config(**{**BENCHMARK_OVERRIDES, **overrides})
