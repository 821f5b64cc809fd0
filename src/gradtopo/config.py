"""Problem description: the RunConfig data model and its INI-style file format.

The configuration file uses plain ``key = value`` entries grouped under the
section headers ``[domain]``, ``[material]``, ``[optimizer]`` and
``[stress]``, one field of RunConfig per key.  Any key can be overridden on
the command line with ``--set section.key=value``.

A RunConfig is checked when it is built, by its constructor and so by
``dataclasses.replace`` too: one that breaks a rule raises ConfigError
listing every violation, so every RunConfig that exists is valid.
"""

from __future__ import annotations

import configparser
import io
import math
import numbers
from dataclasses import astuple, dataclass, replace

from gradtopo.fem import lumped_weights
from gradtopo.mesh import build_rect_mesh, frozen_bounds

__all__ = [
    "Box",
    "RunConfig",
    "ConfigError",
    "load_config",
    "loads_config",
    "serialize",
    "apply_overrides",
    "cantilever_config",
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
    """Immutable description of one optimization problem, checked when it is
    built: by default the calibrated cantilever benchmark on the 100x50 mesh.

    Units are mm / N / MPa throughout.  The calibrated time steps are not
    inside a stability region: with them the explicit stress coupling lets
    the objective rise during the transient, so full-run results move with
    floating-point rounding.  The interface parameter gamma_phi resolves the
    interface with ~2 elements, and the stopping tolerance is chosen so the
    kappa2 sweep terminates while the graded designs are well differentiated.
    """

    # [domain]
    domain_width: float = 200.0          # a [mm]
    domain_height: float = 100.0         # b [mm]
    mesh_nx: int = 100
    mesh_ny: int = 50
    traction_x: float = 0.0              # g [N/mm]
    traction_y: float = -38.0
    traction_length: float = 20.0        # load strip on the right edge
    traction_center: float | None = None  # default b/2
    thickness: float = 1.0               # out-of-plane plate thickness [mm]
    body_fx: float = 0.0                 # f [N/mm^3]
    body_fy: float = 0.0
    fixed_void: tuple[Box, ...] = ()      # phi = 0 regions
    fixed_solid: tuple[Box, ...] = ()     # phi = 1 regions

    # [material]
    youngs_modulus: float = 12500.0      # E [MPa]
    poisson: float = 0.25
    beta: float = 1.0 / 6.0
    gamma_phi: float = 2.0
    gamma_chi: float = 5e-4
    ersatz: float = 0.01                 # void stiffness floor sqrt

    # [optimizer]
    volume_fraction: float = 0.8         # m
    kappa1: float = 20.0
    kappa2: float = 4000.0
    kappa3: float = 1.0
    kappa4: float = 1.0
    kappa5: float = 1.0
    tau: float = 3.5e-3
    tau_chi: float = 2e-7                # chi pseudo-time step
    max_iter: int = 2000
    tol: float = 0.055
    seed: int = 7
    perturb: float = 0.02                # amplitude of seeded initial noise

    # [stress]
    pnorm_p: int = 8
    yield_stress: float = 41.0           # sigma_y [MPa]

    @property
    def traction_center_eff(self) -> float:
        return self.domain_height / 2.0 if self.traction_center is None else self.traction_center

    def __post_init__(self):
        """Refuse a config that breaks any rule: raise ConfigError listing
        every violation, each naming the offending field and the constraint
        it breaks."""
        v: list[str] = []

        def positive(name, value):
            if not (value > 0) or not math.isfinite(value):
                v.append(f"{name}: must be > 0, got {value}")

        positive("domain_width", self.domain_width)
        positive("domain_height", self.domain_height)
        positive("thickness", self.thickness)
        for name in ("mesh_nx", "mesh_ny", "max_iter", "seed", "pnorm_p"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                v.append(f"{name}: must be an integer, got {value!r}")
        if self.mesh_nx < 1:
            v.append(f"mesh_nx: must be >= 1, got {self.mesh_nx}")
        if self.mesh_ny < 1:
            v.append(f"mesh_ny: must be >= 1, got {self.mesh_ny}")
        if not (0.0 < self.volume_fraction < 1.0):
            v.append(f"volume_fraction: must be in (0,1), got {self.volume_fraction}")
        positive("youngs_modulus", self.youngs_modulus)
        if not (0.0 < self.poisson < 0.5):
            v.append(f"poisson: must be in (0,0.5), got {self.poisson}")
        if not (0.0 < self.beta <= 1.0):
            v.append(f"beta: must be in (0,1], got {self.beta}")
        positive("gamma_phi", self.gamma_phi)
        positive("gamma_chi", self.gamma_chi)
        positive("ersatz", self.ersatz)
        for name in ("kappa1", "kappa2", "kappa3", "kappa4", "kappa5"):
            if not (0.0 <= getattr(self, name) < math.inf):
                v.append(f"{name}: must be >= 0 and finite, got {getattr(self, name)}")
        for name in ("traction_x", "traction_y", "body_fx", "body_fy"):
            if not math.isfinite(getattr(self, name)):
                v.append(f"{name}: must be finite, got {getattr(self, name)}")
        positive("tau", self.tau)
        positive("tau_chi", self.tau_chi)
        positive("tol", self.tol)
        if self.pnorm_p < 2:
            v.append(f"pnorm_p: must be an integer >= 2, got {self.pnorm_p}")
        positive("yield_stress", self.yield_stress)
        if self.max_iter < 1:
            v.append(f"max_iter: must be >= 1, got {self.max_iter}")
        if not (0.0 < self.traction_length < math.inf):
            v.append(f"traction_length: must be finite and > 0, got {self.traction_length}")
        if self.traction_center is not None and not math.isfinite(self.traction_center):
            v.append(f"traction_center: must be finite, got {self.traction_center}")
        length, center = self.traction_length, self.traction_center_eff
        lo, hi = center - length / 2.0, center + length / 2.0
        # a non-finite length or center is reported by its own field above
        if (math.isfinite(length) and math.isfinite(center)
                and not (lo < self.domain_height and hi > 0.0)):
            v.append(f"traction_center: the load strip [{lo:g}, {hi:g}] misses the "
                     f"loaded edge [0, {self.domain_height:g}]")
        if self.seed < 0:
            v.append(f"seed: must be >= 0, got {self.seed}")
        if not (self.perturb >= 0.0 and math.isfinite(self.perturb)):
            v.append(f"perturb: must be >= 0, got {self.perturb}")
        for name in ("fixed_void", "fixed_solid"):
            for box in getattr(self, name):
                if not all(map(math.isfinite, astuple(box))):
                    v.append(f"{name}: box {box} has a non-finite coordinate")
                elif box.x1 < box.x0 or box.y1 < box.y0:
                    v.append(f"{name}: empty box {box} (x1 < x0 or y1 < y0)")
        for b0 in self.fixed_void:
            for b1 in self.fixed_solid:
                if b0.overlaps(b1):
                    v.append(f"fixed regions overlap: void {b0} intersects solid {b1}")
        # the phase-field step holds w.phi = V before the projection, so a V that
        # no design within the frozen regions has would pass every iterate check
        if not v and (self.fixed_void or self.fixed_solid):
            mesh = build_rect_mesh(self)
            weights, target = lumped_weights(mesh), self.volume_fraction * mesh.area
            lo, hi = (float(weights @ bound) for bound in frozen_bounds(mesh, self))
            if not lo <= target <= hi:
                v.append(f"volume_fraction: the target volume {target:g} lies outside "
                         f"[{lo:g}, {hi:g}], the volumes the frozen regions allow")
        if v:
            raise ConfigError("invalid configuration:\n  " + "\n  ".join(v))


# --- file format -----------------------------------------------------------

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
    return "; ".join(",".join(repr(float(c)) for c in astuple(b)) for b in boxes)


# (section, key) -> (field name, parser)
_SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("domain", "width"): ("domain_width", float),
    ("domain", "height"): ("domain_height", float),
    ("domain", "nx"): ("mesh_nx", int),
    ("domain", "ny"): ("mesh_ny", int),
    ("domain", "traction_x"): ("traction_x", float),
    ("domain", "traction_y"): ("traction_y", float),
    ("domain", "traction_length"): ("traction_length", float),
    ("domain", "traction_center"): ("traction_center", float),
    ("domain", "thickness"): ("thickness", float),
    ("domain", "body_fx"): ("body_fx", float),
    ("domain", "body_fy"): ("body_fy", float),
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
    ("stress", "pnorm_p"): ("pnorm_p", int),
    ("stress", "yield_stress"): ("yield_stress", float),
}


def _apply_entry(values: dict, section: str, key: str, raw: str) -> None:
    """Parse one entry into values, keyed by its field name."""
    try:
        fieldname, parser = _SCHEMA[(section, key)]
    except KeyError:
        raise ConfigError(f"unknown key [{section}] {key}") from None
    try:
        values[fieldname] = parser(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from None


def loads_config(text: str) -> RunConfig:
    """Parse configuration text; raises ConfigError on parse or validation failure."""
    # no interpolation: a value is taken as written, '%' included
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"parse failure: {exc}") from None
    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not supported (configparser "
                          "would copy its keys into every section)")
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            _apply_entry(values, section, key, raw)
    return RunConfig(**values)


def load_config(path: str) -> RunConfig:
    """Load a RunConfig from a file."""
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
        value = getattr(config, fieldname)
        if value is None:
            continue
        if parser_fn is _parse_boxes:
            if not value:
                continue
            rendered = _fmt_boxes(value)
        else:
            # float(): a numpy float's repr is np.float64(...), which no parser reads
            rendered = repr(float(value)) if isinstance(value, float) else str(value)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, rendered)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def apply_overrides(config: RunConfig, overrides: list[str]) -> RunConfig:
    """Apply ``section.key=value`` overrides: a new RunConfig, which is checked
    when it is built, or config itself when there are none."""
    values: dict = {}
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        lhs, raw = item.split("=", 1)
        section, key = lhs.split(".", 1)
        _apply_entry(values, section.strip(), key.strip(), raw.strip())
    return replace(config, **values) if values else config


# RunConfig's defaults are the cantilever benchmark, so keyword overrides on
# top of it are RunConfig's own keywords; benchmark_config is the name that
# perfbench imports
cantilever_config = benchmark_config = RunConfig
