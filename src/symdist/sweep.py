"""Parameter sweeps over damping-channel box families, CSV and SVG output.

Three families: ``gad-gamma`` sweeps the damping parameter for a fixed
thermal noise and prior; ``gad-phi`` rotates the second branch state by an
angle; ``conversion-phi`` sweeps the rotation angle of a conversion target
and gives the CDS conversion-error curve, which plateaus at
p_err(source)/p_err(target) - 1 near phi = pi/2.
Cell values are floats, with inf serialized as the literal ``inf`` and
solver failures recorded as ``nan`` plus a diagnostics sidecar entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tasks
from .boxes import KET0, KET1, PAULI_X, QuantumBox
from .channels import gad_channel
from .config import TOLS
from .divergences import sd, xi_max, xi_max_star, xi_min
from .exceptions import SymdistError


FAMILIES = ("gad-gamma", "gad-phi", "conversion-phi")
# each quantity's value at a grid point, from the spec and the point's
# source and target boxes (the target is None outside conversion-phi)
_QUANTITY = {
    "xi_min": lambda spec, box, target: xi_min(box.rho0, box.rho1),
    "xi_max": lambda spec, box, target: xi_max(box.rho0, box.rho1),
    "sd": lambda spec, box, target: sd(box),
    "xi_max_star": lambda spec, box, target: xi_max_star(box),
    "distill_approx_cptpA":
        lambda spec, box, target: tasks.distill_approx(box, spec.eps, tasks.CPTPA).value,
    "distill_approx_cds":
        lambda spec, box, target: tasks.distill_approx(box, spec.eps, tasks.CDS).value,
    "min_conversion_error":
        lambda spec, box, target: tasks.min_conversion_error(box, target, tasks.CDS).value,
}
QUANTITIES = tuple(_QUANTITY)


@dataclass
class SweepSpec:
    """A grid over one family; an omitted ``stop`` is 1 for gad-gamma and
    pi/2 for the phi families, omitted ``quantities`` are the conversion
    error for conversion-phi and the four exact quantities otherwise."""
    family: str
    start: float = 0.0
    stop: float | None = None
    steps: int = 41
    quantities: tuple[str, ...] | None = None
    # fixed parameters; which ones matter depends on the family
    N: float = 0.1
    gamma: float = 0.25
    q: float = 1 / 3
    eps: float = 0.1
    gamma1: float = 0.5
    N1: float = 0.3
    gamma2: float = 0.25
    N2: float = 0.1
    q_target: float = 0.25

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.stop is None:
            self.stop = 1.0 if self.family == "gad-gamma" else math.pi / 2
        if self.quantities is None:
            self.quantities = (("min_conversion_error",) if self.family == "conversion-phi"
                               else ("xi_min", "xi_max", "sd", "xi_max_star"))
        if self.steps < 2:
            raise ValueError("grid needs at least 2 steps")
        if not self.quantities:
            raise ValueError("no quantities selected")
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise ValueError(f"unknown quantities {unknown}; choose from {QUANTITIES}")
        if "min_conversion_error" in self.quantities \
                and self.family != "conversion-phi":
            raise ValueError("min_conversion_error needs the conversion-phi family")
        for name in ("N", "gamma", "gamma1", "N1", "gamma2", "N2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} = {v} outside [0, 1]")
        for name in ("q", "q_target"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} = {v} outside (0, 1)")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def parameter_name(self) -> str:
        return "gamma" if self.family == "gad-gamma" else "phi"


@dataclass
class SweepResult:
    header: list[str]
    rows: list[list[float]]
    failures: dict = field(default_factory=dict)

    def column(self, name: str) -> list[float]:
        i = self.header.index(name)
        return [row[i] for row in self.rows]

    def to_csv(self) -> str:
        lines = [",".join(self.header)]
        for row in self.rows:
            lines.append(",".join(_serialize(v, 17) for v in row))
        return "\n".join(lines) + "\n"


def _serialize(v: float, digits: int) -> str:
    if math.isnan(v):
        return "nan"
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, f".{digits}g")


def _rotated(state: np.ndarray, phi: float) -> np.ndarray:
    u = math.cos(phi) * np.eye(2) + 1j * math.sin(phi) * PAULI_X
    return u @ state @ u.conj().T


def _boxes_at(spec: SweepSpec, x: float):
    """Source box (and target box for conversion families) at grid point x."""
    if spec.family == "gad-gamma":
        ch = gad_channel(x, spec.N)
        return QuantumBox(spec.q, ch(KET0), ch(KET1)), None
    if spec.family == "gad-phi":
        ch = gad_channel(spec.gamma, spec.N)
        return QuantumBox(spec.q, ch(KET0), _rotated(ch(KET1), x)), None
    ch1 = gad_channel(spec.gamma1, spec.N1)
    ch2 = gad_channel(spec.gamma2, spec.N2)
    source = QuantumBox(spec.q, ch1(KET0), ch1(KET1))
    target = QuantumBox(spec.q_target, ch2(KET0), _rotated(ch2(KET1), x))
    return source, target


def _evaluate(spec: SweepSpec, x: float) -> tuple[list[float], dict]:
    box, target = _boxes_at(spec, x)
    values: list[float] = [float(x)]
    errors: dict[str, str] = {}
    for name in spec.quantities:
        try:
            v = _QUANTITY[name](spec, box, target)
        except SymdistError as exc:
            v = math.nan
            errors[name] = str(exc)
        values.append(float(v))
    return values, errors


def _use_tolerances(tols: dict) -> None:
    """Pool initializer: a worker takes the caller's tolerances, which a
    worker started by ``spawn`` or ``forkserver`` would not inherit."""
    vars(TOLS).update(tols)


def run_sweep(spec: SweepSpec, jobs: int = 1) -> SweepResult:
    """Evaluate the grid, in this process for ``jobs`` = 1 and otherwise on
    min(jobs, grid size) pool workers, which use the caller's ``TOLS``
    whatever the start method; rows are in grid order.  jobs < 1 raises."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    header = [spec.parameter_name()] + list(spec.quantities)
    points = [float(x) for x in spec.grid()]
    if jobs > 1:    # a grid has at least 2 points
        # imported here: multiprocessing is slow to import, and only a pool needs it
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(jobs, len(points)), initializer=_use_tolerances,
                                 initargs=(dict(vars(TOLS)),)) as pool:
            outcomes = list(pool.map(_evaluate, [spec] * len(points), points))
    else:
        outcomes = [_evaluate(spec, x) for x in points]
    rows = [vals for vals, _ in outcomes]
    failures = {i: errs for i, (_, errs) in enumerate(outcomes) if errs}
    return SweepResult(header, rows, failures)


# --- minimal SVG line plot (no plotting dependency) ---------------------------

def to_svg(result: SweepResult) -> str:
    width, height, margin = 640, 440, 50
    xs = result.column(result.header[0])
    series = result.header[1:]
    finite = [v for name in series for v in result.column(name)
              if math.isfinite(v)]
    if not finite:
        finite = [0.0, 1.0]
    ymin, ymax = min(finite + [0.0]), max(finite)
    if ymax - ymin < 1e-12:
        ymax = ymin + 1.0
    xmin, xmax = min(xs), max(xs)
    if xmax - xmin < 1e-12:
        xmax = xmin + 1.0

    def px(x):
        return margin + (x - xmin) / (xmax - xmin) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - ymin) / (ymax - ymin) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
             f'y2="{height - margin}" stroke="black"/>',
             f'<text x="{width // 2}" y="{height - 12}" font-size="12" '
             f'text-anchor="middle">{result.header[0]}</text>']
    for k, name in enumerate(series):
        ys = result.column(name)
        pts = [(px(x), py(y)) for x, y in zip(xs, ys) if math.isfinite(y)]
        if not pts:
            continue
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        color = colors[k % len(colors)]
        parts.append(f'<polyline points="{path}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" y="{margin + 14 * k}" '
                     f'font-size="11" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
