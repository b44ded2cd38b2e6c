"""Resource calculus for binary quantum information sources.

Boxes (p, rho0, rho1) are graded by their symmetric distinguishability;
the package computes the associated divergences, the semi-definite
programs behind them, the constructive distillation/dilution/conversion
protocols, and the asymptotic rate formulas, at qubit/tensor-power scale.
"""

from .boxes import GoldenUnit, QuantumBox, golden_box, golden_to_box, tensor_box
from .channels import CdsMap, CpMap, apply_cds, apply_cptp, gad_channel
from .divergences import (chernoff, d_max, p_err, q_max, q_max_star, q_min,
                          scaled_trace_distance, sd, thompson, xi_max,
                          xi_max_star, xi_min)
from .tasks import (CDS, CPTPA, TaskResult, asymptotic_rates, cost_approx,
                    cost_exact, distill_approx, distill_exact,
                    min_conversion_error, transform_rate)

__all__ = [
    "GoldenUnit", "QuantumBox", "golden_box", "golden_to_box", "tensor_box",
    "CdsMap", "CpMap", "apply_cds", "apply_cptp", "gad_channel",
    "chernoff", "d_max", "p_err", "q_max", "q_max_star", "q_min",
    "scaled_trace_distance", "sd", "thompson", "xi_max", "xi_max_star",
    "xi_min",
    "CDS", "CPTPA", "TaskResult", "asymptotic_rates", "cost_approx",
    "cost_exact", "distill_approx", "distill_exact", "min_conversion_error",
    "transform_rate",
]

__version__ = "0.1.0"
