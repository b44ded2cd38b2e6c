"""Shared numerical tolerances.

All divergences use a single infinity convention: a quantity is infinite when
its defining feasibility condition fails at these thresholds.  The CLI's
``--tol`` sets ``support`` and caps ``infinite_perr``.

Which eigenvalues count as zero (supports, kernels, pseudo-inverses) is not
a tolerance: an eigenvalue is zero at or below lambda_max * d * eps_mach
(``linalg.Spectrum.cut``, the rank rule of ``numpy.linalg.matrix_rank``;
lambda_max the largest eigenvalue modulus, d the size of the held operator:
the quotient size, 30 at n = 9, for a qubit tensor power), so
lambda_min(rho^(x)9) ~ 4e-11 stays in the support; ``--tol`` does not move
it.  Every spectrum comes from ``linalg.spectrum``, which rejects non-finite
entries.  A state may dip to -``density`` and is stored PSD (negative
eigenvalues set to zero, renormalized); PSD arguments of spectral functions
and of d_max may dip to -``linalg.PSD_SLACK`` (1e-10).
"""

from dataclasses import dataclass


@dataclass
class Tolerances:
    asymmetry: float = 1e-8        # hard error above this; symmetrized below
    density: float = 1e-9          # state validation (PSD slack, trace drift)
    tp_sum: float = 1e-8           # trace-preservation of channel branch sums
    support: float = 1e-9          # support-containment test for D_max
    infinite_perr: float = 1e-12   # p_err at or below this means infinite resource
    box_equality: float = 1e-10    # c-q equality test for D' (trace distance)
    dimension_cap: int = 512       # largest tensor-power dimension


TOLS = Tolerances()
