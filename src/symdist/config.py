"""Shared numerical tolerances.

All divergences use a single infinity convention: a quantity is infinite when
its defining feasibility condition fails at these thresholds.  The CLI's
``--tol`` sets ``support`` and caps ``infinite_perr``.

Which eigenvalues count as zero (supports, kernels, pseudo-inverses) is not
a tolerance here: an eigenvalue is zero at or below lambda_max * d *
eps_mach, the default rank rule of ``numpy.linalg.matrix_rank``, with
lambda_max the largest eigenvalue modulus of the operator and d its full
dimension (``linalg.spectral_cut``).  The cut scales with the spectrum, so
lambda_min(rho^(x)9) ~ 4e-11 of a full-rank qubit state stays in the
support.  No option moves it; ``--tol`` does not.  States may dip to
-``density`` before validation rejects them; the PSD arguments of spectral
functions and of d_max, to -``linalg.PSD_SLACK`` (1e-10).
"""

from dataclasses import dataclass


@dataclass
class Tolerances:
    asymmetry: float = 1e-8        # hard error above this; symmetrized below
    density: float = 1e-9          # state validation (PSD slack, trace drift)
    tp_sum: float = 1e-8           # trace-preservation of channel branch sums
    support: float = 1e-9          # support-containment test for D_max
    infinite_perr: float = 1e-12   # p_err at or below this means infinite resource
    box_equality: float = 1e-10    # c-q equality test for D' (Frobenius)
    dimension_cap: int = 512       # largest tensor-power dimension


TOLS = Tolerances()
