"""Program-side cross-check oracles for the library's closed forms.

``distill_approx_program`` is the one-shot approximate distillation program
in both regimes, solved by ``symdist.sdp``.  The library evaluates it
without a solver (``tasks.distill_approx``; ``divergences.q_min`` at eps = 0
under CPTP_A), and the tests compare the two.
"""

import math

import numpy as np

from symdist import model
from symdist.boxes import QuantumBox
from symdist.config import TOLS
from symdist.divergences import _orthogonal_supports, p_err
from symdist.exceptions import ParameterRangeError
from symdist.model import Model, inner, times
from symdist.tasks import CDS, CPTPA, TaskResult, _check_regime

INF = math.inf


def distill_approx_program(b: QuantumBox, eps: float, regime: str) -> TaskResult:
    """Largest golden unit reachable within scaled-trace-distance eps, by
    the distillation program (minimize r) that ``tasks.distill_approx``
    evaluates in closed form."""
    _check_regime(regime)
    if eps < 0:
        raise ParameterRangeError("eps must be nonnegative")
    if regime == CPTPA and not 0.0 < b.p < 1.0:
        return TaskResult(INF, None, {"reason": "singular prior"})
    if regime == CPTPA and _orthogonal_supports(b.rho0, b.rho1):
        return TaskResult(INF, None, {"reason": "orthogonal supports"})
    if regime == CDS and p_err(b) <= TOLS.infinite_perr:
        return TaskResult(INF, None, {"reason": "infinite resource"})

    d = b.dim
    p = b.p
    m = Model()
    r = m.scalar("r")
    m.le(r, 1.0)
    if regime == CPTPA:
        lam = m.psd_var("lam", d)
        m.le(lam, np.eye(d))
        if eps == 0.0:  # the Q_min program (states swapped)
            m.eq(inner(b.rho0, lam) + 0.5 * r, 1.0)
            m.eq(inner(b.rho1, lam) - 0.5 * r, 0.0)
        else:
            cs = [m.scalar(f"c{i}") for i in range(4)]
            e0 = m.scalar("e0")
            e1 = m.scalar("e1")
            m.ge(cs[0] + inner(p * b.rho0, lam) + times(r, [[0.5 * p]]), p)
            m.ge(cs[1] - inner(p * b.rho0, lam) - times(r, [[0.5 * p]]), -p)
            m.ge(cs[2] + inner((1 - p) * b.rho1, lam)
                 - times(r, [[0.5 * (1 - p)]]), 0.0)
            m.ge(cs[3] - inner((1 - p) * b.rho1, lam)
                 + times(r, [[0.5 * (1 - p)]]), 0.0)
            m.ge(e0 - times(r, [[0.5]]), -p)
            m.ge(e1 + times(r, [[0.5]]), 1 - p)
            total_c = cs[0] + cs[1] + cs[2] + cs[3]
            m.le(total_c + eps * e0 + eps * e1, eps * (1 - p))
    else:
        lams = [[m.psd_var(f"lam{i}{j}", d) for j in (0, 1)] for i in (0, 1)]
        m.eq(lams[0][0] + lams[0][1] + lams[1][0] + lams[1][1], np.eye(d))
        rows = [
            (lams[0][0], lams[1][0], "big"),
            (lams[0][1], lams[1][1], "small"),
            (lams[1][0], lams[0][0], "small"),
            (lams[1][1], lams[0][1], "big"),
        ]
        cs = []
        for idx, (l_a, l_b, kind) in enumerate(rows):
            expr = inner(p * b.rho0, l_a) + inner((1 - p) * b.rho1, l_b)
            if kind == "big":
                expr = expr + times(r, [[0.25]])
                rhs = 0.5
            else:
                expr = expr - times(r, [[0.25]])
                rhs = 0.0
            if eps > 0.0:
                c = m.scalar(f"c{idx}")
                cs.append(c)
                expr = expr + c
            m.ge(expr, rhs)
        if eps > 0.0:
            m.le(2.0 * (cs[0] + cs[1] + cs[2] + cs[3]) - eps * r, 0.0)
    m.minimize(r)
    res = model.require_optimal(m.solve(), "approximate distillation program")
    r_star = max(res.value, 0.0)
    if r_star <= TOLS.infinite_perr:
        return TaskResult(INF, None, {"r": r_star})
    return TaskResult(-math.log2(r_star), None, {"r": r_star, "gap": res.gap})
