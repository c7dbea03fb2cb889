"""Independent equilibrium of the ``lq`` family when its action box never binds.

Dynamics dx = a dt + sigma dW + sigma0 dW0 and dxc = sigmac dW0 from xc0 = 0;
costs ca a^2/2 + cx (x - w m)^2/2 and cg (x - w m)^2/2 at the horizon, with m
the mean of x given the current common state.  In equilibrium m(t, xc) =
beta(t) xc, and the value in s = (x, xc) is V(t, s) = s^T K(t) s / 2 + S(t):

    K' = K e1 e1^T K / ca - cx q q^T,    K(T) = cg q q^T,    q = (1, -w beta),
    S' = -tr(Sigma K) / 2,               S(T) = 0,

with Sigma the diffusion covariance of s.  Under the optimal feedback
a = -(K11 x + K12 xc) / ca, the covariance C = Cov(x, xc) solves

    C' = -(K11 C + K12 sigmac^2 t) / ca + sigma0 sigmac,    C(0) = 0,

and beta = C / (sigmac^2 t), with beta(0) = sigma0 / sigmac.  A damped fixed
point on beta closes the loop.  Both ODEs are integrated by RK4 on one grid,
with midpoint coefficients averaged from the grid values (an O(dt^2) error).
y0 = E[V(0, x0, 0)] under the family's initial law, a standard normal scaled
by ``init_std`` and clipped at ``init_clip``.  Kept free of any solver-package
numerics beyond numpy/scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import norm


@dataclass
class LqSolution:
    t: np.ndarray          # (n_steps + 1,)
    beta: np.ndarray       # (n_steps + 1,) slope of the conditional mean in xc
    k: np.ndarray          # (n_steps + 1, 2, 2) Riccati matrix
    s: np.ndarray          # (n_steps + 1,) constant term of the value
    y0: float              # E[V(0, x0, 0)] under the family's clipped initial law
    iterations: int

    def mean_value(self, x0_second_moment: float) -> float:
        """E[V(0, x0, 0)] for an initial state of mean zero and this E[x0^2]."""
        return float(0.5 * self.k[0, 0, 0] * x0_second_moment + self.s[0])


def clipped_normal_second_moment(c: float) -> float:
    """E[clip(Z, -c, c)^2] for a standard normal Z."""
    return float(2 * norm.cdf(c) - 1 - 2 * c * norm.pdf(c) + 2 * c * c * norm.sf(c))


def _rk4(f, y: tuple, t: float, h: float, coef: tuple) -> tuple:
    """One RK4 step of y' = f(t, y, c(t)) from t by h, on tuples of floats;
    ``coef`` holds c at t, t + h/2 and t + h."""
    def ahead(k, by):
        return tuple(a + by * b for a, b in zip(y, k))
    k1 = f(t, y, coef[0])
    k2 = f(t + h / 2, ahead(k1, h / 2), coef[1])
    k3 = f(t + h / 2, ahead(k2, h / 2), coef[1])
    k4 = f(t + h, ahead(k3, h), coef[2])
    return tuple(a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))


def solve_lq(params: dict, n_steps: int = 4000, damping: float = 0.5, tol: float = 1e-10,
             max_iters: int = 1000) -> LqSolution:
    """The equilibrium of ``make_instance("lq", ...)`` with parameters ``params``
    (its ``spec.params``), ignoring the action box."""
    if params["init_mean"] != 0 or params["common_init"] != 0 or params["common_init_std"] != 0:
        raise ValueError("the oracle assumes x0 of mean zero and xc0 = 0")
    ca, cx, cg = params["action_weight"], params["state_weight"], params["terminal_weight"]
    w, horizon = params["interaction"], params["horizon"]
    sig, sig0, sigc = params["sigma"], params["sigma0"], params["sigmac"]
    s11, s12, s22 = sig ** 2 + sig0 ** 2, sig0 * sigc, sigc ** 2   # diffusion covariance of s
    t = np.linspace(0.0, horizon, n_steps + 1).tolist()
    h = horizon / n_steps

    def riccati(_, y, b):
        k11, k12, k22, _ = y
        return (k11 * k11 / ca - cx, k11 * k12 / ca + cx * w * b,
                k12 * k12 / ca - cx * (w * b) ** 2,
                -0.5 * (s11 * k11 + 2 * s12 * k12 + s22 * k22))

    def covariance(tt, y, k):
        return (-(k[0] * y[0] + k[1] * s22 * tt) / ca + s12,)

    beta = [sig0 / sigc] * (n_steps + 1)
    for it in range(1, max_iters + 1):
        ks = [None] * (n_steps + 1)
        b_t = w * beta[-1]
        ks[-1] = (cg, -cg * b_t, cg * b_t * b_t, 0.0)
        for i in range(n_steps, 0, -1):      # backward from the horizon
            b = (beta[i], 0.5 * (beta[i] + beta[i - 1]), beta[i - 1])
            ks[i - 1] = _rk4(riccati, ks[i], t[i], -h, b)
        c = [0.0] * (n_steps + 1)
        for i in range(n_steps):
            k_mid = (0.5 * (ks[i][0] + ks[i + 1][0]), 0.5 * (ks[i][1] + ks[i + 1][1]))
            c[i + 1] = _rk4(covariance, (c[i],), t[i], h, (ks[i], k_mid, ks[i + 1]))[0]
        new = [beta[0]] + [ci / (s22 * ti) for ci, ti in zip(c[1:], t[1:])]
        step = max(abs(a - b) for a, b in zip(new, beta))
        beta = [(1 - damping) * a + damping * b for a, b in zip(beta, new)]
        if step < tol:
            break
    else:
        raise RuntimeError(f"beta fixed point did not settle in {max_iters} iterations")
    ks = np.array(ks)
    ex2 = params["init_std"] ** 2 * clipped_normal_second_moment(params["init_clip"])
    return LqSolution(t=np.array(t), beta=np.array(beta), k=ks[:, [0, 1, 1, 2]].reshape(-1, 2, 2),
                      s=ks[:, 3], y0=float(0.5 * ks[0, 0] * ex2 + ks[0, 3]), iterations=it)
