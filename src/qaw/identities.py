"""Independent left/right evaluators and residual checks for every identity.

Each check computes its two sides by disjoint routes (operator/quadrature
versus closed-product/series) that share only the primitives in
:mod:`qaw.qcore` (the quadrature side through their node-array path, the
closed side through their scalar loops), and returns an
:class:`IdentityReport` with the residual and convergence diagnostics.

Stable evaluation of the outer k-sums
-------------------------------------
Every fractional identity carries an outer sum over k whose k-th term
involves a terminating series with numerator parameter q^-k at argument q.
Summed term by term, that series is an alternating sum whose intermediate
terms reach magnitude ~ q^{-k(k+1)/2}; in double precision the cancellation
destroys all significant digits beyond k of about 6.  The evaluator here
uses an exact reformulation instead: with

    G(y) = prod_i (d_i y;q)_inf / prod_i (n_i y;q)_inf

(n_i the non-q^-k numerator parameters, d_i the denominator parameters),
the terminating series equals

    (1/G(1)) * sum_{m>=k} g_m (q^{m+1-k};q)_k,

where g_m are the Taylor coefficients of G.  This follows from the finite
kernel identity sum_j (q^{-k};q)_j q^{j(m+1)} / (q;q)_j = (q^{m+1-k};q)_k,
which vanishes for 0 <= m < k, so every term of the rewritten sum is
benign and the evaluation is stable for all k.

The Taylor coefficients come from the q-difference equation of G.  With
N(y) = prod_i (1 - n_i y) and D(y) = prod_i (1 - d_i y), (c y;q)_inf =
(1 - c y) (c q y;q)_inf gives N(y) G(y) = D(y) G(q y), hence

    g_m (1 - q^m) = sum_{j>=1} (D_j q^{m-j} - N_j) g_{m-j},

a recurrence of order at most three (Gasper & Rahman, *Basic
Hypergeometric Series*, ch. 1-2).  Zero parameters are dropped first.

Sizing.  g is grown by the recurrence until its last 8 coefficients fall
below ``eps_term`` of their total (in doublings from 64, at most 4096
coefficients).  The outer sum then runs to K = M - 60, keeping a margin
of 60 Taylor coefficients beyond every k used; while some node has not met
the stop rule inside K, g grows by 32 coefficients and only the new rows
k of the kernel (q^{m+1-k};q)_k are built, for the unsettled nodes.
Nothing is cached between calls.

Batching.  A quadrature node enters the k-sum only through the series
parameters (a e^{+-i theta}, i a q e^{+-t}, ...), so :func:`ksum` takes
each parameter as a scalar or as an array over the nodes of a quadrature
level and evaluates all nodes in one (coefficients x nodes) array.  The
stop and divergence rules are applied per node.  The weights take the
same node array: ``h_cos``, ``h_sinh_log`` and ``q_pochhammer_infinite_log``
evaluate every node of a level in one call of their array path, so an
integrand is the weight (or the exponential of its log) times ``ksum``.
The operator side of the generating identities is a fractional q-integral
whose integrand, a ratio of ``q_pochhammer_infinite`` products, takes the
array of q-geometric points of a block in the same way.  The closed-product
sides (``_three_term_side``, ``frac_prefactor``) call only the scalar
loops of :mod:`qaw.qcore`, so the two sides of an identity share no
vectorised code.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .context import (
    DivisionByZero,
    DomainError,
    KSumDivergence,
    NonConvergence,
    PoleError,
    QContext,
    WindowFailure,
)
from .qcore import (
    h_cos,
    h_sinh_log,
    q_pochhammer,
    q_pochhammer_infinite,
    q_pochhammer_infinite_log,
    q_pochhammer_multi,
)
from .qops import fractional_q_integral
from .quad import QuadratureConfig, integrate_line_even_window, integrate_theta

_TINY = 1e-12
INFINITE = math.inf

DEFAULT_TOLERANCES = {
    "lemma-three-term": 1e-8,
    "fractional-generating": 1e-8,
    "fractional-generating-3phi2": 1e-8,
    "askey-wilson": 1e-6,
    "fractional-askey-wilson": 1e-6,
    "fractional-askey-wilson-3phi2": 1e-6,
    "reversal-askey-wilson": 1e-5,
    "fractional-reversal-askey-wilson": 1e-5,
    "fractional-reversal-askey-wilson-3phi2": 1e-5,
    "atakishiyev": 1e-5,
    "fractional-atakishiyev": 1e-5,
    "fractional-atakishiyev-3phi2": 1e-5,
}


# --------------------------------------------------------------------------
# parameter bundles
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneratingParams:
    """Parameters of the fractional generating-function identities."""

    q: float
    a: float
    x: float
    mu: float
    b: complex = 0.0
    r: complex = 0.0
    s: complex = 0.0
    t: complex = 0.0
    u: complex = 0.0
    z: complex = 0.0

    def violations(self):
        out = []
        if not 0.0 < self.q < 1.0:
            out.append(f"q must lie in (0,1), got {self.q}")
        if not 0.0 < self.a < self.x < 1.0:
            out.append(f"need 0 < a < x < 1, got a={self.a}, x={self.x}")
        if self.mu <= 0:
            out.append(f"mu must be positive, got {self.mu}")
        m = max(abs(self.a * self.t), abs(self.a * self.z), abs(self.a * self.r * self.u))
        if m >= 1.0:
            out.append(f"need max(|at|,|az|,|aru|) < 1, got {m:.3f}")
        return out


@dataclass(frozen=True)
class AWParams:
    """Parameters of the Askey-Wilson integral and its fractional variant."""

    q: float
    a: float
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0
    x: float = 0.0
    mu: float = 1.0

    def violations(self, fractional=False):
        out = []
        if not 0.0 < self.q < 1.0:
            out.append(f"q must lie in (0,1), got {self.q}")
        m = max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))
        if m >= 1.0:
            out.append(f"need max(|a|,|b|,|c|,|d|) < 1, got {m:.3f}")
        if fractional:
            if not 0.0 < self.a < self.x < 1.0:
                out.append(f"fractional variant needs 0 < a < x < 1, got a={self.a}, x={self.x}")
            if self.mu <= 0:
                out.append(f"mu must be positive, got {self.mu}")
        return out


@dataclass(frozen=True)
class ReversalParams:
    """Parameters of the reversal (real-line) Askey-Wilson integrals."""

    q: float
    a: float
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0
    x: float = 0.0
    mu: float = 1.0

    def violations(self, fractional=False):
        out = []
        if not 0.0 < self.q < 1.0:
            out.append(f"q must lie in (0,1), got {self.q}")
        m = abs(self.q * self.a * self.b * self.c * self.d)
        if m >= 1.0:
            out.append(f"need |qabcd| < 1, got {m:.3f}")
        if fractional:
            if not 0.0 < self.a < self.x < 1.0:
                out.append(f"fractional variant needs 0 < a < x < 1, got a={self.a}, x={self.x}")
            if self.mu <= 0:
                out.append(f"mu must be positive, got {self.mu}")
        return out


@dataclass(frozen=True)
class AtakishiyevParams:
    """Parameters of the Gaussian-weighted real-line integral family.

    The base is coupled to the Gaussian scale: q = exp(-2 alpha_g^2).
    """

    alpha_g: float
    a: float = 0.0
    b: complex = 0.0
    c: complex = 0.0
    d: complex = 0.0
    x: float = 0.0
    mu: float = 1.0

    @property
    def q(self) -> float:
        return math.exp(-2.0 * self.alpha_g**2)

    def violations(self, fractional=False):
        out = []
        if self.alpha_g == 0:
            out.append("alpha_g must be nonzero")
            return out
        q3 = self.q**3
        if q3 == 0.0:
            out.append(f"q^3 = exp(-6 alpha_g^2) underflows to 0 at alpha_g={self.alpha_g}")
            return out
        m = abs(self.a * self.b * self.c * self.d / q3)
        if m >= 1.0:
            out.append(f"need |abcd/q^3| < 1, got {m:.3g}")
        if fractional:
            if not 0.0 < self.a < self.x < 1.0:
                out.append(f"fractional variant needs 0 < a < x < 1, got a={self.a}, x={self.x}")
            if self.mu <= 0:
                out.append(f"mu must be positive, got {self.mu}")
        return out


@dataclass(frozen=True)
class IdentityReport:
    identity_name: str
    params: dict
    lhs: complex
    rhs: complex
    abs_err: float
    rel_err: float
    lhs_diag: dict = field(default_factory=dict)
    rhs_diag: dict = field(default_factory=dict)
    wall_time: float = 0.0
    tolerance: float = 0.0
    passed: bool = False


def _require_valid(p, fractional=None):
    vs = p.violations() if fractional is None else p.violations(fractional)
    if vs:
        raise DomainError("; ".join(vs))


def _report(name, p, lhs, rhs, tol, t0, lhs_diag=None, rhs_diag=None):
    lhs = complex(lhs)
    rhs = complex(rhs)
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs), _TINY)
    rel_err = abs_err / scale
    if abs(lhs) < _TINY and abs(rhs) < _TINY:
        passed = abs_err <= tol
    else:
        passed = rel_err <= tol
    params = asdict(p)
    if isinstance(p, AtakishiyevParams):
        params["q"] = p.q
    return IdentityReport(
        identity_name=name,
        params=params,
        lhs=lhs,
        rhs=rhs,
        abs_err=abs_err,
        rel_err=rel_err,
        lhs_diag=lhs_diag or {},
        rhs_diag=rhs_diag or {},
        wall_time=time.perf_counter() - t0,
        tolerance=tol,
        passed=passed,
    )


# --------------------------------------------------------------------------
# stable outer k-sum
# --------------------------------------------------------------------------

def _factor_poly(params, shape):
    """Coefficients of prod_i (1 - c_i y), one column per node."""
    c = np.zeros((len(params) + 1,) + shape, dtype=complex)
    c[0] = 1.0
    for i, p in enumerate(params, start=1):
        c[1 : i + 1] -= p * c[:i]
    return c


def _extend_taylor(g, numer, denom, q, M):
    """Grow the Taylor coefficients g (rows m, columns nodes) of G to M rows.

    N(y) G(y) = D(y) G(q y) with N, D the factor polynomials gives
    g_m (1 - q^m) = sum_{j>=1} (D_j q^{m-j} - N_j) g_{m-j}.
    """
    r = max(len(numer), len(denom)) - 1
    m0 = len(g)
    out = np.zeros((M + r,) + g.shape[1:], dtype=complex)
    out[r : m0 + r] = g
    j = np.arange(r, 0, -1)  # row i of out[m : m + r] holds g_{m-r+i}
    N = np.zeros((r + 1,) + g.shape[1:], dtype=complex)
    D = np.zeros_like(N)
    N[: len(numer)] = numer
    D[: len(denom)] = denom
    # the recurrence coefficients of 16 rows at a time bound the scratch memory
    for start in range(m0, M, 16):
        m = np.arange(start, min(start + 16, M))
        C = D[j] * (q ** (m[:, None] - j))[..., None]
        C -= N[j]
        C /= (1.0 - q**m)[:, None, None]
        for mm, c in zip(m.tolist(), C):
            out[mm + r] = (c * out[mm : mm + r]).sum(axis=0)
    return out[r:]


def _tail_decayed(g, eps):
    """True once the last 8 coefficients of every node are below eps of its total."""
    mags = np.abs(g)
    return bool(np.all(mags[-8:].sum(axis=0) < eps * np.maximum(mags.sum(axis=0), 1e-300)))


def _kernel_sums(q, K0, K, g):
    """sum_m P[k, m] g_m for K0 <= k < K, one column per column of g.

    P[k, m] = (q^{m+1-k};q)_k = prod_{i<k} (1 - q^{m-i}), built row by row
    from P[k+1, m] = (1 - q^{m-k}) P[k, m]; P[k, m] = 0 for m < k.
    """
    M = len(g)
    e = np.arange(M) - np.arange(K - 1)[:, None]
    factors = np.where(e >= 0, 1.0 - q ** np.arange(M)[np.maximum(e, 0)], 0.0)
    P = np.ones((K, M))
    np.cumprod(factors, axis=0, out=P[1:])
    # einsum rather than matmul: a threaded BLAS stalls on these small
    # products whenever the other cores are busy
    cols = np.ascontiguousarray(g).view(float)
    return np.einsum("km,mn->kn", P[K0:], cols).view(complex)


def _first_run_end(flags, length):
    """Per column, the first row closing `length` consecutive True flags.

    Columns without such a run get len(flags).
    """
    c = np.cumsum(flags, axis=0, dtype=np.int32)
    before = np.zeros_like(c)
    before[length:] = c[:-length]
    hit = c - before == length
    return np.where(hit.any(axis=0), hit.argmax(axis=0), len(flags))


def frac_prefactor(x, a, mu, ctx):
    """x^mu (a/x;q)_mu / (q;q)_mu, the fractional-order right-hand prefactor."""
    return (
        x**mu
        * q_pochhammer(a / x, float(mu), ctx)
        / q_pochhammer(ctx.q, float(mu), ctx)
    ).real


def ksum(x, a, mu, phi_numer, phi_denom, ctx, kmax=400, diag=None):
    """sum_k x^{mu+k} (a/x;q)_{mu+k} / (a^k (q;q)_{mu+k}) * phi_k.

    phi_k is the terminating series with numerator (q^-k, *phi_numer),
    denominator (q, *phi_denom) and argument q, evaluated through the
    stable Taylor-kernel route (module docstring).  Each parameter is a
    scalar or an array with one entry per node; the result is a complex
    for all-scalar parameters and an array over the nodes otherwise.
    Raises :class:`KSumDivergence` for the first node whose outer terms
    grow for 20 consecutive k, and :class:`NonConvergence` if the Taylor
    coefficients do not decay within 4096 terms or a node's sum does not
    settle within ``kmax`` terms.
    """
    q = ctx.q
    params = [np.asarray(p, dtype=complex) for p in (*phi_numer, *phi_denom)]
    shape = np.broadcast_shapes((1,), *(p.shape for p in params))
    numer = _factor_poly([p for p in params[: len(phi_numer)] if p.any()], shape)
    denom = _factor_poly([p for p in params[len(phi_numer) :] if p.any()], shape)

    with np.errstate(over="ignore", invalid="ignore"):
        g = _extend_taylor(np.ones((1,) + shape, dtype=complex), numer, denom, q, 64)
        while not _tail_decayed(g, ctx.eps_term):
            if len(g) >= 4096:
                raise NonConvergence(
                    "Taylor expansion of the terminating-series kernel did not "
                    f"decay within {len(g)} coefficients"
                )
            g = _extend_taylor(g, numer, denom, q, 2 * len(g))

        G1 = g.sum(axis=0)
        pref = frac_prefactor(x, a, mu, ctx)
        terms = np.zeros((0,) + shape, dtype=complex)
        active = np.ones(shape, dtype=bool)
        while True:
            # keep a 60-coefficient margin of the Taylor tail beyond every k used;
            # rows k < K0 are final, new rows are needed only for unsettled nodes
            K0, K = len(terms), min(kmax, len(g) - 60)
            k = np.arange(K - 1)
            ratios = x * (1.0 - (a / x) * q ** (mu + k)) / (a * (1.0 - q ** (mu + k + 1)))
            coef = np.cumprod(np.concatenate(([pref], ratios)))[K0:, None]
            new = np.zeros((K - K0,) + shape, dtype=complex)
            new[:, active] = coef * (
                _kernel_sums(q, K0, K, np.compress(active, g, axis=1)) / G1[active]
            )
            terms = np.concatenate((terms, new))
            partial = np.cumsum(terms, axis=0)
            mag = np.abs(terms)
            small = mag < ctx.eps_term * np.maximum(np.abs(partial), 1e-300)
            grows = np.zeros_like(small)
            grows[1:] = mag[1:] > mag[:-1]
            k_stop = _first_run_end(small, ctx.consecutive_small)
            k_div = _first_run_end(grows, 20)
            diverged = np.flatnonzero(k_div < k_stop)
            if diverged.size:
                n, kd = diverged[0], int(k_div[diverged[0]])
                raise KSumDivergence(
                    f"outer k-sum terms grew for 20 consecutive k (k={kd}, "
                    f"|term|={mag[kd, n]:.3e})",
                    k=kd,
                    term_magnitude=float(mag[kd, n]),
                    partial=complex(partial[kd, n]),
                )
            active = k_stop == K
            if not active.any():
                break
            if K == kmax:
                n = np.flatnonzero(active)[0]
                raise NonConvergence(
                    f"outer k-sum did not settle within {K} terms",
                    partial=complex(partial[-1, n]),
                    last_term=float(mag[-1, n]),
                )
            g = _extend_taylor(g, numer, denom, q, min(len(g) + 32, kmax + 60))

    if diag is not None:
        diag["k_terms"] = max(diag.get("k_terms", 0), int(k_stop.max()) + 1)
    total = partial[k_stop, np.arange(shape[0])]
    return complex(total[0]) if all(p.ndim == 0 for p in params) else total


# --------------------------------------------------------------------------
# section 1: generating-function identities
# --------------------------------------------------------------------------

def _three_term_side(ctx, numer, denom):
    return q_pochhammer_multi(numer, INFINITE, ctx) / q_pochhammer_multi(
        denom, INFINITE, ctx
    )


def check_lemma_three_term(p: GeneratingParams, ctx=None, tol=None) -> IdentityReport:
    """Three-term contiguous relation for the triple product ratio."""
    t0 = time.perf_counter()
    _require_valid(p)
    ctx = ctx or QContext(q=p.q)
    tol = tol if tol is not None else DEFAULT_TOLERANCES["lemma-three-term"]
    a, b, r, s, t, u, z, q = p.a, p.b, p.r, p.s, p.t, p.u, p.z, p.q
    m = max(abs(a * s), abs(a * z), abs(a * u))
    if m >= 1.0:
        raise DomainError(f"need max(|as|,|az|,|au|) < 1, got {m:.3f}")

    lhs = (s - u) * _three_term_side(ctx, [a * b * z, a * t, a * r * u], [a * s, a * z, a * u])
    rhs = (
        u * r * _three_term_side(ctx, [a * b * z, a * t, a * r * u * q], [a * s * q, a * z, a * u * q])
        - u * _three_term_side(ctx, [a * b * z, a * t, a * r * u], [a * s * q, a * z, a * u])
        + (s - u * r) * _three_term_side(ctx, [a * b * z, a * t, a * r * u * q], [a * s, a * z, a * u * q])
    )
    return _report("lemma-three-term", p, lhs, rhs, tol, t0)


def _generating_lhs(p, ctx, include_ru):
    def integrand(y):
        num = [p.b * y * p.z, y * p.t]
        den = [y * p.s, y * p.z]
        if include_ru:
            num.append(y * p.r * p.u)
            den.append(y * p.u)
        return math.prod(q_pochhammer_infinite(v, ctx) for v in num) / math.prod(
            q_pochhammer_infinite(v, ctx) for v in den
        )

    return fractional_q_integral(integrand, p.x, p.a, p.mu, ctx)


def check_fractional_generating(p: GeneratingParams, ctx=None, tol=None) -> IdentityReport:
    """Fractional-integral generating identity, four-parameter series form."""
    t0 = time.perf_counter()
    _require_valid(p)
    ctx = ctx or QContext(q=p.q)
    tol = tol if tol is not None else DEFAULT_TOLERANCES["fractional-generating"]
    a = p.a

    lhs = _generating_lhs(p, ctx, include_ru=True)

    rhs_diag = {}
    pref = (1.0 - p.q) ** p.mu * _three_term_side(
        ctx, [a * p.b * p.z, a * p.t, a * p.r * p.u], [a * p.s, a * p.z, a * p.u]
    )
    rhs = pref * ksum(
        p.x,
        a,
        p.mu,
        phi_numer=[a * p.s, a * p.z, a * p.u],
        phi_denom=[a * p.b * p.z, a * p.t, a * p.r * p.u],
        ctx=ctx,
        diag=rhs_diag,
    )
    return _report("fractional-generating", p, lhs, rhs, tol, t0, rhs_diag=rhs_diag)


def check_fractional_generating_3phi2(p: GeneratingParams, ctx=None, tol=None) -> IdentityReport:
    """Two-parameter (u = 0) form of the fractional generating identity."""
    t0 = time.perf_counter()
    _require_valid(p)
    ctx = ctx or QContext(q=p.q)
    tol = tol if tol is not None else DEFAULT_TOLERANCES["fractional-generating-3phi2"]
    a = p.a

    lhs = _generating_lhs(p, ctx, include_ru=False)

    rhs_diag = {}
    pref = (1.0 - p.q) ** p.mu * _three_term_side(
        ctx, [a * p.b * p.z, a * p.t], [a * p.s, a * p.z]
    )
    rhs = pref * ksum(
        p.x,
        a,
        p.mu,
        phi_numer=[a * p.s, a * p.z],
        phi_denom=[a * p.b * p.z, a * p.t],
        ctx=ctx,
        diag=rhs_diag,
    )
    return _report(
        "fractional-generating-3phi2", p, lhs, rhs, tol, t0, rhs_diag=rhs_diag
    )


# --------------------------------------------------------------------------
# section 2: Askey-Wilson integrals on [0, pi]
# --------------------------------------------------------------------------

def _aw_weight(theta, params, ctx):
    return h_cos(2.0 * theta, [1.0], ctx) / h_cos(theta, params, ctx)


def _quad_diag(res):
    return {
        "nodes": res.nodes_used,
        "est_error": res.est_error,
        "window": list(res.window) if res.window else None,
    }


def check_askey_wilson(p: AWParams, ctx=None, cfg=None, tol=None) -> IdentityReport:
    """Askey-Wilson integral: quadrature versus the closed product."""
    t0 = time.perf_counter()
    _require_valid(p, fractional=False)
    ctx = ctx or QContext(q=p.q)
    cfg = cfg or QuadratureConfig()
    tol = tol if tol is not None else DEFAULT_TOLERANCES["askey-wilson"]
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q

    res = integrate_theta(lambda th: _aw_weight(th, [a, b, c, d], ctx), cfg)
    rhs = (
        2.0
        * math.pi
        * q_pochhammer_infinite(a * b * c * d, ctx)
        / q_pochhammer_multi(
            [q, a * b, a * c, a * d, b * c, b * d, c * d], INFINITE, ctx
        )
    )
    return _report(
        "askey-wilson", p, res.value, rhs, tol, t0, lhs_diag=_quad_diag(res)
    )


def _check_fractional_aw_common(name, p, ctx, cfg, tol, drop_d):
    t0 = time.perf_counter()
    _require_valid(p, fractional=True)
    ctx = ctx or QContext(q=p.q)
    cfg = cfg or QuadratureConfig()
    tol = tol if tol is not None else DEFAULT_TOLERANCES[name]
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    weight_params = [a, b, c] if drop_d else [a, b, c, d]
    diag = {}

    def f(th):
        e = np.exp(1j * th)
        if drop_d:
            numer = [a * e, a / e]
            denom = [a * b, a * c]
        else:
            numer = [a * b * c * d, a * e, a / e]
            denom = [a * b, a * c, a * d]
        s = ksum(p.x, a, p.mu, numer, denom, ctx, diag=diag)
        return _aw_weight(th, weight_params, ctx) * s

    res = integrate_theta(f, cfg)
    if drop_d:
        closed = 2.0 * math.pi / q_pochhammer_multi(
            [q, a * b, a * c, b * c], INFINITE, ctx
        )
    else:
        closed = (
            2.0
            * math.pi
            * q_pochhammer_infinite(a * b * c * d, ctx)
            / q_pochhammer_multi(
                [q, a * b, a * c, a * d, b * c, b * d, c * d], INFINITE, ctx
            )
        )
    rhs = closed * frac_prefactor(p.x, a, p.mu, ctx)
    lhs_diag = _quad_diag(res)
    lhs_diag.update(diag)
    return _report(name, p, res.value, rhs, tol, t0, lhs_diag=lhs_diag)


def check_fractional_aw(p: AWParams, ctx=None, cfg=None, tol=None) -> IdentityReport:
    """Fractional Askey-Wilson integral (four-parameter series form)."""
    return _check_fractional_aw_common(
        "fractional-askey-wilson", p, ctx, cfg, tol, drop_d=False
    )


def check_fractional_aw_3phi2(p: AWParams, ctx=None, cfg=None, tol=None) -> IdentityReport:
    """Three-parameter (d = 0) form of the fractional Askey-Wilson integral."""
    return _check_fractional_aw_common(
        "fractional-askey-wilson-3phi2", p, ctx, cfg, tol, drop_d=True
    )


# --------------------------------------------------------------------------
# section 3: reversal integrals on the real line
# --------------------------------------------------------------------------

def _reversal_weight_log(t, params, ctx):
    q = ctx.q
    lg = sum(h_sinh_log(t, q * prm, ctx) for prm in params if prm != 0)
    lg = lg - q_pochhammer_infinite_log(-q * np.exp(2.0 * t), ctx)
    return lg - q_pochhammer_infinite_log(-q * np.exp(-2.0 * t), ctx)


def check_reversal_aw(p: ReversalParams, ctx=None, cfg=None, tol=None) -> IdentityReport:
    """Reversal Askey-Wilson integral: window quadrature versus closed form."""
    t0 = time.perf_counter()
    _require_valid(p, fractional=False)
    ctx = ctx or QContext(q=p.q)
    cfg = cfg or QuadratureConfig()
    tol = tol if tol is not None else DEFAULT_TOLERANCES["reversal-askey-wilson"]
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q

    res = integrate_line_even_window(
        lambda ts: np.exp(_reversal_weight_log(ts, [a, b, c, d], ctx)), cfg
    )
    rhs = (
        q_pochhammer_multi(
            [q, q * a * b, q * a * c, q * a * d, q * b * c, q * b * d, q * c * d],
            INFINITE,
            ctx,
        )
        / q_pochhammer_infinite(q * a * b * c * d, ctx)
        * math.log(1.0 / q)
    )
    return _report(
        "reversal-askey-wilson", p, res.value, rhs, tol, t0, lhs_diag=_quad_diag(res)
    )


def _check_fractional_reversal_common(name, p, ctx, cfg, tol, drop_d):
    t0 = time.perf_counter()
    _require_valid(p, fractional=True)
    ctx = ctx or QContext(q=p.q)
    cfg = cfg or QuadratureConfig()
    tol = tol if tol is not None else DEFAULT_TOLERANCES[name]
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    weight_params = [a, b, c] if drop_d else [a, b, c, d]
    diag = {}

    def f(ts):
        et = np.exp(ts)
        if drop_d:
            numer = [q * a * b, q * a * c]
            denom = [1j * a * q * et, -1j * a * q / et]
        else:
            numer = [q * a * b, q * a * c, q * a * d]
            denom = [1j * a * q * et, -1j * a * q / et, q * a * b * c * d]
        s = ksum(p.x, a, p.mu, numer, denom, ctx, diag=diag)
        return np.exp(_reversal_weight_log(ts, weight_params, ctx)) * s

    res = integrate_line_even_window(f, cfg)
    if drop_d:
        closed = q_pochhammer_multi(
            [q, q * a * b, q * a * c, q * b * c], INFINITE, ctx
        )
    else:
        closed = q_pochhammer_multi(
            [q, q * a * b, q * a * c, q * a * d, q * b * c, q * b * d, q * c * d],
            INFINITE,
            ctx,
        ) / q_pochhammer_infinite(q * a * b * c * d, ctx)
    rhs = closed * frac_prefactor(p.x, a, p.mu, ctx) * math.log(1.0 / q)
    lhs_diag = _quad_diag(res)
    lhs_diag.update(diag)
    return _report(name, p, res.value, rhs, tol, t0, lhs_diag=lhs_diag)


def check_fractional_reversal_aw(p: ReversalParams, ctx=None, cfg=None, tol=None) -> IdentityReport:
    """Fractional reversal Askey-Wilson integral (four-parameter form)."""
    return _check_fractional_reversal_common(
        "fractional-reversal-askey-wilson", p, ctx, cfg, tol, drop_d=False
    )


def check_fractional_reversal_aw_3phi2(p: ReversalParams, ctx=None, cfg=None, tol=None) -> IdentityReport:
    """Three-parameter (d = 0) form of the fractional reversal integral."""
    return _check_fractional_reversal_common(
        "fractional-reversal-askey-wilson-3phi2", p, ctx, cfg, tol, drop_d=True
    )


# --------------------------------------------------------------------------
# section 4: Gaussian-weighted integrals under q = exp(-2 alpha_g^2)
# --------------------------------------------------------------------------

def _gaussian_weight_log(t, params, alpha_g, ctx):
    return -t * t + sum(
        h_sinh_log(alpha_g * t, prm, ctx) for prm in params if prm != 0
    )


def check_atakishiyev(p: AtakishiyevParams, ctx=None, cfg=None, tol=None) -> IdentityReport:
    """Gaussian-weighted real-line integral versus its closed product form."""
    t0 = time.perf_counter()
    _require_valid(p, fractional=False)
    q = p.q
    ctx = ctx or QContext(q=q)
    cfg = cfg or QuadratureConfig()
    tol = tol if tol is not None else DEFAULT_TOLERANCES["atakishiyev"]
    a, b, c, d, ag = p.a, p.b, p.c, p.d, p.alpha_g

    res = integrate_line_even_window(
        lambda ts: np.exp(_gaussian_weight_log(ts, [a, b, c, d], ag, ctx))
        * np.cosh(ag * ts),
        cfg,
    )
    rhs = (
        math.sqrt(math.pi)
        * q ** (-0.125)
        * q_pochhammer_multi(
            [a * b / q, a * c / q, a * d / q, b * c / q, b * d / q, c * d / q],
            INFINITE,
            ctx,
        )
        / q_pochhammer_infinite(a * b * c * d / q**3, ctx)
    )
    return _report(
        "atakishiyev", p, res.value, rhs, tol, t0, lhs_diag=_quad_diag(res)
    )


def _check_fractional_atakishiyev_common(name, p, ctx, cfg, tol, drop_d):
    t0 = time.perf_counter()
    _require_valid(p, fractional=True)
    q = p.q
    ctx = ctx or QContext(q=q)
    cfg = cfg or QuadratureConfig()
    tol = tol if tol is not None else DEFAULT_TOLERANCES[name]
    a, b, c, d, ag = p.a, p.b, p.c, p.d, p.alpha_g
    weight_params = [a, b, c] if drop_d else [a, b, c, d]
    diag = {}

    def f(ts):
        et = np.exp(ag * ts)
        if drop_d:
            numer = [a * b / q, a * c / q]
            denom = [1j * a * et, -1j * a / et]
        else:
            numer = [a * b / q, a * c / q, a * d / q]
            denom = [1j * a * et, -1j * a / et, a * b * c * d / q**3]
        s = ksum(p.x, a, p.mu, numer, denom, ctx, diag=diag)
        weight = np.exp(_gaussian_weight_log(ts, weight_params, ag, ctx))
        return weight * np.cosh(ag * ts) * s

    res = integrate_line_even_window(f, cfg)
    if drop_d:
        closed = q_pochhammer_multi(
            [a * b / q, a * c / q, b * c / q], INFINITE, ctx
        )
    else:
        closed = q_pochhammer_multi(
            [a * b / q, a * c / q, a * d / q, b * c / q, b * d / q, c * d / q],
            INFINITE,
            ctx,
        ) / q_pochhammer_infinite(a * b * c * d / q**3, ctx)
    rhs = math.sqrt(math.pi) * q ** (-0.125) * closed * frac_prefactor(p.x, a, p.mu, ctx)
    lhs_diag = _quad_diag(res)
    lhs_diag.update(diag)
    return _report(name, p, res.value, rhs, tol, t0, lhs_diag=lhs_diag)


def check_fractional_atakishiyev(p: AtakishiyevParams, ctx=None, cfg=None, tol=None) -> IdentityReport:
    """Fractional Gaussian-weighted integral (four-parameter form)."""
    return _check_fractional_atakishiyev_common(
        "fractional-atakishiyev", p, ctx, cfg, tol, drop_d=False
    )


def check_fractional_atakishiyev_3phi2(p: AtakishiyevParams, ctx=None, cfg=None, tol=None) -> IdentityReport:
    """Three-parameter (d = 0) form of the fractional Gaussian integral."""
    return _check_fractional_atakishiyev_common(
        "fractional-atakishiyev-3phi2", p, ctx, cfg, tol, drop_d=True
    )


# --------------------------------------------------------------------------
# suite runner
# --------------------------------------------------------------------------

IDENTITY_REGISTRY = {
    "lemma-three-term": (GeneratingParams, check_lemma_three_term),
    "fractional-generating": (GeneratingParams, check_fractional_generating),
    "fractional-generating-3phi2": (GeneratingParams, check_fractional_generating_3phi2),
    "askey-wilson": (AWParams, check_askey_wilson),
    "fractional-askey-wilson": (AWParams, check_fractional_aw),
    "fractional-askey-wilson-3phi2": (AWParams, check_fractional_aw_3phi2),
    "reversal-askey-wilson": (ReversalParams, check_reversal_aw),
    "fractional-reversal-askey-wilson": (ReversalParams, check_fractional_reversal_aw),
    "fractional-reversal-askey-wilson-3phi2": (
        ReversalParams,
        check_fractional_reversal_aw_3phi2,
    ),
    "atakishiyev": (AtakishiyevParams, check_atakishiyev),
    "fractional-atakishiyev": (AtakishiyevParams, check_fractional_atakishiyev),
    "fractional-atakishiyev-3phi2": (
        AtakishiyevParams,
        check_fractional_atakishiyev_3phi2,
    ),
}


@dataclass(frozen=True)
class CheckOutcome:
    """Result of one suite entry: passed / failed / skipped / diverged.

    ``params`` are the entry's parameters, kept so that a skipped or
    diverged entry, which has no report, can be re-run.  ``details`` holds
    a diverged entry's failure data as plain Python values: ``k``,
    ``term_magnitude`` and ``partial`` of a :class:`KSumDivergence`,
    ``partial`` and ``last_term`` of a :class:`NonConvergence`, the
    ``probes`` (half-width to log-magnitude) of a :class:`WindowFailure`.
    """

    identity_name: str
    status: str
    report: IdentityReport | None = None
    reason: str | None = None
    params: dict | None = None
    details: dict | None = None


_FAILURE_FIELDS = {
    KSumDivergence: ("k", "term_magnitude", "partial"),
    NonConvergence: ("partial", "last_term"),
    WindowFailure: ("probes",),
}


def _plain(value):
    # numpy partials (array paths) as lists of Python numbers
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _failure_details(exc) -> dict:
    return {name: _plain(getattr(exc, name)) for name in _FAILURE_FIELDS[type(exc)]}


def run_check(name: str, params: dict, ctx_options=None, tol=None) -> IdentityReport:
    """Instantiate the parameter bundle for ``name`` and run the check."""
    if name not in IDENTITY_REGISTRY:
        raise KeyError(
            f"unknown identity {name!r}; known: {', '.join(sorted(IDENTITY_REGISTRY))}"
        )
    cls, fn = IDENTITY_REGISTRY[name]
    p = cls(**params)
    ctx = None
    if ctx_options:
        ctx = QContext(q=p.q, **ctx_options)
    return fn(p, ctx=ctx, tol=tol)


def run_suite(entries, ctx_options=None):
    """Run a list of concrete checks; failures are data, never crashes.

    Each entry is a mapping with keys ``identity``, ``params`` and optional
    ``tolerance``, as produced by :func:`qaw.suite.expand_suite`, which
    rejects unknown identity and parameter names.  Domain violations, poles
    and vanishing factors yield skipped outcomes, convergence and window
    errors yield diverged outcomes, each with the diagnostic message and
    the entry's params; diverged outcomes also carry the failure's data
    (``details``).  The report order equals the entry order.
    """
    outcomes = []
    for entry in entries:
        name, params = entry["identity"], entry["params"]
        try:
            report = run_check(name, params, ctx_options, entry.get("tolerance"))
        except DomainError as exc:
            outcomes.append(CheckOutcome(name, "skipped", reason=str(exc), params=params))
        except (PoleError, DivisionByZero) as exc:
            outcomes.append(CheckOutcome(
                name, "skipped", reason=f"{type(exc).__name__}: {exc}", params=params
            ))
        except tuple(_FAILURE_FIELDS) as exc:
            outcomes.append(CheckOutcome(
                name, "diverged", reason=f"{type(exc).__name__}: {exc}", params=params,
                details=_failure_details(exc),
            ))
        else:
            outcomes.append(
                CheckOutcome(name, "passed" if report.passed else "failed", report)
            )
    return outcomes
