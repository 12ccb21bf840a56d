"""Even valuation expressions: Klain functions, products, and the Lambda map.

Expression trees are built from intrinsic volumes, projection valuations
vol_i(Pr_F K), Crofton integrals against a function on a Grassmannian, the
two-factor product realized as the volume of a stacked-projection image, and
the derivative-at-zero operator Lambda phi(K) = d/deps vol-style phi(K+eps D).
Everything here is even and translation invariant by construction; degrees
are tracked structurally (Lambda lowers the degree by one).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .base import Estimate, mc_chunks, mc_samples, mean_and_stderr, unit_ball_volume
from .bodies import (
    Ball,
    Polytope,
    _shadow_volumes,
    ball_intrinsic_volumes,
    default_epsilon_grid,
    hull_volume,
    kubota_coefficient,
    kubota_estimate,
    project,
    shadow_measures,
    steiner_fit,
)
from .errors import DimensionError, PolynomialFitError, ScopeError
from .grassmann import (
    SeededSampler,
    Subspace,
    _check_orthonormal,
    _complement,
    _cos,
    _haar_maps,
    _map_ball_volume,
    _plucker,
    _stack,
    cos_angles_with_bases,
    haar_bases_batch,
    haar_unit_vectors,
    orthocomplement,
    orthonormal_basis,
)
from .transforms import (GFunction, _containing_bases, constant_gfunction,
                         even_harmonic_basis, zonal_harmonic)

BodySpec = Polytope | Ball


# ---------------------------------------------------------------------------
# Expression types
# ---------------------------------------------------------------------------


class ValuationExpr:
    """Base class; every constructor yields an even, translation-invariant valuation."""

    parity = "even"

    @property
    def degree(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class IntrinsicVolume(ValuationExpr):
    k: int

    def __post_init__(self):
        if self.k < 0:
            raise DimensionError("intrinsic volume degree must be nonnegative")

    @property
    def degree(self) -> int:
        return self.k


@dataclass(frozen=True)
class ProjectionVal(ValuationExpr):
    """K -> vol_i(Pr_F K) for a fixed i-dimensional subspace F."""

    subspace: Subspace

    @property
    def degree(self) -> int:
        return self.subspace.dim


@dataclass(frozen=True)
class CroftonVal(ValuationExpr):
    """K -> E_F[ f(F) vol_i(Pr_F K) ] over Haar F in Gr_i."""

    f: GFunction
    i: int

    def __post_init__(self):
        if self.f.grass_dim != self.i:
            raise DimensionError("Crofton function lives on the wrong Grassmannian")

    @property
    def degree(self) -> int:
        return self.i


@dataclass(frozen=True)
class ProductProj(ValuationExpr):
    """Product of two projection valuations: the stacked-projection volume.

    Degree dim F1 + dim F2; when that exceeds the ambient dimension the
    embedded image is degenerate and the valuation is identically zero
    (legal, not an error).
    """

    f1: Subspace
    f2: Subspace

    def __post_init__(self):
        if self.f1.ambient_dim != self.f2.ambient_dim:
            raise DimensionError("factors live in different ambient spaces")

    @property
    def degree(self) -> int:
        return self.f1.dim + self.f2.dim


@dataclass(frozen=True)
class Lambda(ValuationExpr):
    """Derivative at 0 of the inner valuation on outer parallel bodies."""

    inner: ValuationExpr

    def __post_init__(self):
        if self.inner.degree < 1:
            raise DimensionError("Lambda requires inner degree >= 1")

    @property
    def degree(self) -> int:
        return self.inner.degree - 1


@dataclass(frozen=True)
class CustomVal(ValuationExpr):
    """Plumbing node for composed constructions (e.g. Kubota-averaged powers)."""

    evaluator: Callable[[BodySpec, int, SeededSampler], Estimate] = field(repr=False)
    deg: int
    name: str = "custom"

    @property
    def degree(self) -> int:
        return self.deg


# ---------------------------------------------------------------------------
# Elementary evaluations
# ---------------------------------------------------------------------------


def product_projection(f1: Subspace, f2: Subspace, k: Polytope) -> float:
    """The two-factor valuation product evaluated on a polytope.

    Embeds each vertex v as (Pr_F1 v, Pr_F2 v) in F1 (+) F2 and returns the
    exact hull volume there: the product of Lebesgue measures of the two
    stacked projections.
    """
    if k.ambient_dim != f1.ambient_dim or k.ambient_dim != f2.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    embedded = np.hstack([k.vertices @ f1.basis, k.vertices @ f2.basis])
    return hull_volume(Polytope(f1.dim + f2.dim, embedded))


def _crofton_eval(expr: CroftonVal, body: BodySpec, budget: int, s: SeededSampler) -> Estimate:
    def draw(c: int, sub: SeededSampler) -> np.ndarray:
        bases = haar_bases_batch(body.ambient_dim, expr.i, c, sub)
        return expr.f.eval_bases(bases) * _shadow_volumes(body, bases)

    return mean_and_stderr(mc_samples(budget, s, draw))


def evaluate(expr: ValuationExpr, body: BodySpec, budget: int, s: SeededSampler) -> Estimate:
    """Evaluate a valuation expression on a polytope or a subspace ball.

    Exact paths (projection valuations on polytopes, intrinsic volumes of
    balls, stacked products) return zero standard error; Monte-Carlo paths
    spend ``budget`` samples.
    """
    if isinstance(expr, IntrinsicVolume):
        k = expr.k
        n = body.ambient_dim
        if k > n:
            return Estimate(0.0, 0.0)
        if isinstance(body, Ball):
            ldim = body.dim
            if k > ldim:
                return Estimate(0.0, 0.0)
            return Estimate(ball_intrinsic_volumes(ldim)[k], 0.0)
        return kubota_estimate(body, k, budget, s)
    if isinstance(expr, ProjectionVal):
        f = expr.subspace
        if f.ambient_dim != body.ambient_dim:
            raise DimensionError("ambient dimensions differ")
        if isinstance(body, Ball):
            return Estimate(float(_map_ball_volume(f.basis.T, body.subspace.basis, f.dim)), 0.0)
        return Estimate(hull_volume(project(body, f)), 0.0)
    if isinstance(expr, CroftonVal):
        return _crofton_eval(expr, body, budget, s)
    if isinstance(expr, ProductProj):
        if isinstance(body, Ball):
            m = np.vstack([expr.f1.basis.T, expr.f2.basis.T])
            return Estimate(float(_map_ball_volume(m, body.subspace.basis, expr.degree)), 0.0)
        return Estimate(product_projection(expr.f1, expr.f2, body), 0.0)
    if isinstance(expr, Lambda):
        if isinstance(body, Ball):
            raise ScopeError("Lambda is evaluated on polytopes (parallel bodies of "
                             "subspace balls are not subspace balls)")
        return lambda_apply(expr, body, budget, s)
    if isinstance(expr, CustomVal):
        return expr.evaluator(body, budget, s)
    raise TypeError(f"unknown expression {expr!r}")


# ---------------------------------------------------------------------------
# Klain functions
# ---------------------------------------------------------------------------


def klain_function(expr: ValuationExpr, budget: int = 4096,
                   s: SeededSampler | None = None, ambient_dim: int | None = None) -> GFunction:
    """The Klain function L -> phi(D_L) on Gr_deg, as an evaluable GFunction.

    Closed forms are used for intrinsic volumes, projection valuations and
    stacked products, on a whole stack of L's at once.  Other expressions
    are estimated once per L by Monte-Carlo with a fixed derived stream, so
    the returned evaluator is a pure function of L.
    """
    deg = expr.degree
    n = ambient_dim
    if isinstance(expr, (ProjectionVal, ProductProj)):
        # Both map D_L through a fixed linear map m.
        if isinstance(expr, ProjectionVal):
            n, m = expr.subspace.ambient_dim, expr.subspace.basis.T
        else:
            n, m = expr.f1.ambient_dim, np.vstack([expr.f1.basis.T, expr.f2.basis.T])

        def ev(bases: np.ndarray) -> np.ndarray:
            return _map_ball_volume(m, bases, deg)
    elif isinstance(expr, IntrinsicVolume):
        const = unit_ball_volume(deg)

        def ev(bases: np.ndarray) -> np.ndarray:
            return np.full(len(bases), const)
    else:
        base = s if s is not None else SeededSampler(0)

        def ev(bases: np.ndarray) -> np.ndarray:
            return np.array([evaluate(expr, Ball(Subspace(n, b)), budget, base.substream(0)).value
                             for b in bases])
    if n is None:
        raise DimensionError("ambient_dim required for this expression type")
    return GFunction(n, deg, ev, name=f"klain({type(expr).__name__})")


# ---------------------------------------------------------------------------
# Claim 2.3: exact two-sided identity
# ---------------------------------------------------------------------------


def claim23_sides(e: np.ndarray, f: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the stacked-projection ball-volume identity on stacks of
    orthonormal bases E (count, n, i1), F (count, n, i2) and L (count, n,
    i1 + i2); row t is the identity for (E_t, F_t, L_t).

    lhs: exact volume of (Pr_E (+) Pr_F)(D_L) by singular values;
    rhs: kappa_{dim L} |cos(L, E+F)| |sin(E, F)|, with E + F spanned by the
    dim L left singular vectors of [E F].  Degenerate configurations (E meets
    F, so E + F has lower dimension than L) give 0 = 0: there sin(E, F) = 0,
    whatever the cosine against those singular vectors.
    """
    e, f, l = _stack(e), _stack(f), _stack(l)
    count, n, q = l.shape
    if e.shape[:2] != (count, n) or f.shape[:2] != (count, n):
        raise DimensionError(f"stacks of shapes {e.shape}, {f.shape} and {l.shape} do not pair up")
    if q != e.shape[2] + f.shape[2]:
        raise DimensionError("need dim L = dim E + dim F")
    for b in (e, f, l):
        _check_orthonormal(b)
    m = np.concatenate([np.swapaxes(e, 1, 2), np.swapaxes(f, 1, 2)], axis=1)
    lhs = _map_ball_volume(m, l, q)
    span = np.linalg.svd(np.concatenate([e, f], axis=2), full_matrices=False)[0]
    comp = _complement(f)
    _check_orthonormal(span)
    _check_orthonormal(comp)
    rhs = unit_ball_volume(q) * _cos(l, span) * _cos(e, comp)
    return lhs, rhs


def claim23_check(e: Subspace, f: Subspace, l: Subspace) -> tuple[float, float]:
    """``claim23_sides`` for one triple (E, F, L)."""
    lhs, rhs = claim23_sides(e.basis[None], f.basis[None], l.basis[None])
    return float(lhs[0]), float(rhs[0])


# ---------------------------------------------------------------------------
# Lemmas 2.2 and 2.4: profiles over a stack of L, one draw per side
# ---------------------------------------------------------------------------

# Rows of the (m, rows) sample matrix that a profile estimator holds at once:
# per-L sums are kept, never the (m, n_samples) samples.
_PROFILE_BLOCK = 2048


def _profile_points(l: np.ndarray, n: int, q: int) -> np.ndarray:
    """The (m, n, q) stack of orthonormal L bases a profile is evaluated at."""
    l = _stack(l)
    if l.shape[1:] != (n, q):
        raise DimensionError(f"need an (m, {n}, {q}) stack of L bases, got shape {l.shape}")
    _check_orthonormal(l)
    return l


def _det_profile(l: np.ndarray, n_samples: int, s: SeededSampler,
                 draw: Callable) -> tuple[np.ndarray, np.ndarray]:
    """Per-L mean and standard error of w |det(R^T L)| over ``n_samples`` rows.

    ``l`` is a checked (m, n, q) stack.  For each chunk, ``draw(count, sub)``
    returns a (count, n, q) stack of R and (count,) weights w, or None for
    w = 1.  Every L reads the same rows, so the draws do not depend on the
    stack.  By Cauchy-Binet each block of rows is one product of Plucker
    coordinates, and only the per-L sums of x and x^2 are kept.
    """
    if n_samples < 1:
        raise ValueError("no samples")
    pl = _plucker(l)
    total, total_sq = np.zeros(len(l)), np.zeros(len(l))
    buf = np.empty((len(l), min(n_samples, _PROFILE_BLOCK)))
    for _, c, sub in mc_chunks(n_samples, s):
        r, w = draw(c, sub)
        for start in range(0, c, _PROFILE_BLOCK):
            rows = slice(start, start + _PROFILE_BLOCK)
            pr = _plucker(r[rows])
            x = buf[:, : len(pr)]
            np.matmul(pl, pr.T, out=x)
            np.abs(x, out=x)
            if w is not None:
                x *= w[rows]
            total += x.sum(axis=1)
            x *= x
            total_sq += x.sum(axis=1)
    mean = total / n_samples
    if n_samples == 1:
        return mean, np.zeros(len(l))
    var = np.maximum(total_sq - total * mean, 0.0) / (n_samples - 1)
    return mean, np.sqrt(var / n_samples)


def lemma22_formula(f: Subspace, k: int, l: np.ndarray, n_samples: int,
                    s: SeededSampler) -> tuple[np.ndarray, np.ndarray]:
    """Average of |cos(L, R)| over Haar (k+i)-subspaces R containing F, at
    every L of an (m, n, k+i) stack: (values, standard errors).

    Represents the Klain function of V_k times the projection valuation of F
    up to a normalizing constant (compare against ``lemma22_direct`` by
    proportionality fitting).  Every L reads the same draws of R.  k = 0
    degenerates to the exact cosine with F.
    """
    n = f.ambient_dim
    i = f.dim
    if i + k > n:
        raise DimensionError("k + dim F exceeds ambient dimension")
    l = _profile_points(l, n, k + i)
    if k == 0:
        return cos_angles_with_bases(l, f.basis[None])[:, 0], np.zeros(len(l))
    comp = orthocomplement(f).basis
    return _det_profile(l, n_samples, s,
                        lambda c, sub: (_containing_bases(f, comp, k + i, c, sub), None))


def lemma22_direct(f: Subspace, k: int, l: np.ndarray, n_samples: int,
                   s: SeededSampler) -> tuple[np.ndarray, np.ndarray]:
    """Klain function of V_k times the projection valuation of F, at every L
    of an (m, n, k+i) stack: (values, standard errors).

    Kubota average over Haar E in Gr_k of the exact stacked-projection ball
    volume kappa_q |det([E F]^T L)|, with the Kubota constant made explicit;
    the independent route that ``lemma22_formula`` is checked against.
    Every L reads the same draws of E.
    """
    n = f.ambient_dim
    i = f.dim
    q = k + i
    l = _profile_points(l, n, q)
    if k == 0:
        return _map_ball_volume(f.basis.T, l, f.dim), np.zeros(len(l))
    scale = unit_ball_volume(q) * kubota_coefficient(n, k)

    def draw(c: int, sub: SeededSampler):
        e_bases = haar_bases_batch(n, k, c, sub)
        return np.concatenate([e_bases, np.broadcast_to(f.basis, (c, n, i))], axis=2), None

    mean, stderr = _det_profile(l, n_samples, s, draw)
    return scale * mean, scale * stderr


def multiply_by_intrinsic(f: GFunction, i: int, k: int,
                          n_samples: int = 8192,
                          s: SeededSampler | None = None) -> GFunction:
    """Klain-side representative of V_k times the Crofton valuation of f.

    Returns the composed-transform function on Gr_{k+i}: at L it averages
    |cos(L, R)| f(F') over Haar R in Gr_{k+i} and Haar F' inside R (a
    one-sample estimator of the cosine transform applied after the Radon
    transform), up to the lemma's unspecified constant.  Every L of an
    evaluated stack reads the same draws of R and F', and f is evaluated on
    them once per chunk.
    """
    if f.grass_dim != i:
        raise DimensionError("f lives on the wrong Grassmannian")
    n = f.ambient_dim
    q = k + i
    if q > n:
        raise DimensionError("k + i exceeds ambient dimension")
    base = s if s is not None else SeededSampler(0)

    def draw(c: int, sub: SeededSampler):
        r_bases = haar_bases_batch(n, q, c, sub)
        return r_bases, f.eval_bases(r_bases @ haar_bases_batch(q, i, c, sub))

    def ev(l_bases: np.ndarray) -> np.ndarray:
        return _det_profile(_profile_points(l_bases, n, q), n_samples, base, draw)[0]

    return GFunction(n, q, ev, name=f"V_{k}*crofton({f.name})")


def lemma24_direct(f: GFunction, i: int, k: int, l: np.ndarray, n_samples: int,
                   s: SeededSampler) -> tuple[np.ndarray, np.ndarray]:
    """Direct Klain function of V_k * (Crofton valuation of f), at every L of
    an (m, n, k+i) stack: (values, standard errors).

    Monte-Carlo over independent Haar pairs (E, F) of f(F) times the exact
    stacked-projection ball volume, scaled by the Kubota constant.  Every L
    reads the same draws of (E, F).
    """
    n = f.ambient_dim
    q = k + i
    l = _profile_points(l, n, q)
    scale = unit_ball_volume(q) * kubota_coefficient(n, k)

    def draw(c: int, sub: SeededSampler):
        e_bases = haar_bases_batch(n, k, c, sub)
        f_bases = haar_bases_batch(n, i, c, sub)
        return np.concatenate([e_bases, f_bases], axis=2), f.eval_bases(f_bases)

    mean, stderr = _det_profile(l, n_samples, s, draw)
    return scale * mean, scale * stderr


def fit_proportionality(direct: np.ndarray, formula: np.ndarray) -> tuple[float, float]:
    """Least-squares scalar alpha with direct ~ alpha * formula, and rel residual."""
    direct = np.asarray(direct, dtype=float)
    formula = np.asarray(formula, dtype=float)
    denom = float(formula @ formula)
    if denom == 0.0:
        raise ValueError("formula side is identically zero")
    alpha = float(direct @ formula) / denom
    residual = float(np.linalg.norm(direct - alpha * formula) / np.linalg.norm(direct))
    return alpha, residual


# ---------------------------------------------------------------------------
# Lambda: the eps^m coefficient of phi(K + eps D)
# ---------------------------------------------------------------------------


def _steiner_coefficient_rows(expr: ValuationExpr, body: Polytope, budget: int,
                              s: SeededSampler) -> np.ndarray:
    """Per-sample coefficients of expr(K + eps D) in eps, already scaled:
    a (rows, deg + 1) array whose column means are the exact polynomial's.

    Each row is the planar Steiner polynomial of one shadow (``shadow_measures``
    with ``steiner``): V_k (k <= 2) reads Kubota's constant times it on
    ``budget`` Haar k-frames, a Crofton valuation (i <= 2) f(F) times it on
    ``budget`` Haar F, and a projection valuation (dim F <= 2) the one exact
    row of its own F.  At budget 0 the sampled routes give no rows.
    """
    n = body.ambient_dim
    d = expr.degree
    if isinstance(expr, IntrinsicVolume) and d <= 2:
        c = kubota_coefficient(n, d)
        rows = mc_samples(budget, s, lambda count, sub: c * shadow_measures(
            body, _haar_maps(n, d, count, sub), steiner=True))
    elif isinstance(expr, CroftonVal) and d <= 2:
        def draw(count: int, sub: SeededSampler) -> np.ndarray:
            bases = haar_bases_batch(n, d, count, sub)
            return expr.f.eval_bases(bases)[:, None] * shadow_measures(body, bases, steiner=True)

        rows = mc_samples(budget, s, draw)
    elif isinstance(expr, ProjectionVal) and d <= 2:
        rows = shadow_measures(body, expr.subspace.basis[None], steiner=True)
    else:
        raise ScopeError(f"Lambda of {type(expr).__name__} of degree {d} in R^{n} needs "
                         "degree <= 2 or a membership volume")
    return rows.reshape(-1, d + 1)


def lambda_apply(expr: Lambda, body: Polytope, budget: int,
                 s: SeededSampler, max_residual: float = 0.02) -> Estimate:
    """Evaluate (possibly nested) Lambda expressions from the Steiner
    polynomial phi(K + eps D) of degree deg(phi) in eps: m nested Lambda
    layers return m! times its eps^m coefficient.

    V_n and projection valuations with dim F > 2 are membership volumes, fitted
    by ``steiner_fit`` on ``default_epsilon_grid(body, deg + 3, span=0.6)``;
    fit residuals above ``max_residual`` raise PolynomialFitError (the sample
    budget was too small for the grid).  Every other inner expression takes
    the mean of its ``_steiner_coefficient_rows``.
    """
    layers = 0
    base: ValuationExpr = expr
    while isinstance(base, Lambda):
        layers += 1
        base = base.inner
    d = base.degree
    scale = math.factorial(layers)
    if isinstance(base, IntrinsicVolume) and d == body.ambient_dim:
        target = body
    elif isinstance(base, ProjectionVal) and d > 2:
        target = project(body, base.subspace)
    else:
        est = mean_and_stderr(_steiner_coefficient_rows(base, body, budget, s)[:, layers])
        return Estimate(scale * est.value, scale * est.stderr)
    fit = steiner_fit(target, default_epsilon_grid(body, d + 3, span=0.6), budget, s)
    if fit.fit_residual > max_residual:
        raise PolynomialFitError(
            f"fit residual {fit.fit_residual:.3g} exceeds {max_residual:.3g}; raise the budget"
        )
    return Estimate(float(scale * fit.coefficients[layers]),
                    scale * float(fit.coefficient_stderrs[layers]))


# ---------------------------------------------------------------------------
# Proportionality verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProportionalityReport:
    ratios: np.ndarray
    mean_ratio: float
    spread: float
    proportional: bool
    skipped: list[int]
    values_a: list[Estimate]
    values_b: list[Estimate]


def proportionality_check(a: ValuationExpr, b: ValuationExpr, bodies, budget: int,
                          s: SeededSampler, tol: float = 0.03) -> ProportionalityReport:
    """Evaluate two same-degree valuations on test bodies and compare ratios.

    Reports the per-body ratio a/b, their mean, and the relative spread; the
    verdict is "proportional" when the spread is within ``tol``.  Bodies on
    which b vanishes (relative to its typical size) are excluded with a
    warning.  Only proportionality is asserted; the constant is reported.
    """
    if a.degree != b.degree:
        raise DimensionError("expressions have different homogeneity degrees")
    vals_a = [evaluate(a, body, budget, s.substream(2 * j)) for j, body in enumerate(bodies)]
    vals_b = [evaluate(b, body, budget, s.substream(2 * j + 1)) for j, body in enumerate(bodies)]
    scale_b = max(abs(v.value) for v in vals_b)
    ratios = []
    skipped = []
    for j, (va, vb) in enumerate(zip(vals_a, vals_b)):
        if abs(vb.value) <= 1e-9 * max(scale_b, 1e-300):
            warnings.warn(f"body {j} excluded: denominator approximately zero")
            skipped.append(j)
        else:
            ratios.append(va.value / vb.value)
    ratios = np.asarray(ratios)
    mean_ratio = float(ratios.mean()) if ratios.size else math.nan
    if ratios.size and mean_ratio != 0.0:
        spread = float(np.abs(ratios - mean_ratio).max() / abs(mean_ratio))
    else:
        spread = math.inf
    return ProportionalityReport(
        ratios=ratios,
        mean_ratio=mean_ratio,
        spread=spread,
        proportional=bool(spread <= tol),
        skipped=skipped,
        values_a=vals_a,
        values_b=vals_b,
    )


def v1_power(n: int, p: int) -> CustomVal:
    """The p-th power of V_1 as a Kubota-averaged stacked-projection volume.

    Iterating the two-factor product formula, V_1^p(K) is the Kubota-constant
    power times the mean volume of the image of K under p independent Haar
    line projections.
    """
    if p < 1:
        raise DimensionError("power must be >= 1")
    c1p = kubota_coefficient(n, 1) ** p

    def ev(body: BodySpec, budget: int, s: SeededSampler) -> Estimate:
        def draw(c: int, sub: SeededSampler) -> np.ndarray:
            dirs = haar_unit_vectors(n, c * p, sub).reshape(c, p, n)
            return _shadow_volumes(body, np.swapaxes(dirs, 1, 2))

        est = mean_and_stderr(mc_samples(budget, s, draw))
        return Estimate(c1p * est.value, c1p * est.stderr)

    return CustomVal(evaluator=ev, deg=p, name=f"V1^{p}")


# ---------------------------------------------------------------------------
# JSON expression trees
# ---------------------------------------------------------------------------


def expr_to_json(expr: ValuationExpr) -> dict:
    """Serialize an expression tree (Crofton nodes need a declarative GFunction)."""
    if isinstance(expr, IntrinsicVolume):
        return {"op": "IntrinsicVolume", "k": expr.k}
    if isinstance(expr, ProjectionVal):
        return {
            "op": "ProjectionVal",
            "ambient_dim": expr.subspace.ambient_dim,
            "basis": expr.subspace.basis.tolist(),
        }
    if isinstance(expr, ProductProj):
        return {
            "op": "ProductProj",
            "ambient_dim": expr.f1.ambient_dim,
            "basis1": expr.f1.basis.tolist(),
            "basis2": expr.f2.basis.tolist(),
        }
    if isinstance(expr, CroftonVal):
        if expr.f.spec is None:
            raise ValueError("CroftonVal carries a non-declarative function")
        return {
            "op": "CroftonVal",
            "i": expr.i,
            "ambient_dim": expr.f.ambient_dim,
            "f": expr.f.spec,
        }
    if isinstance(expr, Lambda):
        return {"op": "Lambda", "arg": expr_to_json(expr.inner)}
    raise ValueError(f"{type(expr).__name__} is not JSON-serializable")


def _gfunction_from_spec(n: int, i: int, spec: dict) -> GFunction:
    kind = spec.get("kind")
    if kind == "constant":
        return constant_gfunction(n, i, float(spec["value"]))
    if kind == "zonal":
        return zonal_harmonic(n, int(spec["degree"]), np.asarray(spec["axis"], dtype=float))
    if kind == "harmonic":
        degree = int(spec["degree"])
        return [g for g in even_harmonic_basis(n, degree)
                if g.spec["degree"] == degree][int(spec["order"])]
    raise ValueError(f"unknown GFunction spec {spec!r}")


def expr_from_json(d: dict) -> ValuationExpr:
    op = d["op"]
    if op == "IntrinsicVolume":
        return IntrinsicVolume(int(d["k"]))
    if op == "ProjectionVal":
        return ProjectionVal(orthonormal_basis(np.asarray(d["basis"], dtype=float)))
    if op == "ProductProj":
        return ProductProj(
            orthonormal_basis(np.asarray(d["basis1"], dtype=float)),
            orthonormal_basis(np.asarray(d["basis2"], dtype=float)),
        )
    if op == "CroftonVal":
        i = int(d["i"])
        return CroftonVal(_gfunction_from_spec(int(d["ambient_dim"]), i, d["f"]), i)
    if op == "Lambda":
        return Lambda(expr_from_json(d["arg"]))
    raise ValueError(f"unknown op {op!r}")
