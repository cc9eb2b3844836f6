"""Distribution families for the conditioning variable X and runtime models.

X is the variable the truncated-run process conditions on: a fresh run's
expected cost given X is exp(X).  Two concrete conditional laws are supplied,
a zero-variance one (cost exactly exp(X)) and a memoryless one (geometric on
{1, 2, ...} with mean exp(X)), so every cost statement can be exercised
against both extremes.  Costs are virtual steps: a truncated attempt with
budget b on a run of total cost T contributes min(T, b), and a run whose cost
equals the budget exactly counts as a success.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass

# Support values are capped so exp(x) and the largest schedule budgets stay
# inside double range.
MAX_SUPPORT_LOG = 300.0

_ATOM_PROB_TOL = 1e-12
# 2**1074: every double is a whole number of 2**-1074 units.
_ULP_SCALE = 1 << 1074

LAWS = ("deterministic", "geometric")


@dataclass(frozen=True)
class DistX:
    """A distribution of X: discrete atoms or the truncated-exponential density.

    family "discrete"/"constant": atoms is a sorted tuple of (x, p) pairs.
    family "adversarial_density": density exp(x - (E+1)) on
    [0, E + 1 + ln(1 + exp(-(E+1)))], total mass exactly 1.
    """

    family: str
    kind: str
    params: tuple[tuple[str, float], ...] = ()
    atoms: tuple[tuple[float, float], ...] = ()
    E: float = math.nan

    @property
    def label(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in self.params)
        return f"{self.kind}({inner})"

    @functools.cached_property
    def atom_prefixes(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(positions, prefixes) of the atoms: prefixes[i] = Pr(X < positions[i])
        for each atom, then the total past the last, each equal to math.fsum of
        the probabilities before it.

        Every double is a whole multiple of 2**-1074, so the running sums are
        exact integers in those units; int / int rounds correctly, as fsum
        does.  Built once per distribution, in O(n).
        """
        total, sums = 0, [0.0]
        for _, p in self.atoms:
            num, den = p.as_integer_ratio()
            total += num * (_ULP_SCALE // den)
            sums.append(total / _ULP_SCALE)
        return tuple(x for x, _ in self.atoms), tuple(sums)


@dataclass(frozen=True)
class RuntimeModel:
    """DistX paired with the conditional law generating the run cost T."""

    dist: DistX
    law: str

    def __post_init__(self):
        if self.law not in LAWS:
            raise ValueError(f"unknown runtime law {self.law!r}")

    @property
    def label(self) -> str:
        return f"{self.dist.label}|{self.law}"


def _validate_atoms(atoms) -> tuple[tuple[float, float], ...]:
    out = []
    for x, p in atoms:
        x, p = float(x), float(p)
        if not math.isfinite(x) or x < 0.0:
            raise ValueError(f"atom positions must be finite and >= 0, got {x!r}")
        if x > MAX_SUPPORT_LOG:
            raise ValueError(f"atom position {x} exceeds the range guard {MAX_SUPPORT_LOG}")
        if not (0.0 < p <= 1.0):
            raise ValueError(f"atom probabilities must lie in (0, 1], got {p!r}")
        out.append((x, p))
    if not out:
        raise ValueError("a discrete distribution needs at least one atom")
    total = math.fsum(p for _, p in out)
    if abs(total - 1.0) > _ATOM_PROB_TOL:
        raise ValueError(f"atom probabilities sum to {total!r}, not 1")
    out.sort()
    xs = [x for x, _ in out]
    if len(set(xs)) != len(xs):
        raise ValueError("atom positions must be distinct")
    return tuple(out)


def discrete(atoms) -> DistX:
    """Discrete distribution from (x, p) pairs; probabilities must sum to 1."""
    clean = _validate_atoms(atoms)
    params = tuple((f"x{i}", x) for i, (x, _) in enumerate(clean))
    return DistX(family="discrete", kind="discrete", params=params, atoms=clean)


def constant(c: float) -> DistX:
    """X identically equal to c >= 0."""
    c = float(c)
    if not math.isfinite(c) or c < 0.0 or c > MAX_SUPPORT_LOG:
        raise ValueError(f"constant value must lie in [0, {MAX_SUPPORT_LOG}], got {c!r}")
    return DistX(family="constant", kind="constant", params=(("c", c),), atoms=((c, 1.0),))


def two_point(E: float) -> DistX:
    """Mass 1/(E+1) at 0 and the rest at E+1; mean exactly E.

    This is the unique distribution meeting the mean-based tail bound
    Pr(X >= E+1) <= E/(E+1) with equality.
    """
    E = float(E)
    if not (0.0 < E <= MAX_SUPPORT_LOG - 1.0):
        raise ValueError(f"two_point requires 0 < E <= {MAX_SUPPORT_LOG - 1}, got {E!r}")
    p0 = 1.0 / (E + 1.0)
    atoms = ((0.0, p0), (E + 1.0, 1.0 - p0))
    return DistX(family="discrete", kind="two_point", params=(("E", E),), atoms=atoms)


def fixed_t_counterexample(E: float, t: float) -> DistX:
    """Mass E/(t+1) at t+1 and the rest at 0; mean exactly E (needs t >= E > 0).

    Against a constant-budget restart strategy with threshold t, this
    distribution forces expected cost at least E * exp(E).
    """
    E, t = float(E), float(t)
    if not (E > 0.0):
        raise ValueError(f"fixed_t_counterexample requires E > 0, got {E!r}")
    if t < E:
        raise ValueError(f"fixed_t_counterexample requires t >= E, got t={t!r} < E={E!r}")
    if t + 1.0 > MAX_SUPPORT_LOG:
        raise ValueError(f"t+1 exceeds the range guard {MAX_SUPPORT_LOG}")
    p_hi = E / (t + 1.0)
    atoms = ((0.0, 1.0 - p_hi), (t + 1.0, p_hi))
    return DistX(
        family="discrete",
        kind="fixed_t_counterexample",
        params=(("E", E), ("t", t)),
        atoms=atoms,
    )


def adversarial_density(E: float) -> DistX:
    """Density exp(x-(E+1)) on [0, E+1+ln(1+exp(-(E+1)))]; mean E + O(exp(-E)).

    Mass below any threshold t is exponentially small in (E+1) - t, so no
    single threshold can do better than exp(E+1): the +1 in the exponent of
    the single-threshold strategy is necessary.
    """
    E = float(E)
    if not (0.0 < E <= MAX_SUPPORT_LOG):
        raise ValueError(f"adversarial_density requires 0 < E <= {MAX_SUPPORT_LOG}, got {E!r}")
    return DistX(family="adversarial_density", kind="adversarial_density", params=(("E", E),), E=E)


def variance_counterexample(E: float, V: float) -> DistX:
    """Three-point distribution with mean E, variance V, and Pr(X < E) = exp(-E).

    Valid for V >= 2 E^2 exp(-E).  However large V is, the mass below E stays
    exp(-E), so restarts cannot beat exp(E) on it: variance alone (in the
    usual square-deviation sense) buys nothing.
    """
    E, V = float(E), float(V)
    if not (E > 0.0):
        raise ValueError(f"variance_counterexample requires E > 0, got {E!r}")
    v_min = 2.0 * E * E * math.exp(-E)
    if V < v_min:
        raise ValueError(f"variance_counterexample requires V >= 2E^2 exp(-E) = {v_min!r}, got {V!r}")
    w = math.exp(-E)
    denom = V - E * E * w
    x_top = V / (E * w)
    p_top = (E * w) ** 2 / denom
    p_mid = 1.0 - V * w / denom
    if x_top > MAX_SUPPORT_LOG:
        raise ValueError(f"top atom {x_top} exceeds the range guard {MAX_SUPPORT_LOG}")
    atoms = _validate_atoms([(0.0, w), (E, p_mid), (x_top, p_top)])
    return DistX(
        family="discrete",
        kind="variance_counterexample",
        params=(("E", E), ("V", V)),
        atoms=atoms,
    )


_SPEC_FIELDS = {"kind", "E", "t", "V", "c", "atoms"}


def build_distribution(spec: dict) -> DistX:
    """Build a distribution from a JSON-style spec dict.

    Recognized kinds: two_point(E), fixed_t_counterexample(E, t),
    adversarial_density(E), variance_counterexample(E, V), constant(c),
    discrete(atoms).  Unknown fields are rejected.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a dict, got {type(spec).__name__}")
    unknown = set(spec) - _SPEC_FIELDS
    if unknown:
        raise ValueError(f"unknown distribution spec fields: {sorted(unknown)}")
    kind = spec.get("kind")

    def need(*names):
        missing = [n for n in names if n not in spec]
        extra = [n for n in _SPEC_FIELDS - {"kind"} if n in spec and n not in names]
        if missing or extra:
            raise ValueError(
                f"distribution kind {kind!r} takes exactly fields {list(names)}; "
                f"missing {missing}, unexpected {extra}"
            )
        return [spec[n] for n in names]

    if kind == "two_point":
        (e,) = need("E")
        return two_point(e)
    if kind == "fixed_t_counterexample":
        e, t = need("E", "t")
        return fixed_t_counterexample(e, t)
    if kind == "adversarial_density":
        (e,) = need("E")
        return adversarial_density(e)
    if kind == "variance_counterexample":
        e, v = need("E", "V")
        return variance_counterexample(e, v)
    if kind == "constant":
        (c,) = need("c")
        return constant(c)
    if kind == "discrete":
        (atoms,) = need("atoms")
        return discrete(atoms)
    raise ValueError(f"unknown distribution kind {kind!r}")


# ---------------------------------------------------------------------------
# Density helpers for the adversarial family.


def _adv_consts(dist: DistX) -> tuple[float, float]:
    a = math.exp(-(dist.E + 1.0))
    t_max = dist.E + 1.0 + math.log1p(a)
    return a, t_max


def support_max(dist: DistX) -> float:
    """Largest value X can take."""
    if dist.family == "adversarial_density":
        return _adv_consts(dist)[1]
    return dist.atoms[-1][0]


def _cdf(dist: DistX, t, side: str):
    if dist.family != "adversarial_density" and isinstance(t, (float, int)):
        xs, prefixes = dist.atom_prefixes
        search = bisect.bisect_left if side == "left" else bisect.bisect_right
        return prefixes[search(xs, float(t))]
    import numpy as np  # for arrays, and for the density: np.expm1 sets its bits

    ts = np.asarray(t, dtype=float)
    if dist.family == "adversarial_density":
        a, t_max = _adv_consts(dist)
        # exp(t - (E+1)) - a as a*expm1(t), which does not cancel for small t.
        # Past t_max the value is 1; the minimum keeps expm1 from overflowing.
        out = np.clip(a * np.expm1(np.minimum(ts, t_max)), 0.0, 1.0)
        out = np.where(ts <= 0.0, 0.0, np.where(ts >= t_max, 1.0, out))
    else:
        out = np.array([_cdf(dist, float(x), side) for x in ts.ravel()]).reshape(ts.shape)
    return float(out) if out.ndim == 0 else out


def cdf_strict(dist: DistX, t: float | np.ndarray) -> float | np.ndarray:
    """Pr(X < t), strictly below t, for a scalar t or elementwise over an array."""
    return _cdf(dist, t, "left")


def cdf(dist: DistX, t: float | np.ndarray) -> float | np.ndarray:
    """Pr(X <= t), inclusive of an atom at t, for a scalar or an array."""
    return _cdf(dist, t, "right")


def expectation(dist: DistX) -> float:
    """E[X]; exact for atoms, closed form for the density family."""
    if dist.family == "adversarial_density":
        a, _ = _adv_consts(dist)
        # Antiderivative of x*exp(x-(E+1)) is (x-1)*exp(x-(E+1)); evaluating
        # at the support endpoints gives the closed form below.
        return (dist.E + math.log1p(a)) * (1.0 + a) + a
    return math.fsum(p * x for x, p in dist.atoms)


def expectation_exp(dist: DistX) -> float:
    """E[exp(X)], the expected fresh-run cost under either law."""
    if dist.family == "adversarial_density":
        a, _ = _adv_consts(dist)
        return (math.exp(dist.E + 1.0) * (1.0 + a) ** 2 - a) / 2.0
    return math.fsum(p * math.exp(x) for x, p in dist.atoms)


def sample_x(dist: DistX, rng) -> float:
    """One draw of X; rng needs a numpy-Generator-style random() method."""
    if dist.family == "adversarial_density":
        a, _ = _adv_consts(dist)
        u = 1.0 - rng.random()  # in (0, 1]
        return dist.E + 1.0 + math.log(u + a)
    u = rng.random()
    acc = 0.0
    for x, p in dist.atoms:
        acc += p
        if u < acc:
            return x
    return dist.atoms[-1][0]


# ---------------------------------------------------------------------------
# Gauss-Kronrod quadrature.

# QUADPACK's qk15 pair (Piessens et al., QUADPACK, 1983): (node, Kronrod
# weight, Gauss weight) for the 8 of the 15 Kronrod nodes on [-1, 1] that are
# >= 0.  Every other node from the second is a 7-point Gauss node; the Gauss
# weight is 0 at the others.
_QK15 = (
    (0.991455371120812639206854697526329, 0.022935322010529224963732008058970, 0.0),
    (0.949107912342758524526189684047851, 0.063092092629978553290700663189204, 0.129484966168869693270611432679082),
    (0.864864423359769072789712788640926, 0.104790010322250183839876322541518, 0.0),
    (0.741531185599394439863864773280788, 0.140653259715525918745189590510238, 0.279705391489276667901467771423780),
    (0.586087235467691130294144845693013, 0.169004726639267902826583426598550, 0.0),
    (0.405845151377397166906606412076961, 0.190350578064785409913256402421014, 0.381830050505118944950369775488975),
    (0.207784955007898467600689403773245, 0.204432940075298892414161999234649, 0.0),
    (0.0, 0.209482141084727828012999174891714, 0.417959183673469387755102040816327),
)


@functools.cache
def gk_rule():
    """(nodes, weights, kronrod, sums) as numpy arrays, built on first use:
    all 15 nodes in increasing order, their (Kronrod, Gauss) weight columns,
    the Kronrod column, and the columns Kronrod and Kronrod minus Gauss."""
    import numpy as np

    qk15 = np.array(_QK15)
    nodes = np.concatenate([-qk15[:, 0], qk15[-2::-1, 0]])
    weights = np.concatenate([qk15[:, 1:], qk15[-2::-1, 1:]])
    kronrod = np.ascontiguousarray(weights[:, 0])
    return nodes, weights, kronrod, np.stack([kronrod, kronrod - weights[:, 1]], axis=1)


QUAD_RTOL = 1e-12
# Absolute floor of the tolerance: an integral below it counts as zero.
QUAD_ATOL = 1e-280
_ROUNDOFF = 50.0 * sys.float_info.epsilon


class IntegrationLimitError(RuntimeError):
    """quad's error estimate misses max(QUAD_RTOL * |value|, QUAD_ATOL)."""


def quad(f, points):
    """Integrate a vector of integrands over [points[0], points[-1]].

    f maps an array of nodes to an array with one leading row per integrand
    (shape (rows,) + nodes.shape); points is the increasing partition.  One
    pass evaluates f once on the 15 Kronrod nodes of every interval.  Returns
    (values, errors), one entry per row, when every row's summed error
    estimate is at most max(QUAD_RTOL * |value|, QUAD_ATOL); raises
    IntegrationLimitError otherwise, and for a NaN integrand.
    """
    import numpy as np

    nodes, _, kronrod_w, gk_sums = gk_rule()
    lo = np.asarray(points[:-1], dtype=float)
    half = 0.5 * (np.asarray(points[1:], dtype=float) - lo)
    fx = f((lo + half)[:, None] + half[:, None] * nodes)
    sums = fx @ gk_sums
    kronrod = sums[..., 0]
    err = np.abs(sums[..., 1])
    spread = np.abs(fx - 0.5 * kronrod[..., None]) @ kronrod_w
    # qk15's scaling: a small Gauss-Kronrod difference means a much smaller
    # Kronrod error, but never below what rounding leaves.
    ratio = np.minimum(200.0 * err, spread) / np.maximum(spread, sys.float_info.min)
    err = np.maximum(spread * ratio * np.sqrt(ratio), _ROUNDOFF * (np.abs(fx) @ kronrod_w))
    total, total_err = (kronrod * half).sum(axis=1), (err * half).sum(axis=1)
    tol = np.maximum(QUAD_RTOL * np.abs(total), QUAD_ATOL)
    if not np.all(total_err <= tol):  # a NaN fails this too
        raise IntegrationLimitError(
            f"quad misses its tolerance in one pass: error estimate "
            f"{total_err.tolist()} against tolerance {tol.tolist()}"
        )
    return total, total_err


# Partition of the adversarial-density integrals under the geometric law,
# at most 41 intervals.  Both integrands increase in x, at a rate between 1
# and 2 except near ln n, where the failure factor (1 - e^-x)^n turns over.
# So the breakpoints are graded down from the top of the support, t_max, and
# from ln n: an interval at distance d carries about e^-d of the total, so it
# may be wider the larger d is.  Below ln n the failure factor is about
# exp(-u) with u = n e^-x, so there the breakpoints are spaced in u instead.
# With these steps one pass meets QUAD_RTOL for every E <= MAX_SUPPORT_LOG and
# every double budget tried (tests/test_quad.py sweeps them).
_GRADED_DOWN = (1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 24.0, 32.0, 48.0, 64.0, 128.0, 256.0)
_ABOVE_LN_N = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
_U_STEPS = (0.0, 1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 64.0)


def _adv_geometric_partition(t_max: float, n: float) -> list[float]:
    ln_n = math.log(n)
    u_top = max(1.0, math.exp(ln_n - t_max))  # u at t_max, or 1 if ln n < t_max
    pts = [ln_n - math.log(u_top + s) for s in _U_STEPS]
    pts += [ln_n + d for d in _ABOVE_LN_N]
    pts += [ln_n - d for d in _GRADED_DOWN]
    pts += [t_max - d for d in _GRADED_DOWN]
    return [0.0, *sorted({p for p in pts if 0.0 < p < t_max}), t_max]


def _adv_geometric_stats(dist: DistX, n: float) -> tuple[float, float, float]:
    """(q, m, p) of the adversarial density when an attempt gets n >= 1 steps.

    Given X = x the run is geometric with success probability e^-x, so it
    fails with probability (1 - e^-x)^n and is charged
    (1 - (1 - e^-x)^n) e^x steps on average; q and m integrate both against
    the density e^(x - (E+1)) over the same nodes, and p is 1 - q.
    """
    import numpy as np  # np.log1p, np.exp and np.expm1 set these bits

    e1 = dist.E + 1.0
    _, t_max = _adv_consts(dist)

    def integrands(x):
        # -inf, at nodes that round to x = 0 or for huge n, means fail = 0.
        with np.errstate(divide="ignore", over="ignore"):
            log_fail = n * np.log1p(-np.exp(-x))
        density = np.exp(x - e1)
        return np.stack([np.exp(log_fail) * density, -np.expm1(log_fail) * np.exp(x) * density])

    (q, m), _ = quad(integrands, _adv_geometric_partition(t_max, n))
    q = min(1.0, float(q))
    return q, float(m), 1.0 - q


# ---------------------------------------------------------------------------
# Runtime models.


def runtime_stats(model: RuntimeModel, b: float) -> tuple[float, float, float]:
    """(q, m, p) of one attempt at budget b: q = Pr(attempt fails), m = E[cost
    charged to the attempt], i.e. E[min(T, b)] under the deterministic law
    and E[min(T, floor(b))] under the geometric law (integer steps), and
    p = Pr(attempt succeeds) at full relative precision, not as 1 - q, which
    loses a p below about 1e-16.  Only the density under the geometric law
    takes p = 1 - q, good to about QUAD_RTOL.
    """
    b = float(b)
    if b <= 0.0:
        raise ValueError(f"budget must be positive, got {b!r}")
    dist = model.dist

    if model.law == "deterministic":
        if dist.family == "adversarial_density":
            a, t_max = _adv_consts(dist)
            xb = math.log(b)
            if xb >= t_max:
                return 0.0, expectation_exp(dist), 1.0
            if xb <= 0.0:
                return 1.0, b, 0.0
            # exp(xb - (E+1)) - a and exp(2 xb - (E+1)) - a as a*expm1(.),
            # which do not cancel for small xb (as in _cdf).
            p = a * math.expm1(xb)
            q = 1.0 - p
            m = a * math.expm1(2.0 * xb) / 2.0 + b * q
            return q, m, p
        q = m = 0.0
        k = 0  # the atoms that finish within b: a prefix, as the atoms are sorted
        for x, w in dist.atoms:
            t_run = math.exp(x)
            if t_run <= b:
                k += 1
                m += w * t_run
            else:
                q += w
                m += w * b
        return q, m, dist.atom_prefixes[1][k]

    # geometric law: the attempt gets floor(b) whole steps
    n = math.floor(b)
    if n < 1.0:
        return 1.0, 0.0, 0.0
    if dist.family == "adversarial_density":
        return _adv_geometric_stats(dist, n)
    q = m = p = 0.0
    for x, w in dist.atoms:
        pg = math.exp(-x)
        # Pr(all n steps fail) = (1 - pg)^n, with one log1p per atom.
        log_fail = n * math.log1p(-pg) if pg < 1.0 else -math.inf
        succ = -math.expm1(log_fail)
        q += w * math.exp(log_fail)
        m += w * (succ / pg)
        p += w * succ
    return q, m, p


def success_impossible(model: RuntimeModel, b: float) -> bool:
    """True when no run can finish within budget b, by a support argument."""
    b = float(b)
    if model.law == "geometric":
        return math.floor(b) < 1.0  # T >= 1 and any whole step can succeed
    if model.dist.family == "adversarial_density":
        return b <= 1.0  # Pr(X <= ln b) = 0 iff ln b <= 0
    return math.exp(model.dist.atoms[0][0]) > b


def sample_t(model: RuntimeModel, rng) -> float:
    """One fresh-run cost draw: X via sample_x, then T per the law."""
    x = sample_x(model.dist, rng)
    if model.law == "deterministic":
        return math.exp(x)
    p = math.exp(-x)
    if p >= 1.0:
        return 1.0
    u = 1.0 - rng.random()  # in (0, 1]
    return float(math.floor(math.log(u) / math.log1p(-p))) + 1.0


# ---------------------------------------------------------------------------
# The built-in zoo: every adversarial construction plus plumbing families.

ZOO_TWO_POINT_ES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
ZOO_FIXED_T_GRID = tuple(
    (float(e), float(t))
    for e in (5.0, 10.0, 20.0)
    for t in (e, e + 1.0, e + 5.0, 2.0 * e)
)
ZOO_ADVERSARIAL_ES = (5.0, 10.0, 20.0)
ZOO_CONSTANTS = (0.0, 1.0, 5.0, 10.0)


def zoo_distributions() -> list[DistX]:
    """The code-defined test zoo used by the verification commands."""
    out: list[DistX] = []
    out.extend(two_point(e) for e in ZOO_TWO_POINT_ES)
    out.extend(fixed_t_counterexample(e, t) for e, t in ZOO_FIXED_T_GRID)
    out.extend(adversarial_density(e) for e in ZOO_ADVERSARIAL_ES)
    out.append(variance_counterexample(5.0, 10.0))
    out.extend(constant(c) for c in ZOO_CONSTANTS)
    return out


def zoo_models() -> list[RuntimeModel]:
    """Every zoo distribution under both runtime laws."""
    return [RuntimeModel(d, law) for d in zoo_distributions() for law in LAWS]
