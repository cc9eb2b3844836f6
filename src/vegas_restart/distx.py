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

import math
from dataclasses import dataclass

# Support values are capped so exp(x) and the largest schedule budgets stay
# inside double range.
MAX_SUPPORT_LOG = 300.0

_ATOM_PROB_TOL = 1e-12

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
    total = 0.0
    for x, p in atoms:
        x, p = float(x), float(p)
        if not math.isfinite(x) or x < 0.0:
            raise ValueError(f"atom positions must be finite and >= 0, got {x!r}")
        if x > MAX_SUPPORT_LOG:
            raise ValueError(f"atom position {x} exceeds the range guard {MAX_SUPPORT_LOG}")
        if not (0.0 < p <= 1.0):
            raise ValueError(f"atom probabilities must lie in (0, 1], got {p!r}")
        out.append((x, p))
        total += p
    if not out:
        raise ValueError("a discrete distribution needs at least one atom")
    if abs(total - 1.0) > _ATOM_PROB_TOL:
        raise ValueError(f"atom probabilities sum to {total!r}, not 1")
    out.sort()
    xs = [x for x, _ in out]
    if len(set(xs)) != len(xs):
        raise ValueError("atom positions must be distinct")
    return tuple(out)


def discrete(atoms, kind: str = "discrete", params=None) -> DistX:
    """Discrete distribution from (x, p) pairs; probabilities must sum to 1."""
    clean = _validate_atoms(atoms)
    if params is None:
        params = tuple((f"x{i}", x) for i, (x, _) in enumerate(clean))
    return DistX(family="discrete", kind=kind, params=tuple(params), atoms=clean)


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


def cdf_strict(dist: DistX, t: float) -> float:
    """Pr(X < t), strictly below t."""
    t = float(t)
    if dist.family == "adversarial_density":
        a, t_max = _adv_consts(dist)
        if t <= 0.0:
            return 0.0
        if t >= t_max:
            return 1.0
        return min(1.0, math.exp(t - (dist.E + 1.0)) - a)
    return math.fsum(p for x, p in dist.atoms if x < t)


def cdf(dist: DistX, t: float) -> float:
    """Pr(X <= t), inclusive of an atom at t."""
    t = float(t)
    if dist.family == "adversarial_density":
        return cdf_strict(dist, t)
    return math.fsum(p for x, p in dist.atoms if x <= t)


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
# Runtime models.


def _geom_fail_prob(p: float, n: float) -> float:
    """Pr(T > n) for T geometric with success probability p, n whole steps."""
    if n < 1.0:
        return 1.0
    if p >= 1.0:
        return 0.0
    return math.exp(n * math.log1p(-p))


def _geom_mean_trunc(p: float, n: float) -> float:
    """E[min(T, n)] = (1 - (1-p)^n) / p, computed stably for tiny p."""
    if n < 1.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    return -math.expm1(n * math.log1p(-p)) / p


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on first call.

    Only the adversarial density under the geometric law integrates, so the
    package imports without scipy and loads it the first time it is needed.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _adv_quad(dist: DistX, integrand, points=None) -> float:
    _, t_max = _adv_consts(dist)
    pts = [p for p in (points or []) if 0.0 < p < t_max]
    val, _ = quad(
        integrand, 0.0, t_max, points=pts or None, epsabs=1e-280, epsrel=1e-11, limit=300
    )
    return val


def runtime_stats(model: RuntimeModel, b: float) -> tuple[float, float]:
    """Per-attempt failure probability and expected charged cost at budget b.

    Returns (q, m) with q = Pr(attempt fails) and m = E[cost charged to the
    attempt], i.e. E[min(T, b)] under the deterministic law and
    E[min(T, floor(b))] under the geometric law (integer steps).
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
                return 0.0, expectation_exp(dist)
            if xb <= 0.0:
                return 1.0, b
            f_below = math.exp(xb - (dist.E + 1.0)) - a
            q = 1.0 - f_below
            m = (math.exp(2.0 * xb - (dist.E + 1.0)) - a) / 2.0 + b * q
            return q, m
        q = 0.0
        m = 0.0
        for x, p in dist.atoms:
            t_run = math.exp(x)
            if t_run <= b:
                m += p * t_run
            else:
                q += p
                m += p * b
        return q, m

    # geometric law: the attempt gets floor(b) whole steps
    n = math.floor(b)
    if n < 1.0:
        return 1.0, 0.0
    if dist.family == "adversarial_density":
        e1 = dist.E + 1.0

        def fail(x):
            return math.exp(n * math.log1p(-math.exp(-x))) if x > 0.0 else 0.0

        def q_integrand(x):
            return fail(x) * math.exp(x - e1)

        def m_integrand(x):
            y = n * math.log1p(-math.exp(-x)) if x > 0.0 else -math.inf
            return -math.expm1(y) * math.exp(x) * math.exp(x - e1)

        split = [math.log(n)] if n > 1.0 else []
        q = _adv_quad(dist, q_integrand, points=split)
        m = _adv_quad(dist, m_integrand, points=split)
        return min(1.0, q), m
    q = 0.0
    m = 0.0
    for x, p in dist.atoms:
        pg = math.exp(-x)
        q += p * _geom_fail_prob(pg, n)
        m += p * _geom_mean_trunc(pg, n)
    return q, m


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
