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
from typing import NamedTuple

# Support values are capped so exp(x) and the largest schedule budgets stay
# inside double range.
MAX_SUPPORT_LOG = 300.0

_ATOM_PROB_TOL = 1e-12
# 2**1074: every double is a whole number of 2**-1074 units.
_ULP_SCALE = 1 << 1074

LAWS = ("deterministic", "geometric")


class _DistXFields(NamedTuple):
    kind: str
    params: tuple[tuple[str, float], ...] = ()
    atoms: tuple[tuple[float, float], ...] = ()
    E: float | None = None


class DistX(_DistXFields):
    """A distribution of X: discrete atoms or the truncated-exponential density.

    kind "adversarial_density": density exp(x - (E+1)) on
    [0, E + 1 + ln(1 + exp(-(E+1)))], total mass exactly 1.
    Every other kind: atoms is a sorted tuple of (x, p) pairs.
    """

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


class _RuntimeModelFields(NamedTuple):
    dist: DistX
    law: str


class RuntimeModel(_RuntimeModelFields):
    """DistX paired with the conditional law generating the run cost T."""

    __slots__ = ()

    def __new__(cls, dist: DistX, law: str):
        if law not in LAWS:
            raise ValueError(f"unknown runtime law {law!r}")
        return super().__new__(cls, dist, law)

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
    return DistX(kind="discrete", params=params, atoms=clean)


def constant(c: float) -> DistX:
    """X identically equal to c >= 0."""
    c = float(c)
    if not math.isfinite(c) or c < 0.0 or c > MAX_SUPPORT_LOG:
        raise ValueError(f"constant value must lie in [0, {MAX_SUPPORT_LOG}], got {c!r}")
    return DistX(kind="constant", params=(("c", c),), atoms=((c, 1.0),))


def two_point(E: float) -> DistX:
    """Mass 1/(E+1) at 0 and the rest at E+1; mean exactly E.

    This is the unique distribution meeting the mean-based tail bound
    Pr(X >= E+1) <= E/(E+1) with equality.
    """
    E = float(E)
    if not (0.0 < E <= MAX_SUPPORT_LOG - 1.0):
        raise ValueError(f"two_point requires 0 < E <= {MAX_SUPPORT_LOG - 1}, got {E!r}")
    p0 = 1.0 / (E + 1.0)
    atoms = _validate_atoms([(0.0, p0), (E + 1.0, 1.0 - p0)])  # 1 - p0 is 0 for E < ~1e-16
    return DistX(kind="two_point", params=(("E", E),), atoms=atoms)


def fixed_t_counterexample(E: float, t: float) -> DistX:
    """Mass E/(t+1) at t+1 and the rest at 0; mean exactly E (needs t >= E > 0).

    Against a constant-budget restart strategy with threshold t, this
    distribution forces expected cost at least E * exp(E).
    """
    E, t = float(E), float(t)
    if not (E > 0.0):
        raise ValueError(f"fixed_t_counterexample requires E > 0, got {E!r}")
    if not t >= E:  # NaN too
        raise ValueError(f"fixed_t_counterexample requires t >= E, got t={t!r} < E={E!r}")
    if t + 1.0 > MAX_SUPPORT_LOG:
        raise ValueError(f"t+1 exceeds the range guard {MAX_SUPPORT_LOG}")
    p_hi = E / (t + 1.0)
    atoms = _validate_atoms([(0.0, 1.0 - p_hi), (t + 1.0, p_hi)])  # p_hi may underflow to 0
    return DistX(kind="fixed_t_counterexample", params=(("E", E), ("t", t)), atoms=atoms)


def adversarial_density(E: float) -> DistX:
    """Density exp(x-(E+1)) on [0, E+1+ln(1+exp(-(E+1)))]; mean E + O(exp(-E)).

    Mass below any threshold t is exponentially small in (E+1) - t, so no
    single threshold can do better than exp(E+1): the +1 in the exponent of
    the single-threshold strategy is necessary.
    """
    E = float(E)
    if not (0.0 < E <= MAX_SUPPORT_LOG):
        raise ValueError(f"adversarial_density requires 0 < E <= {MAX_SUPPORT_LOG}, got {E!r}")
    return DistX(kind="adversarial_density", params=(("E", E),), E=E)


def variance_counterexample(E: float, V: float) -> DistX:
    """Three-point distribution with mean E, variance V, and Pr(X < E) = exp(-E).

    Valid for V >= 2 E^2 exp(-E).  However large V is, the mass below E stays
    exp(-E), so restarts cannot beat exp(E) on it: variance alone (in the
    usual square-deviation sense) buys nothing.
    """
    E, V = float(E), float(V)
    if not (E > 0.0):
        raise ValueError(f"variance_counterexample requires E > 0, got {E!r}")
    # The top atom lies at 2E or above, and E e^-E underflows to 0 past E = 745.
    if E > MAX_SUPPORT_LOG / 2:
        raise ValueError(f"variance_counterexample requires E <= {MAX_SUPPORT_LOG / 2}, got {E!r}")
    v_min = 2.0 * E * E * math.exp(-E)
    if V < v_min:
        raise ValueError(f"variance_counterexample requires V >= 2E^2 exp(-E) = {v_min!r}, got {V!r}")
    # 2E^2 e^-E underflows to 0 below E = 1.6e-162, where V = 0 would divide by 0.
    if V <= 0.0:
        raise ValueError(f"variance_counterexample requires V > 0, got {V!r}")
    w = math.exp(-E)
    denom = V - E * E * w
    x_top = V / (E * w)
    p_top = (E * w) ** 2 / denom
    p_mid = 1.0 - V * w / denom
    if x_top > MAX_SUPPORT_LOG:
        raise ValueError(f"top atom {x_top} exceeds the range guard {MAX_SUPPORT_LOG}")
    atoms = _validate_atoms([(0.0, w), (E, p_mid), (x_top, p_top)])
    return DistX(
        kind="variance_counterexample", params=(("E", E), ("V", V)), atoms=atoms
    )


# Each spec kind: its constructor and the fields it takes, in argument order.
_SPEC_KINDS = {
    "two_point": (two_point, ("E",)),
    "fixed_t_counterexample": (fixed_t_counterexample, ("E", "t")),
    "adversarial_density": (adversarial_density, ("E",)),
    "variance_counterexample": (variance_counterexample, ("E", "V")),
    "constant": (constant, ("c",)),
    "discrete": (discrete, ("atoms",)),
}
_SPEC_FIELDS = {"kind"}.union(*(names for _, names in _SPEC_KINDS.values()))


def build_distribution(spec: dict) -> DistX:
    """Build a distribution from a JSON-style spec dict.

    Recognized kinds: two_point(E), fixed_t_counterexample(E, t),
    adversarial_density(E), variance_counterexample(E, V), constant(c),
    discrete(atoms).  Unknown fields and values of the wrong type are
    rejected with ValueError.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a dict, got {type(spec).__name__}")
    unknown = set(spec) - _SPEC_FIELDS
    if unknown:
        raise ValueError(f"unknown distribution spec fields: {sorted(unknown)}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KINDS:
        raise ValueError(f"unknown distribution kind {kind!r}")
    make, names = _SPEC_KINDS[kind]
    missing = [n for n in names if n not in spec]
    extra = sorted(set(spec) - {"kind", *names})
    if missing or extra:
        raise ValueError(
            f"distribution kind {kind!r} takes exactly fields {list(names)}; "
            f"missing {missing}, unexpected {extra}"
        )
    try:
        return make(*(spec[n] for n in names))
    except (TypeError, OverflowError) as exc:  # float(None), float(10**400), atoms: 5
        raise ValueError(f"bad value for distribution kind {kind!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Density helpers for the adversarial family.


def _adv_consts(dist: DistX) -> tuple[float, float]:
    a = math.exp(-(dist.E + 1.0))
    t_max = dist.E + 1.0 + math.log1p(a)
    return a, t_max


def support_max(dist: DistX) -> float:
    """Largest value X can take."""
    if dist.kind == "adversarial_density":
        return _adv_consts(dist)[1]
    return dist.atoms[-1][0]


def _cdf(dist: DistX, t: float, side: str) -> float:
    t = float(t)
    if dist.kind == "adversarial_density":
        a, t_max = _adv_consts(dist)
        if t <= 0.0:
            return 0.0
        if t >= t_max:
            return 1.0
        # exp(t - (E+1)) - a as a*expm1(t), which does not cancel for small t.
        return min(a * math.expm1(t), 1.0)
    xs, prefixes = dist.atom_prefixes
    search = bisect.bisect_left if side == "left" else bisect.bisect_right
    return prefixes[search(xs, t)]


def cdf_strict(dist: DistX, t: float) -> float:
    """Pr(X < t), strictly below t."""
    return _cdf(dist, t, "left")


def cdf(dist: DistX, t: float) -> float:
    """Pr(X <= t), inclusive of an atom at t."""
    return _cdf(dist, t, "right")


def expectation(dist: DistX) -> float:
    """E[X]; exact for atoms, closed form for the density family."""
    if dist.kind == "adversarial_density":
        a, _ = _adv_consts(dist)
        # Antiderivative of x*exp(x-(E+1)) is (x-1)*exp(x-(E+1)); evaluating
        # at the support endpoints gives the closed form below.
        return (dist.E + math.log1p(a)) * (1.0 + a) + a
    return math.fsum(p * x for x, p in dist.atoms)


def expectation_exp(dist: DistX) -> float:
    """E[exp(X)], the expected fresh-run cost under either law."""
    if dist.kind == "adversarial_density":
        a, _ = _adv_consts(dist)
        return (math.exp(dist.E + 1.0) * (1.0 + a) ** 2 - a) / 2.0
    return math.fsum(p * math.exp(x) for x, p in dist.atoms)


def sample_x(dist: DistX, rng) -> float:
    """One draw of X; rng.random() must return a float in [0, 1).  An atom draw
    bisects cdf's prefixes between atoms: x with cdf_strict(x) <= u < cdf(x)."""
    if dist.kind == "adversarial_density":
        a, _ = _adv_consts(dist)
        u = 1.0 - rng.random()  # in (0, 1]
        return dist.E + 1.0 + math.log(u + a)
    xs, prefixes = dist.atom_prefixes
    return xs[bisect.bisect_right(prefixes, rng.random(), 1, len(xs)) - 1]


# ---------------------------------------------------------------------------
# The adversarial density under the geometric law, in closed form.
#
# With a = e^-(E+1), z = e^-t_max = a/(1+a) and u = e^-x, an attempt of n
# whole steps fails with probability q(n) = a * int_z^1 (1-u)^n u^-2 du and is
# charged m(n) = a * int_z^1 (1 - (1-u)^n) u^-3 du on average.  Integrating
# by parts, with g_k = 1 - (1-z)^k and J_k = int_z^1 (1-u)^k / u du,
#   p(n) = 1 - q(n) = g_{n-1} + a n J_{n-1},
#   q(n-1) = q(n) + a J_{n-1},
#   m(n) = (n q(n-1) + (1+a)^2 (g_n - z^2) / a) / 2,
# each a sum of nonnegative terms.  With 1 - u = e^-s, s runs from
# ln(1+a) = -ln(1-z), and the kernels 1/(e^s - 1) of J and
# e^s/(e^s - 1)^2 of q expand in Bernoulli numbers into asymptotic series of
# incomplete gamma functions Gamma(j, w) with w = k ln(1+a) (DLMF 8.19):
#   J_k = sum_j (B_j/j!) k^-j Gamma(j, w),
#   q(n) = a n sum_j (1-2j) (B_2j/(2j)!) n^-2j Gamma(2j-1, w),
# whose terms shrink until 2j is about 2 pi k, so they serve k >= 6 for J and
# n >= 8 for q.  Below those J is t_max - sum_{i<=k} (1-z)^i / i, and q is
# 1 - p wherever p <= 1/2 or n < 8 (then q > 0.03), which keeps its digits.

_EULER_GAMMA = 0.5772156649015329
_EPS = sys.float_info.epsilon


# B_2m / (2m)! for m = 0, ..., 18, from the Taylor series of s / (e^s - 1),
# each rational number rounded once; tests/test_distx.py rebuilds them.
_EVEN_BERNOULLI = (
    1.0, 0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
    3.534707039629467e-21, -8.953517427037546e-23, 2.267952452337683e-24,
    -5.744790668872202e-26, 1.455172475614865e-27, -3.6859949406653103e-29,
)


def _scaled_expint(order: int, w: float) -> float:
    """e^w E_order(w) for order 1 or 2 and w > 0 (DLMF 8.19).  Above w = 1 the
    continued fraction, evaluated backward from a depth that reaches double
    precision (measured against mpmath); up to 1 the power series of E_1, and
    E_2(w) = e^-w - w E_1(w)."""
    if w > 1.0:
        depth = 8 + int(160.0 / w)
        f = w + order + 2.0 * depth
        for i in range(depth, 0, -1):
            f = w + order + 2.0 * (i - 1) - i * (order - 1 + i) / f
        return 1.0 / f
    e1, fact = -math.log(w) - _EULER_GAMMA, 1.0
    for i in range(1, 40):
        fact *= -w / i
        e1 -= fact / i
        if abs(fact) <= _EPS * abs(e1):
            break
    e1 *= math.exp(w)
    return e1 if order == 1 else 1.0 - w * e1


def _gamma_series(k: float, w: float, shift: int, scale: float) -> float:
    """scale e^-w times the series for J_k (shift 0) or q(k) / (a k) (shift 1)
    at w = k ln(1+a), or 0 once e^-w underflows.  Term m >= 1 is
    c_m k^-2m e^w Gamma(2m - shift, w), with c_m = B_2m/(2m)! for J and
    (1-2m) B_2m/(2m)! for q; e^w Gamma(j, w) comes from e^w Gamma(1, w) = 1 by
    the upward recurrence e^w Gamma(j+1, w) = j e^w Gamma(j, w) + w^j, which
    adds positive terms only."""
    decay = math.exp(-w)
    if decay == 0.0:
        return 0.0
    if shift:
        total = _scaled_expint(2, w) / w  # Gamma(-1, w) = E_2(w) / w
    else:
        total = _scaled_expint(1, w) - 1.0 / (2.0 * k)  # Gamma(0, w) = E_1(w), and B_1
    g, j, w_j = 1.0, 1, w
    inv_k2 = 1.0 / (k * k)
    power = inv_k2
    for m, b in enumerate(_EVEN_BERNOULLI[1:], 1):
        while j < 2 * m - shift:
            g, j, w_j = j * g + w_j, j + 1, w_j * w
        term = (1 - 2 * m if shift else 1) * b * power * g
        total += term
        if abs(term) <= _EPS * abs(total):
            break
        power *= inv_k2
    return scale * total * decay  # decay last: it may be subnormal


def _adv_geometric_stats(dist: DistX, n: float) -> tuple[float, float, float]:
    """(q, m, p) of the adversarial density when an attempt gets n >= 1
    whole steps, in closed form (see above); p keeps its relative precision."""
    a, t_max = _adv_consts(dist)
    s = math.log1p(a)
    k = n - 1.0
    if k < 6.0:
        j_fail = t_max - math.fsum(math.exp(-i * s) / i for i in range(1, int(k) + 1))
    else:
        j_fail = _gamma_series(k, k * s, 0, 1.0)
    p = -math.expm1(-k * s) + a * n * j_fail
    q = 1.0 - p if p <= 0.5 or n < 8.0 else _gamma_series(n, n * s, 1, a * n)
    z = a / (1.0 + a)
    m = (n * (q + a * j_fail) + (1.0 + a) ** 2 * (-math.expm1(-n * s) - z * z) / a) / 2.0
    return q, min(m, n), p  # an attempt is charged at most n steps


# ---------------------------------------------------------------------------
# Runtime models.


def runtime_stats(model: RuntimeModel, b: float) -> tuple[float, float, float]:
    """(q, m, p) of one attempt at budget b: q = Pr(attempt fails), m = E[cost
    charged to the attempt], i.e. E[min(T, b)] under the deterministic law
    and E[min(T, floor(b))] under the geometric law (integer steps), and
    p = Pr(attempt succeeds) at full relative precision, not as 1 - q, which
    loses a p below about 1e-16.
    """
    b = float(b)
    if not b > 0.0:  # NaN included
        raise ValueError(f"budget must be positive, got {b!r}")
    dist = model.dist

    if model.law == "deterministic":
        if dist.kind == "adversarial_density":
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
        return min(q, 1.0), min(m, b), dist.atom_prefixes[1][k]  # held to 1 and b, as below

    # geometric law: the attempt gets floor(b) whole steps, and b = inf all it needs
    if b == math.inf:
        return 0.0, expectation_exp(dist), 1.0
    n = math.floor(b)
    if n < 1.0:
        return 1.0, 0.0, 0.0
    if dist.kind == "adversarial_density":
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
    return min(q, 1.0), min(m, float(n)), p  # weights summing to 1 + 1 ulp must not lift q or m


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
