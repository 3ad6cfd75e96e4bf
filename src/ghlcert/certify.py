"""End-to-end factor-degree certification.

full_certify validates the seed and parameter hypotheses, then runs the
stages that _stages yields, in order: the generic stages of the criteria
module and the special handlers defined here for the exceptional shapes
(2-adic break polygons, the 3-adic window, the own-prime polygon).
Every stage is stage(cache, ledger) -> note | None over the run's
PolygonCache.  Whatever degrees survive become the residual, and the
verdict says whether the instance is fully certified, lands in a known
exceptional family, or simply was not closed.  Certificate.json_pieces
is the one statement of the certificate's JSON layout.
"""

from __future__ import annotations

import enum
import json
from collections import namedtuple

from .criteria import (DegreeLedger, Method, PolygonCache, degree_set_stage,
                       delta_stage, witness_stage)
from .jsontext import decimals, encode, encode_int, encode_str
from .newton import degrees_of, viable_margin, widest_window
from .polynomials import GhlParams, SeedCoefficients, build_substituted
from .valuation import nu, term_table


class Verdict(str, enum.Enum):
    IRREDUCIBLE_CERTIFIED = "IRREDUCIBLE_CERTIFIED"
    EXCLUSIONS_ONLY = "EXCLUSIONS_ONLY"
    EXCEPTIONAL_FAMILY = "EXCEPTIONAL_FAMILY"


class HypothesisViolation(ValueError):
    """The instance does not satisfy the stated seed/parameter hypotheses."""


class CertificationInternalError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not an input."""


def _cofactor(m: int, primes) -> int:
    """|m| with every factor of the given primes divided out (m != 0)."""
    for p in primes:
        m //= p ** nu(p, m)
    return abs(m)


def _is_power_of(m: int, p: int) -> bool:
    return m >= p and _cofactor(m, (p,)) == 1


def exception_family(params: GhlParams):
    """Tag of the known not-always-certifiable family this instance falls
    in, or None.  Membership depends only on (d, u, alpha) and the
    multiplicative shape of the top linear factor."""
    d, u, alpha, top = params.d, params.u, params.alpha, params.top_term
    if d == 3 and (u, alpha) == (0, 1) and _is_power_of(top, 2):
        return "d3:1+3n=2^a"
    if (d == 3 and (u, alpha) == (0, 2) and top % 5 == 0
            and _cofactor(top, (2, 5)) == 1):
        return "d3:2+3n=2^b*5^c"
    if d == 4 and (u, alpha) == (-1, 3) and _is_power_of(top, 3):
        return "d4:4n-1=3^a"
    if (d == 4 and (u, alpha) == (0, 1) and top > 1
            and _cofactor(top, (3, 5)) == 1):
        return "d4:1+4n=3^b*5^c"
    if d == 4 and (u, alpha) == (0, 3) and _is_power_of(top, 7):
        return "d4:3+4n=7^y"
    return None


# ---------------------------------------------------------------------------
# 2-adic handler: d = 3, top linear factor a power of two
# ---------------------------------------------------------------------------

def special_2adic_certify(cache: PolygonCache,
                          ledger: DegreeLedger) -> str | None:
    """Low-degree exclusions from the 2-adic polygon when d = 3 and the top
    linear factor is a power of two 2^a (witness primes are structurally
    unavailable there); its margins are read on the ones carrier, so
    _stages yields it only for odd seed endpoints.  The p = 2 polygons and
    admissible degrees come from the run's cache.  The record gives
    a = nu_2(top), eta = [alpha != 1], s = (a - eta) / 2 and the carrier
    polygon's vertices as read: the tests check those vertices against
    the paper's closed form for the breaks (in tests/oracles.py), so a run
    does not.  Claims the degrees it could certify, which may be a proper
    subset of [1, delta]; returns a note when s < 1 or when nothing at all
    is certified."""
    params = cache.params
    a = nu(2, params.top_term)
    eta = int(params.alpha != 1)
    s = (a - eta) // 2
    if s < 1:
        return f"top factor {params.top_term} too small (s={s})"
    carrier_poly = cache.polygon(2, "ones")
    seeded_admissible = cache.admissible(2, "self")
    degrees = 0
    margins: dict[int, int] = {}
    for K in range(1, params.delta + 1):
        r = viable_margin(carrier_poly, K)
        if r is not None:
            margins[K] = r
        if r is not None or not (seeded_admissible >> K) & 1:
            degrees |= 1 << K
    if not degrees:
        return "2-adic polygon excluded no low degree"
    ledger.claim(Method.SPECIAL_2ADIC, degrees, 2, {
        "prime": 2, "eta": eta, "s": s, "a": a,
        "vertices": list(carrier_poly.vertex_xs()),
        "margins": {str(K): r for K, r in sorted(margins.items())},
        "min_slope": str(carrier_poly.min_slope),
        "max_slope": str(carrier_poly.max_slope),
    })


# ---------------------------------------------------------------------------
# 3-adic handler: d = 4, q in {-3/4, 3/4}, top factor divisible by 3
# ---------------------------------------------------------------------------

_THREE_ADIC_FAMILIES = {(-1, 1): (3, 3), (0, 3): (3, 5)}


def special_3adic_check(params: GhlParams) -> bool:
    """Family-level inequality behind the 3-adic window for d=4: the 3-adic
    content of the bottom product of 3+3s linear factors stays below
    3(s+1) for every s >= 0.  s = 0..3 are evaluated exactly; beyond that
    the count of multiples of 3, 9, ... in the arithmetic block is bounded
    by (s+1)/2 + log_3(l0+4s), so (l0+4s)^2 < 27^(s+1) suffices.  From
    s = 4 on, the left side grows by a factor below 27 per step and the
    right side by exactly 27, so that inequality holds for every s >= 4
    once it holds at s = 4: (l0+16)^2 < 27^5.  Defined for the instances
    _stages yields the 3-adic handler for: d = 4, (u, alpha) a key of
    _THREE_ADIC_FAMILIES, 3 dividing the top linear factor.  The block
    contents are the prefix sums of the family's TermTable at p = 3."""
    j0, l0 = _THREE_ADIC_FAMILIES[params.u, params.alpha]
    sums = term_table(4, params.u, params.alpha).valuation_sums(3, j0 + 9)
    return (all(sums[j0 + 3 * s] < 3 * (s + 1) for s in range(4))
            and (l0 + 16) ** 2 < 27 ** 5)


# ---------------------------------------------------------------------------
# Own-prime polygon handler for binomial-seeded exceptional instances
# ---------------------------------------------------------------------------

def laguerre_np_certify(cache: PolygonCache,
                        ledger: DegreeLedger) -> str | None:
    """For a binomial-seeded instance in an exceptional family with
    delta == d (the instances _stages yields this handler for), take the
    polygon of G(x^d) at the largest prime divisor p of n that divides
    neither the top factor nor term(-1)*term(0)*term(1) = d(q-1)*dq*d(q+1),
    and exclude every degree outside its lattice-admissible set, the delta
    stage's rule, sound at any p.  The polygon and its admissible set come
    from the run's cache.  At a flat p (see PolygonCache.flat) the polygon
    is one slope-0 edge, so degree d stays admissible and none is built.
    Returns a note when no such p exists or degree d stays admissible."""
    params = cache.params
    d, n = params.d, params.n
    low = ((params.alpha + (params.u - 1) * d)
           * (params.alpha + params.u * d)
           * (params.alpha + (params.u + 1) * d))
    # the run's candidate primes hold every prime divisor of n
    candidates = [p for p in cache.primes
                  if n % p == 0 and params.top_term % p and low % p]
    if not candidates:
        return (f"no prime divisor of n={n} avoids the top factor "
                f"{params.top_term} and the low factors {abs(low)}")
    p = max(candidates)
    if cache.flat(p):
        return (f"degree {d} stays lattice-admissible at p={p} "
                f"(vertices [0, {n}])")
    poly = cache.polygon(p, "self")
    admissible = cache.admissible(p, "self")
    # polygon_from_params takes its vertices at multiples of delta == d
    xs = [x // d for x in poly.vertex_xs()]
    if (admissible >> d) & 1:
        return (f"degree {d} stays lattice-admissible at p={p} "
                f"(vertices {xs})")
    # p | n forces n >= 2, so the inadmissible d < dn keeps this nonempty
    ledger.claim(Method.LAGUERRE_NP, ((1 << d * n) - 2) & ~admissible, p,
                 {"prime": p, "vertices": xs,
                  "min_slope": str(poly.min_slope),
                  "max_slope": str(poly.max_slope)})


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

def _runs(degrees):
    """Maximal consecutive runs of a sorted integer tuple, as [lo, hi]."""
    out = []
    for k in degrees:
        if out and k == out[-1][1] + 1:
            out[-1][1] = k
        else:
            out.append([k, k])
    return out


class Certificate(namedtuple("Certificate", "params seed records residual "
                                          "verdict notes", defaults=((),))):
    """One certification run: instance, seed, records, residual, verdict."""

    __slots__ = ()

    @property
    def total_degree(self) -> int:
        return self.params.delta * self.params.n

    def _params_dict(self) -> dict:
        p = self.params
        return {"d": p.d, "u": p.u, "alpha": p.alpha, "n": p.n,
                "delta": p.delta, "q": str(p.q),
                "total_degree": self.total_degree}

    def to_json_dict(self) -> dict:
        """The written certificate read back: json_pieces' text, parsed."""
        return json.loads("".join(self.json_pieces()))

    def json_pieces(self, pad: str = "\n") -> list:
        """The certificate's JSON text, as json.dumps(..., sort_keys=True,
        indent=2) writes it, each newline written as pad (a newline and the
        certificate's indentation), in five pieces: head, records, middle,
        seed values, tail; records and values are one join each, never
        copied again.  A record gives an entry per run [lo, hi] of its
        degrees, in order of lo: fixed layout pieces and the digits of its
        small ints (jsontext.decimals), in the slot of lo.  The witness
        record's entries are, for each k with a prime, its window
        [delta*k-delta+1, delta*k] and the mirror, or one entry where they
        meet or touch at the centre, with evidence {"k", "window"}; entries
        that cover other than len(rec.degrees) degrees raise
        CertificationInternalError.  C(n, j) = C(n, n-j): a seed value a_j,
        j > n/2, takes the digits of a_{n-j} when a_j = +-a_{n-j}."""
        i1, i2 = pad + "  ", pad + "    "
        i3, i4 = i2 + "  ", i2 + "    "
        m = self.total_degree
        digits = decimals(m)
        slots = [""] * m
        # an entry is pre, the run's lo, comma, its hi, post
        head = "{" + i3 + '"evidence": '
        k_range, comma = "," + i3 + '"k_range": [' + i4, "," + i4
        for rec in self.records:
            method = (i3 + "]," + i3 + '"method": '
                      + encode_str(rec.method.value) + "," + i3 + '"prime": ')
            if rec.method is not Method.WITNESS_PRIME:
                pre = head + encode(rec.evidence, i3) + k_range
                post = method + encode(rec.prime, i3) + i2 + "}"
                for lo, hi in _runs(rec.degrees):
                    slots[lo] = f"{pre}{digits[lo]}{comma}{digits[hi]}{post}"
                continue
            delta, covered = self.params.delta, 0
            k_at = head + "{" + i4 + '"k": '
            window_at = "," + i4 + '"window": [' + i4 + "  "
            window_hi = "," + i4 + "  "
            window_end = i4 + "]" + i3 + "}" + k_range
            for k, p in enumerate(rec.evidence["primes"], 1):
                if p is None:
                    continue
                hi = delta * k
                lo = hi - delta + 1
                low, high = digits[lo], digits[hi]
                pre = (f"{k_at}{digits[k]}{window_at}{low}{window_hi}{high}"
                       f"{window_end}")
                post = f"{method}{p}{i2}}}"
                if m - hi <= hi + 1:
                    slots[lo] = f"{pre}{low}{comma}{digits[m - lo]}{post}"
                    covered += m - 2 * lo + 1
                else:
                    slots[lo] = f"{pre}{low}{comma}{high}{post}"
                    slots[m - hi] = (f"{pre}{digits[m - hi]}{comma}"
                                     f"{digits[m - lo]}{post}")
                    covered += 2 * delta
            if covered != len(rec.degrees):
                raise CertificationInternalError(
                    f"witness windows miss the record's {len(rec.degrees)} "
                    "degrees")
        seed, n = self.seed.values, len(self.seed.values) - 1
        values = [encode_int(v) for v in seed[:n // 2 + 1]]
        for j in range(n // 2 + 1, n + 1):
            v, w, s = seed[j], seed[n - j], values[n - j]
            if v != w:
                s = (s[1:] if w < 0 else "-" + s) if v == -w else encode_int(v)
            values.append(s)
        records = ("," + i2).join(filter(None, slots))
        values = ("," + i2 + "  ").join(values)
        return [f'{{{i1}"notes": {encode(list(self.notes), i1)},{i1}"params": '
                f'{encode(self._params_dict(), i1)},{i1}"records": '
                + ("[" + i2 if records else "[]"), records,
                (i1 + "]" if records else "")
                + f',{i1}"residual": {encode(list(self.residual), i1)},{i1}'
                f'"schema_version": 1,{i1}"seed": {{{i2}"kind": '
                f'{encode_str(self.seed.kind)},{i2}"values": '
                + ("[" + i2 + "  " if values else "[]"), values,
                (i2 + "]" if values else "") + f'{i1}}},{i1}"verdict": '
                f'{encode_str(self.verdict.value)}{pad}}}']


def _check_hypotheses(params: GhlParams, seed: SeedCoefficients) -> None:
    """u in {-1, 0} and a seed of n + 1 values; any nonzero endpoints, at
    every d (a handler's own precondition is a runs-when test of _stages)."""
    if params.u not in (-1, 0):
        raise HypothesisViolation(f"u must be -1 or 0, got {params.u}")
    if len(seed.values) != params.n + 1:
        raise HypothesisViolation(
            f"seed length {len(seed.values)} does not match n={params.n}")


def _three_adic_stage(cache: PolygonCache,
                      ledger: DegreeLedger) -> str | None:
    """Once the family inequality holds, record the flat-tail window at
    p=3 of the seeded polygon, the first that cache.carriers(3) yields, as
    a SPECIAL_3ADIC claim; with no degree open it builds no polygon.  3 |
    top divides the constant coefficient, so it ends above height 0.  The
    ones window is never wider: if 3 divides a seed endpoint no ones
    polygon is yielded, else the seeded polygon has its endpoints and lies
    on or above it (README, the Dumas lemma), so its last slope is no
    larger, every later ordinate no smaller, and widest_window(seeded, 0)
    >= widest_window(ones, 0) when the right side is not None."""
    if not special_3adic_check(cache.params):
        return "family inequalities failed"
    carrier, poly = next(cache.carriers(3) if ledger.remaining else iter(()),
                         (None, None))
    k = None if poly is None else widest_window(poly, 0)
    if k is not None and ledger.claim(
            Method.SPECIAL_3ADIC, (2 << k) - 2, 3,
            {"prime": 3, "carrier": carrier, "k": k,
             "max_slope": str(poly.max_slope)}) is not None:
        return None
    return "window at p=3 excluded nothing new"


def _degree_set_stage(cache: PolygonCache, ledger: DegreeLedger) -> None:
    """The degree-set stage on the instance's substituted polynomial,
    built only while degrees remain open."""
    if ledger.remaining:
        degree_set_stage(build_substituted(cache.params, cache.seed),
                         ledger, cache.primes)


def _stages(cache: PolygonCache, degree_sets: bool):
    """Yield (name, stage) for each stage that applies to the run, in the
    order full_certify runs them: the one place that decides which special
    handler applies.  The handlers argue about G(x^d), so they run at
    delta == d only (at delta == 1 the delta stage covers them: README,
    "the lift inclusion"); the 2-adic one reads margins on the ones
    carrier, so it runs only when cache.seed_coprime(2).  Each stage is
    read from this module's global name when the generator reaches it, so
    rebinding that name (a tracer, a test double) sees it."""
    params = cache.params
    d, top = params.d, params.top_term
    yield "witness", witness_stage
    if params.delta == d:
        if d == 3 and _is_power_of(top, 2) and cache.seed_coprime(2):
            yield "2-adic handler", special_2adic_certify
        if (d == 4 and (params.u, params.alpha) in _THREE_ADIC_FAMILIES
                and top % 3 == 0):
            yield "3-adic handler", _three_adic_stage
        if cache.seed.kind == "laguerre" and exception_family(params):
            yield "own-prime handler", laguerre_np_certify
    yield "delta", delta_stage
    if degree_sets:
        yield "degree-set", _degree_set_stage


def full_certify(params: GhlParams, seed: SeedCoefficients, *,
                 degree_sets: bool = False) -> Certificate:
    """Run every stage that _stages yields, in order, on one PolygonCache
    and one DegreeLedger, and assemble a certificate.  A stage's note
    becomes a certificate note headed by the stage name.  The degree-set
    stage runs only with degree_sets=True and while degrees remain open;
    it is off by default, and the CLI leaves it off."""
    _check_hypotheses(params, seed)
    cache = PolygonCache(params, seed)
    ledger = DegreeLedger(params.delta * params.n)
    notes: list[str] = []
    for name, stage in _stages(cache, degree_sets):
        note = stage(cache, ledger)
        if note:
            notes.append(f"{name}: {note}")

    residual = degrees_of(ledger.remaining)
    if not residual:
        verdict = Verdict.IRREDUCIBLE_CERTIFIED
    elif exception_family(params) is not None:
        verdict = Verdict.EXCEPTIONAL_FAMILY
    else:
        verdict = Verdict.EXCLUSIONS_ONLY
    return Certificate(params=params, seed=seed, records=tuple(ledger.records),
                       residual=residual, verdict=verdict, notes=tuple(notes))

