"""Exact arithmetic in graded-commutative finitely presented algebras.

A presentation fixes an ordered list of generators with integer degrees, a
base coefficient mode (integers, p-local rationals, or a prime field),
rewrite rules, a set of inverted generators, and a truncation bound D.
Elements are kept in a canonical normal form: fully rewritten, monomials
sorted, no zero coefficients, no term of weight > D, and away from
characteristic 2 no odd-degree generator to a power >= 2 (it squares to
zero by graded commutativity).

Rewrite rules come in three normalized shapes, keyed by a generator g:
  * eliminable  g   -> polynomial in strictly earlier generators
  * kill        g   -> 0
  * power       g^k -> polynomial in g (exponent < k) and earlier generators
Rewriting terminates because each step strictly decreases the pair
(generator index, exponent at that index) in lexicographic order.

Truncation uses the *weight* of a monomial: the degree contributed by the
non-inverted generators only.  For presentations without inverted
generators weight equals degree; for localized algebras it makes every
degree piece finite while staying multiplicative.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    DegreeError,
    IllegalExponent,
    InfiniteBasis,
    InputError,
    IntegralityFailure,
    PresentationMismatch,
    SolveFailure,
)


def _canonical(c):
    """A Fraction with denominator 1 as its numerator, anything else as is."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


@dataclass(frozen=True)
class BaseMode:
    """Coefficient universe: "int" (Python ints), "plocal" (exact rationals
    with p-locality asserted at API boundaries), or "fp" (residues 0..p-1).

    A "plocal" coefficient is kept in canonical form: a Python int when it
    is integral, a Fraction otherwise.  `coerce`, `add`, `mul` and `inv`
    return that form.  Every coefficient of a p-local ring has a
    denominator prime to p; only intermediate values, such as the
    Hazewinkel logs, carry powers of p.  An int and a Fraction of equal
    value compare and hash equal and print alike, so the form changes no
    answer; it only spares the integral case the cost of Fraction
    arithmetic."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("int", "plocal", "fp"):
            raise InputError(f"unknown base mode {self.kind!r}")
        if self.kind in ("plocal", "fp") and (self.p is None or self.p < 2):
            raise InputError("modes plocal/fp need a prime p")

    @property
    def characteristic(self):
        return self.p if self.kind == "fp" else 0

    def coerce(self, c):
        if self.kind == "fp":
            if isinstance(c, Fraction):
                num, den = c.numerator, c.denominator
                if den % self.p == 0:
                    raise IntegralityFailure(f"denominator of {c} not a unit mod {self.p}")
                return (num * pow(den, -1, self.p)) % self.p
            return c % self.p
        if self.kind == "plocal":
            if type(c) is int:
                return c
            return _canonical(Fraction(c))
        if isinstance(c, Fraction):
            if c.denominator != 1:
                raise IntegralityFailure(f"non-integer coefficient {c} in integer mode")
            return c.numerator
        return int(c)

    # int-mode values are ints, so _canonical leaves them alone
    def add(self, a, b):
        s = a + b
        return s % self.p if self.kind == "fp" else _canonical(s)

    def mul(self, a, b):
        s = a * b
        return s % self.p if self.kind == "fp" else _canonical(s)

    def neg(self, a):
        return (-a) % self.p if self.kind == "fp" else -a

    def inv(self, a):
        """The inverse of a unit; SolveFailure for a non-unit (in "plocal"
        mode: a value whose numerator p divides)."""
        if self.kind == "fp":
            return pow(a, -1, self.p)
        if self.kind == "plocal":
            if Fraction(a).numerator % self.p == 0:
                raise SolveFailure(f"{a} is not a unit of Z_({self.p})")
            return _canonical(1 / Fraction(a))
        if a in (1, -1):
            return a
        raise SolveFailure(f"{a} not invertible in integer mode")


# rule kinds: power == 1 means eliminable (rhs nonzero) or kill (rhs empty)
@dataclass(frozen=True)
class Rule:
    power: int
    rhs: tuple  # tuple of (coeff, exponent-tuple), raw form


class GradedPresentation:
    """A graded-commutative algebra given by generators, rules, inversions
    and a truncation bound.  Immutable after construction."""

    def __init__(self, mode, generators, relations=None, inverted=(), truncation=64, name=""):
        self.mode = mode
        self.gens = tuple((str(n), int(d)) for n, d in generators)
        self.names = tuple(n for n, _ in self.gens)
        self.degrees = tuple(d for _, d in self.gens)
        if len(set(self.names)) != len(self.names):
            raise InputError("duplicate generator names")
        self.index = {n: i for i, n in enumerate(self.names)}
        self.truncation = int(truncation)
        self.name = name
        inv = set()
        for g in inverted:
            inv.add(g if isinstance(g, int) else self.index[g])
        self.inverted = frozenset(inv)
        # the degrees that count towards a monomial's weight
        self._weight_degrees = tuple(
            0 if i in self.inverted else d for i, d in enumerate(self.degrees)
        )
        rules = {}
        for key, val in (relations or {}).items():
            i = key if isinstance(key, int) else self.index[key]
            if isinstance(val, Rule):
                rules[i] = val
            else:
                power, rhs = val
                rules[i] = Rule(int(power), tuple((c, tuple(m)) for c, m in rhs))
        self.rules = rules
        # no rule and no inverted generator: `normalize_terms` needs no
        # `_first_violation` scan for a monomial without negative exponents
        self._plain = not rules and not self.inverted
        self._odd = tuple(i for i, d in enumerate(self.degrees) if d % 2 != 0)
        # an odd generator squares to zero away from characteristic 2
        self._odd_square_zero = self._odd if mode.characteristic != 2 else ()
        self._validate()
        self._basis_cache = {}
        self._nf_rhs_cache = {}

    def _validate(self):
        n = len(self.gens)
        for i, rule in self.rules.items():
            if i in self.inverted:
                raise InputError(f"inverted generator {self.names[i]} may not carry a rule")
            if rule.power < 1:
                raise InputError("rule power must be >= 1")
            lhs_deg = rule.power * self.degrees[i]
            for c, m in rule.rhs:
                if len(m) != n:
                    raise InputError("rule monomial has wrong length")
                if sum(e * d for e, d in zip(m, self.degrees)) != lhs_deg:
                    raise DegreeError(
                        f"inhomogeneous rule for {self.names[i]}^{rule.power}"
                    )
                for j, e in enumerate(m):
                    if e < 0:
                        raise IllegalExponent("negative exponent in rule RHS")
                    if e and j > i:
                        raise InputError(
                            f"rule for {self.names[i]} references later generator {self.names[j]}"
                        )
                    if j == i and e >= rule.power:
                        raise InputError(
                            f"rule for {self.names[i]} not exponent-decreasing"
                        )

    # -- monomial helpers -------------------------------------------------

    def monomial_degree(self, m):
        return sum(map(operator.mul, m, self.degrees))

    def weight(self, m):
        return sum(map(operator.mul, m, self._weight_degrees))

    def _mul_mono(self, m1, m2):
        """Merge two exponent vectors with the Koszul sign.

        Returns (sign, monomial) or None when an odd generator squares to
        zero (characteristic != 2)."""
        sign = 0
        if self._odd:
            # moving each odd factor of m2 past the odd factors of m1 that
            # sit at strictly larger generator indices
            total1 = sum(m1[i] for i in self._odd)
            seen1 = 0
            for i in self._odd:
                e1, e2 = m1[i], m2[i]
                seen1 += e1
                if e2:
                    sign += e2 * (total1 - seen1)
                if self._odd_square_zero and e1 + e2 >= 2:
                    return None
        mono = tuple(map(operator.add, m1, m2))
        return (-1) ** (sign % 2), mono

    # -- normalization ----------------------------------------------------

    def _first_violation(self, m):
        """Highest generator index where m breaks a rule or inversion."""
        for i in range(len(m) - 1, -1, -1):
            e = m[i]
            if e == 0:
                continue
            rule = self.rules.get(i)
            if rule is not None and (e < 0 or e >= rule.power):
                return i
            if e < 0 and i not in self.inverted:
                raise IllegalExponent(
                    f"negative power of non-inverted generator {self.names[i]}"
                )
        return None

    def normalize_terms(self, raw):
        """Normalize an iterable of (coefficient, exponent-tuple) pairs.

        Returns (terms dict, truncated flag)."""
        mode = self.mode
        plain = self._plain
        square_zero = self._odd_square_zero
        out = {}
        truncated = False
        stack = [(mode.coerce(c), tuple(m)) for c, m in raw]
        while stack:
            c, m = stack.pop()
            if c == 0:
                continue
            if plain and min(m, default=0) >= 0:
                i = None  # only a negative exponent breaks a plain form
            else:
                i = self._first_violation(m)
            if i is None:
                if square_zero and any(m[j] >= 2 for j in square_zero):
                    continue
                if self.weight(m) > self.truncation:
                    truncated = True
                    continue
                acc = out.get(m)
                if acc is None:
                    out[m] = c
                else:
                    s = mode.add(acc, c)
                    if s == 0:
                        del out[m]
                    else:
                        out[m] = s
                continue
            rule = self.rules[i]
            if m[i] < 0:
                raise IllegalExponent(
                    f"negative power of generator {self.names[i]} with a rule"
                )
            # strip one instance of the rule's LHS and multiply by its RHS
            base = list(m)
            base[i] -= rule.power
            base = tuple(base)
            for c2, m2 in rule.rhs:
                res = self._mul_mono(base, m2)
                if res is None:
                    continue
                sgn, mono = res
                cc = mode.mul(c, mode.coerce(c2))
                if sgn < 0:
                    cc = mode.neg(cc)
                stack.append((cc, mono))
        return out, truncated

    # -- element constructors --------------------------------------------

    def element(self, raw, truncated=False):
        terms, trunc = self.normalize_terms(raw)
        return Element(self, terms, truncated or trunc)

    def zero(self):
        return Element(self, {}, False)

    def one(self):
        return self.scalar(1)

    def scalar(self, c):
        c = self.mode.coerce(c)
        unit = (0,) * len(self.gens)
        return Element(self, {unit: c} if c != 0 else {}, False)

    def gen(self, g):
        i = g if isinstance(g, int) else self.index[g]
        mono = tuple(1 if j == i else 0 for j in range(len(self.gens)))
        return self.element([(1, mono)])

    def monomial_element(self, m, c=1):
        return self.element([(c, tuple(m))])

    # -- degree basis ------------------------------------------------------

    def degree_basis(self, t, cap=None):
        """All normal-form monomials of degree exactly t and weight <= cap
        (default: the truncation bound), in deterministic order."""
        key = (t, cap)
        cached = self._basis_cache.get(key)
        if cached is not None:
            return cached
        factors = []
        inv_free = []
        for i, d in enumerate(self.degrees):
            rule = self.rules.get(i)
            limit = rule.power if rule is not None else None
            if i in self._odd_square_zero:
                limit = 2 if limit is None else min(limit, 2)
            if i in self.inverted:
                inv_free.append(i)
            elif limit is not None:
                factors.append((i, d, limit))
            elif d <= 0:
                raise InfiniteBasis(
                    f"free non-inverted generator {self.names[i]} of degree {d}"
                )
            else:
                factors.append((i, d, None))
        if len(inv_free) > 1:
            raise InfiniteBasis("two or more inverted generators")
        if inv_free and self.degrees[inv_free[0]] == 0:
            raise InfiniteBasis(
                f"inverted degree-0 generator {self.names[inv_free[0]]}"
            )
        D = self.truncation if cap is None else min(cap, self.truncation)
        result = []
        # the inverted generator has weight 0: solve for its exponent
        for m in exponent_vectors(len(self.gens), factors, D):
            rem = t - self.monomial_degree(m)
            if inv_free:
                i0 = inv_free[0]
                q, r = divmod(rem, self.degrees[i0])
                if r == 0:
                    result.append(m[:i0] + (q,) + m[i0 + 1:])
            elif rem == 0:
                result.append(m)
        result.sort()
        self._basis_cache[key] = result
        return result

    # -- misc --------------------------------------------------------------

    def format_monomial(self, m):
        parts = []
        for i, e in enumerate(m):
            if e == 0:
                continue
            if e == 1:
                parts.append(self.names[i])
            else:
                parts.append(f"{self.names[i]}^{e}")
        return "*".join(parts) if parts else "1"

    def fingerprint(self):
        rules = sorted(
            (i, r.power, tuple(sorted((str(c), m) for c, m in r.rhs)))
            for i, r in self.rules.items()
        )
        return (
            self.mode.kind,
            self.mode.p,
            self.gens,
            tuple(rules),
            tuple(sorted(self.inverted)),
            self.truncation,
        )

    def __repr__(self):
        label = self.name or "presentation"
        return f"<{label}: {len(self.gens)} gens, {self.mode.kind}>"


def exponent_vectors(n, factors, cap):
    """Every exponent vector of length n that is zero outside `factors`, a
    list of (index, weight, limit), with e_i < limit (None: no limit) and
    sum of e_i * weight_i <= cap, sorted.

    Negative-weight factors are enumerated first, so once they are fixed
    no partial sum exceeds the final weight and the cap can prune.  A
    factor without a limit needs a positive weight; InfiniteBasis
    otherwise."""
    vectors = [((0,) * n, 0)]
    for i, weight, limit in sorted(factors, key=lambda f: f[1] >= 0):
        if limit is None and weight <= 0:
            raise InfiniteBasis(f"unbounded exponent {i} of weight {weight}")
        grown = []
        for vec, w in vectors:
            e = 0
            while (limit is None or e < limit) and (weight < 0 or w <= cap):
                grown.append((vec[:i] + (e,) + vec[i + 1:], w))
                e += 1
                w += weight
        vectors = grown
    return sorted(vec for vec, w in vectors if w <= cap)


def _accumulate(terms, other, add):
    """terms += other for two term dicts, in place; a sum that is zero
    drops its monomial."""
    for m, c in other.items():
        acc = terms.get(m)
        if acc is None:
            terms[m] = c
        else:
            s = add(acc, c)
            if s == 0:
                del terms[m]
            else:
                terms[m] = s


class Element:
    """A normal-form element of a GradedPresentation."""

    __slots__ = ("pres", "terms", "truncated")

    def __init__(self, pres, terms, truncated=False):
        self.pres = pres
        self.terms = terms
        self.truncated = truncated

    def _check(self, other):
        if self.pres is not other.pres:
            raise PresentationMismatch(
                f"{self.pres!r} vs {other.pres!r}"
            )

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        _accumulate(terms, other.terms, self.pres.mode.add)
        return Element(self.pres, terms, self.truncated or other.truncated)

    def __neg__(self):
        mode = self.pres.mode
        return Element(
            self.pres, {m: mode.neg(c) for m, c in self.terms.items()}, self.truncated
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, Element):
            return self.scale(other)
        self._check(other)
        mode = self.pres.mode
        raw = []
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                res = self.pres._mul_mono(m1, m2)
                if res is None:
                    continue
                sgn, mono = res
                c = mode.mul(c1, c2)
                if sgn < 0:
                    c = mode.neg(c)
                raw.append((c, mono))
        terms, trunc = self.pres.normalize_terms(raw)
        return Element(self.pres, terms, self.truncated or other.truncated or trunc)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c):
        mode = self.pres.mode
        c = mode.coerce(c)
        if c == 0:
            return Element(self.pres, {}, self.truncated)
        return Element(
            self.pres, {m: mode.mul(cc, c) for m, cc in self.terms.items()}, self.truncated
        )

    def __pow__(self, e):
        if e < 0:
            inv = invert_element(self)
            if inv is None:
                raise SolveFailure("element is not a unit")
            return inv ** (-e)
        result = self.pres.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.pres is other.pres and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.pres), tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Degree of a homogeneous element; DegreeError if mixed, None if 0."""
        degs = {self.pres.monomial_degree(m) for m in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise DegreeError(f"inhomogeneous element {self}")
        return degs.pop()

    def coefficient(self, m):
        return self.terms.get(tuple(m), 0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            mono = self.pres.format_monomial(m)
            if mono == "1":
                parts.append(str(c))
            elif c == 1:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts)


def invert_element(x):
    """Inverse of a homogeneous unit, or None.

    Fast path: a single term whose monomial only involves inverted
    generators.  Otherwise solve u*x = 1 by linear algebra on the degree
    basis of degree -deg(x)."""
    P = x.pres
    if x.is_zero():
        return None
    if len(x.terms) == 1:
        (m, c), = x.terms.items()
        if all(e == 0 or i in P.inverted for i, e in enumerate(m)):
            try:
                cinv = P.mode.inv(c)
            except (SolveFailure, ZeroDivisionError):
                return None
            return P.monomial_element(tuple(-e for e in m), cinv)
    try:
        d = x.degree()
    except DegreeError:
        return None
    if d is None:
        d = 0
    try:
        cand = P.degree_basis(-d)
        target_basis = P.degree_basis(0)
    except InfiniteBasis:
        return None
    unit = (0,) * len(P.gens)
    if not cand or unit not in target_basis:
        return None
    # columns: products x * b_j in the degree-0 basis; the solution must
    # lie in the base ring (integral, or p-integral), else x is no unit
    cols, outside = coordinates(
        (x * P.monomial_element(b) for b in cand), target_basis
    )
    if outside is not None:
        return None
    sol = linalg.solve(cols, {target_basis.index(unit): 1}, P.mode)
    if sol is None:
        return None
    return P.element([(c, b) for b, c in zip(cand, sol) if c != 0])


def coordinates(elements, basis):
    """The coordinates of `elements` in `basis`, a list of monomials: one
    dict {position in basis: coefficient} per element, and None; or None
    and the first monomial of an element that `basis` lacks."""
    pos = {m: r for r, m in enumerate(basis)}
    cols = []
    for x in elements:
        col = {}
        for m, c in x.terms.items():
            r = pos.get(m)
            if r is None:
                return None, m
            col[r] = c
        cols.append(col)
    return cols, None


class RingMorphism:
    """A degree-preserving algebra map given by generator images.

    `monomial` is the one routine that multiplies out generator images.
    Calling the morphism on an element sums the images of its terms into
    one dict, through one power table {(i, e): image_i^e} kept for that
    call only: every term reuses the powers an earlier term built, and the
    table is dropped when the call returns.  The inverse of an inverted generator's image is
    computed once and cached for the morphism's lifetime."""

    def __init__(self, source, target, images, name="", check_degrees=True):
        self.source = source
        self.target = target
        self.images = tuple(images)
        self.name = name
        if len(self.images) != len(source.gens):
            raise InputError("one image per source generator required")
        if check_degrees:
            for (gname, gdeg), img in zip(source.gens, self.images):
                if img.is_zero():
                    continue
                if img.degree() != gdeg:
                    raise DegreeError(
                        f"image of {gname} has degree {img.degree()}, expected {gdeg}"
                    )
        self._inv_cache = {}

    def image(self, g):
        i = g if isinstance(g, int) else self.source.index[g]
        return self.images[i]

    def monomial(self, m, c=1):
        """The image of c*x^m, built from the generator images alone.

        m is never normalized in the source, so it may lie past the
        source's truncation bound.  A negative exponent needs the image of
        that generator to be a unit; SolveFailure otherwise."""
        return self._monomial(m, c, {})

    def _monomial(self, m, c, powers):
        """`monomial`, reading and filling the power table `powers`."""
        prod = self.target.scalar(c)
        for i, e in enumerate(m):
            if e == 0:
                continue
            power = powers.get((i, e))
            if power is None:
                if e > 0:
                    power = self.images[i] ** e
                else:
                    inv = self._inv_cache.get(i)
                    if inv is None:
                        inv = invert_element(self.images[i])
                        if inv is None:
                            raise SolveFailure(
                                f"image of {self.source.names[i]} is not a unit"
                            )
                        self._inv_cache[i] = inv
                    power = inv ** (-e)
                powers[(i, e)] = power
            prod = prod * power
        return prod

    def __call__(self, elem):
        if elem.pres is not self.source:
            raise PresentationMismatch("element not in the morphism's source")
        add = self.target.mode.add
        powers = {}
        terms = {}
        truncated = elem.truncated
        for m, c in elem.terms.items():
            image = self._monomial(m, c, powers)
            truncated = truncated or image.truncated
            _accumulate(terms, image.terms, add)
        return Element(self.target, terms, truncated)

    def __repr__(self):
        return f"<morphism {self.name or '?'}: {self.source!r} -> {self.target!r}>"


def identity_morphism(P):
    return RingMorphism(P, P, [P.gen(i) for i in range(len(P.gens))], name="id")


def assert_p_integral(elem, p):
    """Check denominators are coprime to p (plocal mode boundary assertion)."""
    for m, c in elem.terms.items():
        if isinstance(c, Fraction) and c.denominator % p == 0:
            raise IntegralityFailure(
                f"coefficient {c} of {elem.pres.format_monomial(m)} not {p}-integral"
            )
    return elem


def reduce_mod(elem, target):
    """Reinterpret an element in a presentation with the same generator list
    (possibly different mode/rules) and normalize there."""
    if len(target.gens) != len(elem.pres.gens):
        raise PresentationMismatch("generator count mismatch")
    return target.element(list((c, m) for m, c in elem.terms.items()))
