"""Finite-ring oracle.

Evaluating (Spec A, Spec Gamma) at a small finite ring R yields a literal
groupoid: objects are ring maps A -> R, morphisms are ring maps
Gamma -> R, with dom/cod by precomposition with eta_L/eta_R and
composition through the diagonal.  Grading is forgotten; the oracle
samples the ungraded statements on a fixed catalog of test rings and can
only falsify or corroborate, never prove.  A test ring is tabulated from
its elements and two Python operations on them (`_from_elements`).

Points are found by trying every assignment of generators to R-elements.
One budget bounds both the assignments, |R|^#gens, and the composites,
counted from dom and cod before any is formed.  Each polynomial that is
evaluated at many points (a relation, a structure map, a map of
algebroids) is compiled once per ring into table lookups: a scalar image
and one power row per generator factor.  Morphisms are indexed by
domain, so composition and the associativity check visit only composable
pairs and triples.  Delta is split by its right-factor monomials, so a
composite is a sum of table lookups, and associativity is checked one
row of composites at a time.  Each algebroid stores its groupoids, one
per (ring, budget), and frees them with itself; the catalog rings are
built once and shared, so every call finds the same entries.  A stored
groupoid is shared: it is immutable.

The same module houses the finite-instance descent checker: for a family
of R-algebras S_i (char p throughout) and a finite R-module M it verifies
that M -> prod_i S_i (x) M  is the equalizer of the two coface maps into
prod_{i,j} S_i (x) S_j (x) M.  Everything there is an F_p-vector space,
and the check is exact linear algebra through `linalg`: a rank and a
kernel, never an enumeration of vectors.  Its one vector format is the
dict column {index: residue} that `linalg` eliminates and multiplies
(`linalg.apply`): coordinates, the action of a ring element (the images
of the basis vectors), projections to a quotient and the descent maps.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from . import linalg
from .errors import (
    AxiomFailure,
    InputError,
    NotACover,
    SearchBudgetExceeded,
    Verdict,
)

DEFAULT_BUDGET = 10 ** 6


# ---------------------------------------------------------------------------
# finite rings


class FiniteRing:
    """A commutative unital ring on carrier {0..n-1} given by tables.

    All axioms are checked at construction; `units` maps each unit to its
    inverse.  Element display names default to their indices."""

    def __init__(self, add, mul, one, names=None, name=""):
        self.n = len(add)
        self.add = tuple(tuple(r) for r in add)
        self.mul = tuple(tuple(r) for r in mul)
        self.zero = 0
        self.one = one
        self.name = name
        self.names = list(names) if names else [str(i) for i in range(self.n)]
        self._validate()
        self.units = {}
        for a in range(self.n):
            for b in range(self.n):
                if self.mul[a][b] == self.one:
                    self.units[a] = b
        self.neg = [0] * self.n
        for a in range(self.n):
            for b in range(self.n):
                if self.add[a][b] == self.zero:
                    self.neg[a] = b
        # additive order of 1
        c, k = self.one, 1
        while c != self.zero:
            c = self.add[c][self.one]
            k += 1
        self.char = k
        self._scalars = {}
        self._power_rows = {}

    def _validate(self):
        n, add, mul = self.n, self.add, self.mul
        for a in range(n):
            if add[a][self.zero] != a:
                raise InputError("0 is not an additive identity")
            if mul[a][self.one] != a:
                raise InputError("1 is not a multiplicative identity")
            if mul[a][self.zero] != self.zero:
                raise InputError("0 does not absorb")
            if not any(add[a][b] == self.zero for b in range(n)):
                raise InputError("missing additive inverse")
        for a in range(n):
            for b in range(n):
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise InputError("tables not commutative")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise InputError("addition not associative")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise InputError("multiplication not associative")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise InputError("distributivity fails")

    def scalar(self, c):
        """The image of an integer or p-local rational in this ring."""
        key = c
        got = self._scalars.get(key)
        if got is not None:
            return got
        if isinstance(c, Fraction):
            num = self.scalar(c.numerator)
            den = self.scalar(c.denominator)
            if den not in self.units:
                raise ZeroDivisionError(
                    f"denominator {c.denominator} not a unit in {self.name}"
                )
            val = self.mul[num][self.units[den]]
        else:
            c = int(c) % self.char
            val = self.zero
            for _ in range(c):
                val = self.add[val][self.one]
        self._scalars[key] = val
        return val

    def power(self, a, e):
        if e < 0:
            if a not in self.units:
                raise ZeroDivisionError(f"{self.names[a]} is not a unit")
            a, e = self.units[a], -e
        out = self.one
        for _ in range(e):
            out = self.mul[out][a]
        return out

    def power_row(self, e):
        """x^e for every element x, indexed by x; for e < 0 a non-unit's
        entry is None."""
        row = self._power_rows.get(e)
        if row is None:
            row = tuple(
                self.power(a, e) if e >= 0 or a in self.units else None
                for a in range(self.n)
            )
            self._power_rows[e] = row
        return row

    def __repr__(self):
        return f"FiniteRing({self.name or self.n})"


def _from_elements(elements, add, mul, one, names, name):
    """The ring whose carrier index i stands for elements[i], with its
    tables built from the Python operations `add` and `mul` on the
    elements themselves, and the element `one` as unit."""
    index = {x: i for i, x in enumerate(elements)}
    add_table, mul_table = (
        [[index[op(x, y)] for y in elements] for x in elements] for op in (add, mul)
    )
    return FiniteRing(add_table, mul_table, index[one], names=names, name=name)


def Zmod(n):
    return _from_elements(
        range(n), lambda a, b: (a + b) % n, lambda a, b: a * b % n, 1 % n,
        [str(i) for i in range(n)], f"Z/{n}",
    )


def poly_quotient(p, modulus, var="x", name=""):
    """F_p[var]/(f) for a monic f given by its coefficient list
    (constant first, leading 1 last).  Elements are residue polynomials,
    as coefficient tuples (constant first), ordered by their base-p
    encoding, constant digit first."""
    k = len(modulus) - 1
    if modulus[-1] % p != 1:
        raise InputError("modulus must be monic")

    def mul(a, b):
        out = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        for d in range(2 * k - 2, k - 1, -1):  # x^k = x^k - f
            for j in range(k):
                out[d - k + j] -= out[d] * modulus[j]
        return tuple(c % p for c in out[:k])

    def elt_name(cs):
        parts = []
        for d, c in enumerate(cs):
            if c:
                head = str(c) if d == 0 or c > 1 else ""
                parts.append(head + (var if d else "") + (f"^{d}" if d > 1 else ""))
        return "+".join(parts) or "0"

    elements = [digits[::-1] for digits in itertools.product(range(p), repeat=k)]
    return _from_elements(
        elements, lambda a, b: tuple((x + y) % p for x, y in zip(a, b)), mul,
        tuple(int(d == 0) for d in range(k)), [elt_name(e) for e in elements],
        name,
    )


def GF(q):
    """The field with q elements, q in {2,3,4,9} (enough for the catalog),
    as F_p[x]/(f) for an irreducible f of degree log_p(q)."""
    moduli = {2: (2, [0, 1]), 3: (3, [0, 1]), 4: (2, [1, 1, 1]), 9: (3, [1, 0, 1])}
    if q not in moduli:
        raise InputError(f"no constructor for GF({q})")
    p, f = moduli[q]
    return poly_quotient(p, f, name=f"F_{q}")


def dual_numbers(p):
    """F_p[e]/(e^2)."""
    return poly_quotient(p, [0, 0, 1], var="e", name=f"F_{p}[e]/(e^2)")


def product_ring(R, S):
    elements = [(a, b) for a in range(R.n) for b in range(S.n)]
    return _from_elements(
        elements,
        lambda x, y: (R.add[x[0]][y[0]], S.add[x[1]][y[1]]),
        lambda x, y: (R.mul[x[0]][y[0]], S.mul[x[1]][y[1]]),
        (R.one, S.one),
        [f"({R.names[a]},{S.names[b]})" for a, b in elements],
        f"{R.name}x{S.name}",
    )


@functools.cache
def catalog_rings():
    """The fixed, ordered test-ring catalog: two prime fields, a proper
    field extension, a non-reduced quotient, a non-reduced local ring, and
    a non-local ring.  Built once: every call returns the same tuple of
    the same ring objects, which key the algebroids' stored groupoids."""
    return (GF(2), GF(3), GF(4), Zmod(4), dual_numbers(2), Zmod(6))


# ---------------------------------------------------------------------------
# point enumeration


def _mode_admits(P, R):
    """Whether ring maps from P's coefficient ring to R can exist at all."""
    kind = P.mode.kind
    if kind == "fp":
        return R.scalar(P.mode.p) == R.zero
    if kind == "plocal":
        # a Z_(p)-algebra map needs every prime other than p invertible:
        # for finite R that forces p-power characteristic
        c = R.char
        p = P.mode.p
        while c % p == 0:
            c //= p
        return c == 1
    return True


def compile_poly(R, terms):
    """Compile raw (monomial, coefficient) terms for evaluation in R.

    Each term becomes (coefficient, scalar image or None where the
    coefficient's denominator is no unit of R, negative factors, positive
    factors); a factor is (generator index, `R.power_row(e)`)."""
    out = []
    for mono, coeff in terms:
        try:
            val = R.scalar(coeff)
        except ZeroDivisionError:
            val = None
        neg = tuple((i, R.power_row(e)) for i, e in enumerate(mono) if e < 0)
        pos = tuple((i, R.power_row(e)) for i, e in enumerate(mono) if e > 0)
        out.append((coeff, val, neg, pos))
    return tuple(out)


def eval_compiled(R, assign, compiled):
    """Evaluate `compile_poly(R, terms)` at a generator assignment (tuple
    of R-elements).

    A term whose coefficient or negative power cannot be formed in R
    raises ZeroDivisionError even when another factor is zero, so the
    early stop on a zero product only starts after those factors."""
    add, mul, zero = R.add, R.mul, R.zero
    out = zero
    for coeff, val, neg, pos in compiled:
        if val is None:
            R.scalar(coeff)  # raises
        for i, row in neg:
            x = row[assign[i]]
            if x is None:
                R.power(assign[i], -1)  # raises
            val = mul[val][x]
        for i, row in pos:
            if val == zero:
                break
            val = mul[val][row[assign[i]]]
        out = add[out][val]
    return out


def enumerate_points(P, R, budget=DEFAULT_BUDGET):
    """All assignments generator -> R satisfying P's relations, with
    inverted generators required to land in R's units.  Grading is
    forgotten.  Deterministic (lexicographic in the carrier order).  Empty
    when no ring map from P's coefficients to R exists; otherwise
    SearchBudgetExceeded when |R|^#gens exceeds the budget."""
    if not _mode_admits(P, R):
        return []
    ngen = len(P.gens)
    if R.n ** ngen > budget:
        raise SearchBudgetExceeded(
            f"|R|^#gens = {R.n}^{ngen} exceeds budget {budget}"
        )
    rules = []
    for i, rule in P.rules.items():
        rhs = tuple((m, c) for c, m in rule.rhs)
        rules.append((i, R.power_row(rule.power), compile_poly(R, rhs)))
    inverted = sorted(P.inverted)
    points = []
    for assign in itertools.product(range(R.n), repeat=ngen):
        ok = True
        for i in inverted:
            if assign[i] not in R.units:
                ok = False
                break
        if ok:
            for i, lhs, rhs in rules:
                if lhs[assign[i]] != eval_compiled(R, assign, rhs):
                    ok = False
                    break
        if ok:
            points.append(assign)
    return points


def point_name(R, P, assign):
    return "{" + ", ".join(
        f"{P.names[i]}->{R.names[v]}" for i, v in enumerate(assign)
    ) + "}"


# ---------------------------------------------------------------------------
# groupoid evaluation


def _compiled_images(R, f, P):
    """f of each generator of P, compiled for R."""
    return [
        compile_poly(R, sorted(f(P.gen(i)).terms.items()))
        for i in range(len(P.gens))
    ]


def _eval_all(R, assign, polys):
    return tuple(eval_compiled(R, assign, poly) for poly in polys)


def _split_delta(R, H):
    """Delta of each generator of Gamma split by right-factor monomial:
    per generator, a list of (left polynomial compiled for R, index of the
    right monomial, None for the monomial 1), and the distinct right
    monomials other than 1, compiled for R.  Delta(g) is the sum over its
    list of left * right.  Both factors are Gamma-monomials
    (`TensorPower.split_monomial`), so each evaluates at a point of Gamma
    itself."""
    index = {}
    lefts = []
    for i in range(len(H.Gamma.gens)):
        groups = {}
        for m, coeff in sorted(H.delta(H.Gamma.gen(i)).terms.items()):
            left, right = H.ts.split_monomial(m)
            groups.setdefault(right, []).append((left, coeff))
        lefts.append([
            (compile_poly(R, terms),
             index.setdefault(r, len(index)) if any(r) else None)
            for r, terms in groups.items()
        ])
    monomials = [compile_poly(R, [(r, 1)]) for r in index]
    return lefts, monomials


@dataclass(frozen=True)
class FiniteGroupoid:
    ring: FiniteRing
    objects: tuple
    morphisms: tuple
    dom: tuple
    cod: tuple
    identity: MappingProxyType  # object index -> morphism index
    inverse: tuple  # morphism index -> morphism index
    comp: MappingProxyType  # (beta index, alpha index) -> index of beta.alpha


def _by_domain(dom, nobj):
    """Morphism indices grouped by domain object (by codomain when given
    the codomains), each list ascending."""
    out = [[] for _ in range(nobj)]
    for m, x in enumerate(dom):
        out[x].append(m)
    return out


def evaluate_groupoid(H, R, budget=DEFAULT_BUDGET):
    """The literal groupoid of R-points, with every category axiom and the
    invertibility of every morphism verified exhaustively.  Stored in
    `H.groupoids` under (R, budget) and shared by every later call: do not
    modify it."""
    key = (R, budget)
    if key not in H.groupoids:
        H.groupoids[key] = _build_groupoid(H, R, budget)
    return H.groupoids[key]


def _build_groupoid(H, R, budget):
    A, Gamma = H.A, H.Gamma
    objects = enumerate_points(A, R, budget)
    morphisms = enumerate_points(Gamma, R, budget)
    if not objects and not morphisms:  # nothing to compile
        return FiniteGroupoid(R, (), (), (), (), MappingProxyType({}), (),
                              MappingProxyType({}))
    obj_index = {x: i for i, x in enumerate(objects)}
    mor_index = {a: i for i, a in enumerate(morphisms)}

    etaL, etaR = (_compiled_images(R, f, A) for f in (H.etaL, H.etaR))
    eps, c = (_compiled_images(R, f, Gamma) for f in (H.eps, H.c))

    dom, cod = [], []
    for a in morphisms:
        d = _eval_all(R, a, etaL)
        c_ = _eval_all(R, a, etaR)
        if d not in obj_index or c_ not in obj_index:
            raise AxiomFailure("dom/cod of a point is not a point")
        dom.append(obj_index[d])
        cod.append(obj_index[c_])
    # one composite per composable pair: (into x) * (out of x) over objects x
    by_dom = _by_domain(dom, len(objects))
    composites = sum(len(by_dom[x]) for x in cod)
    if composites > budget:
        raise SearchBudgetExceeded(f"{composites} composites exceed budget {budget}")

    identity = {}
    for xi, x in enumerate(objects):
        idm = _eval_all(R, x, eps)
        mi = mor_index.get(idm)
        if mi is None:
            raise AxiomFailure(f"identity of {point_name(R, A, x)} is not a point")
        if dom[mi] != xi or cod[mi] != xi:
            raise AxiomFailure("identity morphism with wrong endpoints")
        identity[xi] = mi

    inverse = []
    for a in morphisms:
        mi = mor_index.get(_eval_all(R, a, c))
        if mi is None:
            raise AxiomFailure("inverse of a point is not a point")
        inverse.append(mi)

    # composable pairs only: beta runs over the morphisms out of cod alpha.
    # The tensor square's assignment takes its left slots from alpha and
    # its right copies from beta's morphism generators, so each Delta(g)
    # splits as a sum over its right monomials r of (left polynomial) * r.
    # Each left polynomial is evaluated once per alpha and each right
    # monomial once per beta.  Per alpha, the groups whose left value is
    # zero are dropped, those with r = 1 are summed into a base value per
    # generator, and each other group keeps its row mul[left value]; a
    # composite adds one lookup per kept group to the base value, which is
    # exact because R is commutative.
    lefts, monomials = _split_delta(R, H)
    right_values = [_eval_all(R, b, monomials) for b in morphisms]
    add, mul, zero = R.add, R.mul, R.zero
    comp = {}
    for ai, a in enumerate(morphisms):
        left_values = []
        for groups in lefts:
            base, kept = zero, []
            for poly, ri in groups:
                lv = eval_compiled(R, a, poly)
                if lv == zero:
                    continue
                if ri is None:
                    base = add[base][lv]
                else:
                    kept.append((mul[lv], ri))
            left_values.append((base, kept))
        for bi in by_dom[cod[ai]]:
            rv = right_values[bi]
            image = []
            for val, kept in left_values:
                for row, ri in kept:
                    val = add[val][row[rv[ri]]]
                image.append(val)
            gi = mor_index.get(tuple(image))
            if gi is None:
                raise AxiomFailure("composite of points is not a point")
            if dom[gi] != dom[ai] or cod[gi] != cod[bi]:
                raise AxiomFailure("composite with wrong endpoints")
            comp[(bi, ai)] = gi

    G = FiniteGroupoid(
        R, tuple(objects), tuple(morphisms), tuple(dom), tuple(cod),
        MappingProxyType(identity), tuple(inverse), MappingProxyType(comp),
    )
    _verify_groupoid(G)
    return G


def _getter(positions):
    """The function picking `positions` out of a row, as a tuple."""
    if len(positions) == 1:
        (k,) = positions
        return lambda row: (row[k],)
    return operator.itemgetter(*positions)


def _verify_groupoid(G):
    for ai in range(len(G.morphisms)):
        il, ir = G.identity[G.cod[ai]], G.identity[G.dom[ai]]
        if G.comp[(il, ai)] != ai or G.comp[(ai, ir)] != ai:
            raise AxiomFailure(f"identity law fails at morphism {ai}")
        inv = G.inverse[ai]
        if G.dom[inv] != G.cod[ai] or G.cod[inv] != G.dom[ai]:
            raise AxiomFailure(f"inverse of {ai} has wrong endpoints")
        if G.comp[(inv, ai)] != G.identity[G.dom[ai]]:
            raise AxiomFailure(f"left inverse law fails at morphism {ai}")
        if G.comp[(ai, inv)] != G.identity[G.cod[ai]]:
            raise AxiomFailure(f"right inverse law fails at morphism {ai}")
    # every composable triple (gamma, beta, alpha), one row at a time:
    # rows[b] is the tuple of b.alpha over the alphas into dom b, ascending,
    # and position[m] is m's place among the morphisms into cod m.  For
    # each (gamma, beta) the row gamma.(beta.alpha) must equal
    # (gamma.beta)'s; one getter per beta picks it out of gamma's row.
    by_cod = _by_domain(G.cod, len(G.objects))
    position = [0] * len(G.morphisms)
    for into in by_cod:
        for k, m in enumerate(into):
            position[m] = k
    rows = [
        tuple(G.comp[(bi, ai)] for ai in by_cod[G.dom[bi]])
        for bi in range(len(G.morphisms))
    ]
    by_dom = _by_domain(G.dom, len(G.objects))
    for bi, row in enumerate(rows):
        pick = _getter([position[ba] for ba in row])
        for ci in by_dom[G.cod[bi]]:
            crow = rows[ci]
            left = pick(crow)
            right = rows[crow[position[bi]]]
            if left != right:
                k = next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)
                ai = by_cod[G.dom[bi]][k]
                raise AxiomFailure(
                    f"associativity fails on triple ({ci},{bi},{ai})"
                )


# ---------------------------------------------------------------------------
# functor analysis


@dataclass
class GroupoidMapReport:
    ring: str
    faithful: bool
    full: bool
    essentially_surjective: bool
    essential_image_count: int
    object_counts: tuple  # (domain objects, codomain objects)
    morphism_counts: tuple
    witnesses: dict = field(default_factory=dict)

    @property
    def fully_faithful(self):
        return self.faithful and self.full

    def to_dict(self):
        return {
            "ring": self.ring,
            "faithful": self.faithful,
            "full": self.full,
            "essentially_surjective": self.essentially_surjective,
            "essential_image_count": self.essential_image_count,
            "objects": list(self.object_counts),
            "morphisms": list(self.morphism_counts),
            "witnesses": {k: str(v) for k, v in self.witnesses.items()},
        }


def _hom_sets(G):
    """{(dom, cod): morphism indices}, each list ascending."""
    out = {}
    for m, key in enumerate(zip(G.dom, G.cod)):
        out.setdefault(key, []).append(m)
    return out


def analyze_map(f, R, budget=DEFAULT_BUDGET):
    """The induced functor (Spec B, Spec Sigma)(R) -> (Spec A, Spec Gamma)(R)
    by precomposition with (f_0, f_1), checked exhaustively for
    faithfulness, fullness and plain essential surjectivity."""
    Gdom = evaluate_groupoid(f.target, R, budget)
    Gcod = evaluate_groupoid(f.source, R, budget)
    obj_im, mor_im = [], []
    if Gdom.objects:  # an empty domain maps without compiling f
        f0 = _compiled_images(R, f.f0, f.source.A)
        f1 = _compiled_images(R, f.f1, f.source.Gamma)
        cobj = {x: i for i, x in enumerate(Gcod.objects)}
        cmor = {a: i for i, a in enumerate(Gcod.morphisms)}
        obj_im = [cobj[_eval_all(R, x, f0)] for x in Gdom.objects]
        mor_im = [cmor[_eval_all(R, a, f1)] for a in Gdom.morphisms]
    witnesses = {}

    # faithful: no two parallel morphisms share an image.  The witness is
    # the lexicographically first colliding pair: the smallest first member
    # of a colliding (dom, cod, image) class, with the class's second member
    first, collision = {}, None
    for bi, key in enumerate(zip(Gdom.dom, Gdom.cod, mor_im)):
        ai = first.setdefault(key, bi)
        if ai != bi and (collision is None or ai < collision[0]):
            collision = (ai, bi)
    faithful = collision is None
    if not faithful:
        witnesses["faithful"] = tuple(
            point_name(R, f.target.Gamma, Gdom.morphisms[i])
            for i in collision
        )

    full = True
    dom_homs, cod_homs = _hom_sets(Gdom), _hom_sets(Gcod)
    for xi in range(len(Gdom.objects)):
        for yi in range(len(Gdom.objects)):
            targets = set(cod_homs.get((obj_im[xi], obj_im[yi]), ()))
            hits = {mor_im[m] for m in dom_homs.get((xi, yi), ())}
            missing = targets - hits
            if missing:
                full = False
                mi = min(missing)
                witnesses["full"] = point_name(
                    R, f.source.Gamma, Gcod.morphisms[mi]
                )
                break
        if not full:
            break

    reachable = set()
    for m in range(len(Gcod.morphisms)):
        if Gcod.dom[m] in obj_im:
            reachable.add(Gcod.cod[m])
        if Gcod.cod[m] in obj_im:
            reachable.add(Gcod.dom[m])
    reachable.update(obj_im)
    ess = len(reachable) == len(Gcod.objects)
    if not ess:
        missed = min(set(range(len(Gcod.objects))) - reachable)
        witnesses["essentially_surjective"] = point_name(
            R, f.source.A, Gcod.objects[missed]
        )

    return GroupoidMapReport(
        ring=R.name,
        faithful=faithful,
        full=full,
        essentially_surjective=ess,
        essential_image_count=len(reachable),
        object_counts=(len(Gdom.objects), len(Gcod.objects)),
        morphism_counts=(len(Gdom.morphisms), len(Gcod.morphisms)),
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# descent (everything an F_p-vector space)


class FpSpaceBasis:
    """Coordinates on a finite ring or module whose additive group is an
    F_p-vector space: picks a basis greedily from the carrier."""

    def __init__(self, p, size, add, zero):
        self.p = p
        span = {zero: ()}
        basis = []
        for cand in range(size):
            if cand in span:
                continue
            basis.append(cand)
            newspan = {}
            for elem, coords in span.items():
                acc = elem
                for k in range(1, p):
                    acc = add[acc][cand]
                    newspan[acc] = coords + ((len(basis) - 1, k),)
            span.update(newspan)
            if len(span) == size:
                break
        if len(span) != size:
            raise InputError("carrier is not an F_p-vector space")
        self.basis = basis
        self.dim = len(basis)
        self._coords = {elem: dict(sparse) for elem, sparse in span.items()}

    def coords(self, elem):
        """The coordinates of `elem` as a dict vector {index: residue},
        shared with every caller: do not modify it."""
        return self._coords[elem]


def _shift(col, off):
    """The dict vector `col` with every index moved up by `off`."""
    return {off + i: x for i, x in col.items()}


@dataclass
class FpModule:
    """A finite module over a char-p FiniteRing, presented as F_p^dim with
    one list of dict columns per ring element r: column j is r times the
    j-th basis vector, as a dict vector {index: nonzero residue}."""

    ring: FiniteRing
    dim: int
    action: dict  # ring element -> list of dim dict columns
    name: str = ""

    @property
    def p(self):
        return self.ring.char

    def check(self):
        R, p, act = self.ring, self.p, self.action
        if act[R.one] != [{j: 1} for j in range(self.dim)]:
            raise InputError("1 must act as the identity")
        for a in range(R.n):
            for b in range(R.n):
                if [linalg.apply(act[a], col, p) for col in act[b]] != act[R.mul[a][b]]:
                    raise InputError("action not multiplicative")
                sums = [
                    linalg.apply([ca, cb], {0: 1, 1: 1}, p)
                    for ca, cb in zip(act[a], act[b])
                ]
                if sums != act[R.add[a][b]]:
                    raise InputError("action not additive")
        return True


def free_module(R, rank, name=""):
    """R^rank as an FpModule (R itself viewed through its F_p-coordinates):
    `rank` shifted copies of the columns of R acting on itself."""
    _, regular = AlgebraOver(R, R, tuple(range(R.n))).as_module()
    k = regular.dim
    action = {
        r: [_shift(col, s * k) for s in range(rank) for col in cols]
        for r, cols in regular.action.items()
    }
    return FpModule(R, k * rank, action, name=name or f"{R.name}^{rank}")


def random_module(R, rng, max_dim=3, name=""):
    """A random finite R-module for property tests.  Over the prime-field
    bases of the shipped covers every finite module is free, so sampling
    ranks samples all finite modules up to isomorphism."""
    rank = rng.randint(1, max_dim)
    return free_module(R, rank, name=name or f"random({R.name}^{rank})")


@dataclass
class AlgebraOver:
    """A finite R-algebra given by the target ring and the structure map."""

    base: FiniteRing
    ring: FiniteRing
    hom: tuple  # base element -> ring element
    name: str = ""

    def check(self):
        R, S, f = self.base, self.ring, self.hom
        if f[R.one] != S.one or f[R.zero] != S.zero:
            raise InputError("structure map must be unital")
        for a in range(R.n):
            for b in range(R.n):
                if f[R.add[a][b]] != S.add[f[a]][f[b]]:
                    raise InputError("structure map not additive")
                if f[R.mul[a][b]] != S.mul[f[a]][f[b]]:
                    raise InputError("structure map not multiplicative")
        return True

    def as_module(self):
        """The ring S as an FpModule over the base: r acts on the
        F_p-coordinates of S as multiplication by hom(r)."""
        S = self.ring
        basis = FpSpaceBasis(self.base.char, S.n, S.add, S.zero)
        action = {
            r: [basis.coords(S.mul[self.hom[r]][b]) for b in basis.basis]
            for r in range(self.base.n)
        }
        return basis, FpModule(self.base, basis.dim, action, name=self.name)


def field_extension_cover(p, q):
    """The inclusion F_p -> F_q as a one-element cover."""
    R = GF(p)
    S = GF(q)
    hom = tuple(S.scalar(r) for r in range(R.n))
    return R, [AlgebraOver(R, S, hom, name=f"F_{p}->F_{q}")]


def projection_noncover():
    """The first projection F_2 x F_2 -> F_2: not faithfully flat."""
    R = product_ring(GF(2), GF(2))
    S = GF(2)
    hom = tuple(r // S.n for r in range(R.n))  # first coordinate
    return R, [AlgebraOver(R, S, hom, name="F_2xF_2->F_2 (pr_1)")]


class _Quotient:
    """An F_p-vector-space quotient V / span(rels), with projection to
    canonical coordinates on the non-pivot positions.  Vectors are dict
    vectors {index: residue}."""

    def __init__(self, p, big_dim, rels):
        self.p = p
        self.pivots, _ = linalg.echelon(((r, None) for r in rels), p)
        self.free = [i for i in range(big_dim) if i not in self.pivots]
        self.dim = len(self.free)
        self._position = {i: pos for pos, i in enumerate(self.free)}

    def project(self, vec):
        v = linalg.reduce_fp(dict(vec), self.pivots, self.p)
        return {self._position[i]: x for i, x in v.items()}


def tensor_algebra_module(alg, M):
    """S (x)_R M as an FpModule over R, together with the quotient of the
    (S-coordinates x M-coordinates) product space that presents it and
    the columns of the map m -> 1 (x) m."""
    R = alg.base
    p = R.char
    sbasis, smod = alg.as_module()
    km = M.dim

    rels = []
    for r in range(R.n):
        for i, scol in enumerate(smod.action[r]):
            for j, mcol in enumerate(M.action[r]):
                # (r.s_i) (x) m_j - s_i (x) (r.m_j)
                rels.append(linalg.apply(
                    [{i2 * km + j: x for i2, x in scol.items()},
                     _shift(mcol, i * km)],
                    {0: 1, 1: p - 1}, p,
                ))
    Q = _Quotient(p, smod.dim * km, rels)

    action = {}
    for r in range(R.n):
        # r.(s_i (x) m_j) = s_i (x) r.m_j
        action[r] = [
            Q.project(_shift(M.action[r][j], i * km))
            for i, j in (divmod(c, km) for c in Q.free)
        ]
    out = FpModule(R, Q.dim, action, name=f"{alg.name}(x){M.name}")

    one_coords = sbasis.coords(alg.ring.one)
    unit = [
        Q.project({i * km + j: x for i, x in one_coords.items()})
        for j in range(km)
    ]
    return out, Q, unit


def _descent_maps(cover, M):
    """The start of the descent complex of M over `cover`,
        e: M -> P0 = prod_i S_i (x) M,
        d0, d1: P0 -> P1 = prod_{i,j} S_i (x) (S_j (x) M),
    with d0 (xi_i)_i = (xi_i (x) 1)_{i,j} (1 inserted in the S_j slot)
    and d1 (xi_i)_i = (1 (x) xi_j)_{i,j}.  Returns (e, d0, d1) as lists
    of columns: e[c] is the image of the c-th basis vector of M, d0[c]
    and d1[c] those of the c-th basis vector of P0, as dict vectors."""
    level1 = [tensor_algebra_module(entry, M) for entry in cover]
    offsets = [0]
    for SM, _, _ in level1:
        offsets.append(offsets[-1] + SM.dim)
    e = [{} for _ in range(M.dim)]
    for (_, _, unit), off in zip(level1, offsets):
        for c, col in enumerate(unit):
            e[c].update(_shift(col, off))
    d0 = [{} for _ in range(offsets[-1])]
    d1 = [{} for _ in range(offsets[-1])]
    row_off = 0
    for i, (ei, (_, Qi, _)) in enumerate(zip(cover, level1)):
        for j, (SMj, _, unitj) in enumerate(level1):
            SSM, Q2, unit2 = tensor_algebra_module(ei, SMj)
            for col, img in enumerate(unit2):
                d1[offsets[j] + col].update(_shift(img, row_off))
            # s_a (x) m_b |-> s_a (x) (1_{S_j} (x) m_b); well defined
            # because the assignment is balanced over R
            for col, c in enumerate(Qi.free):
                a, b = divmod(c, M.dim)
                img = Q2.project(_shift(unitj[b], a * SMj.dim))
                d0[offsets[i] + col].update(_shift(img, row_off))
            row_off += SSM.dim
    return e, d0, d1


def check_descent(cover, M, purity_probe=None, _depth=0):
    """Verify the descent equalizer
        M -> prod_i S_i (x) M  =>  prod_{i,j} S_i (x) S_j (x) M
    by exact linear algebra over F_p (no enumeration of vectors).

    `cover` is a list of AlgebraOver a common char-p base; `M` an FpModule
    over that base (InputError otherwise).  The unit map e must be
    injective: otherwise NotACover is raised, naming the coordinates of a
    vector it kills.  The two coface maps must agree on im e.  Then im e
    lies in the equalizer ker(d0 - d1), and equals it exactly when
    dim ker(d0 - d1) = dim M.
    With `purity_probe` (a further test algebra T) the whole check is
    repeated for T (x) M."""
    v = Verdict()
    if not cover:
        raise InputError("empty cover")
    R = cover[0].base
    p = R.char
    for entry in cover:
        if entry.base is not R and entry.base.name != R.name:
            raise InputError("cover entries must share one base ring")
        entry.check()
    if M.ring is not R and M.ring.name != R.name:
        raise InputError(f"module {M.name} is not over the cover's base {R.name}")
    if _depth == 0:
        M.check()

    e, d0, d1 = _descent_maps(cover, M)
    kernel = linalg.kernel_fp(enumerate(e), p)
    if kernel:
        wit = tuple(kernel[0].get(c, 0) for c in range(M.dim))
        raise NotACover(
            f"unit map {M.name} -> product of "
            f"{[c.name for c in cover]} kills {wit}"
        )

    # the columns of d0 - d1
    diff = [
        linalg.apply([d0c, d1c], {0: 1, 1: p - 1}, p) for d0c, d1c in zip(d0, d1)
    ]
    for c, col in enumerate(e):
        if linalg.apply(diff, col, p):
            v.fail(f"coface maps disagree on 1 (x) m_{c}")
    if not v.ok:
        return v

    ker_dim = len(diff) - linalg.rank(diff, p)
    if ker_dim != M.dim:
        v.fail(f"equalizer dimension {ker_dim} differs from dim M = {M.dim}")

    if v.ok and purity_probe is not None:
        TM, _, _ = tensor_algebra_module(purity_probe, M)
        v.merge(check_descent(cover, TM, _depth=_depth + 1))
    return v
