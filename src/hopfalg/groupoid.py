"""Finite-ring oracle.

Evaluating (Spec A, Spec Gamma) at a small finite ring R yields a literal
groupoid: objects are ring maps A -> R, morphisms are ring maps
Gamma -> R, with dom/cod by precomposition with eta_L/eta_R and
composition through the diagonal.  Grading is forgotten; the oracle
samples the ungraded statements on a fixed catalog of test rings and can
only falsify or corroborate, never prove.

Points are found by trying every assignment of generators to R-elements
(bounded by a budget).  Each polynomial that is evaluated at many points
(a relation, a structure map, a map of algebroids) is compiled once per
ring into table lookups: a scalar image and one power row per generator
factor.  Morphisms are indexed by domain, so composition and the
associativity check visit only composable pairs and triples.

The same module houses the finite-instance descent checker: for a family
of R-algebras S_i (char p throughout) and a finite R-module M it verifies
that M -> prod_i S_i (x) M  is the equalizer of the two coface maps into
prod_{i,j} S_i (x) S_j (x) M.  Everything there is an F_p-vector space,
and the check is exact linear algebra through `linalg`: a rank and a
kernel, never an enumeration of vectors.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import (
    AxiomFailure,
    InputError,
    NotACover,
    SearchBudgetExceeded,
    Verdict,
)

DEFAULT_BUDGET = 10 ** 7


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


def Zmod(n):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteRing(add, mul, 1 % n, names=[str(i) for i in range(n)], name=f"Z/{n}")


def poly_quotient(p, modulus, var="x", name=""):
    """F_p[var]/(f) for a monic f given by its coefficient list
    (constant first, leading 1 last).  Elements are residue polynomials
    encoded base p, constant digit first."""
    k = len(modulus) - 1
    if modulus[-1] % p != 1:
        raise InputError("modulus must be monic")
    n = p ** k

    def decode(i):
        out = []
        for _ in range(k):
            out.append(i % p)
            i //= p
        return out

    def encode(cs):
        # reduce degree >= k coefficients via the modulus
        cs = list(cs) + [0] * max(0, k - len(cs))
        for d in range(len(cs) - 1, k - 1, -1):
            lead = cs[d] % p
            if lead:
                for j in range(k):
                    cs[d - k + j] = (cs[d - k + j] - lead * modulus[j]) % p
            cs[d] = 0
        i = 0
        for d in range(k - 1, -1, -1):
            i = i * p + (cs[d] % p)
        return i

    add = [
        [
            encode([(x + y) % p for x, y in zip(decode(a), decode(b))])
            for b in range(n)
        ]
        for a in range(n)
    ]

    def mulpoly(a, b):
        da, db = decode(a), decode(b)
        out = [0] * (2 * k)
        for i, x in enumerate(da):
            if x == 0:
                continue
            for j, y in enumerate(db):
                out[i + j] = (out[i + j] + x * y) % p
        return encode(out)

    mul = [[mulpoly(a, b) for b in range(n)] for a in range(n)]

    def elt_name(i):
        cs = decode(i)
        parts = []
        for d, cc in enumerate(cs):
            if cc == 0:
                continue
            if d == 0:
                parts.append(str(cc))
            else:
                head = "" if cc == 1 else str(cc)
                parts.append(f"{head}{var}" + (f"^{d}" if d > 1 else ""))
        return "+".join(parts) if parts else "0"

    return FiniteRing(
        add, mul, encode([1]), names=[elt_name(i) for i in range(n)], name=name
    )


def GF(q, name=None):
    """The field with q elements, q in {2,3,4,9} (enough for the catalog)."""
    table = {
        2: lambda: Zmod(2),
        3: lambda: Zmod(3),
        4: lambda: poly_quotient(2, [1, 1, 1], name="F_4"),
        9: lambda: poly_quotient(3, [1, 0, 1], name="F_9"),
    }
    if q not in table:
        raise InputError(f"no constructor for GF({q})")
    R = table[q]()
    R.name = name or f"F_{q}"
    return R


def dual_numbers(p):
    """F_p[e]/(e^2)."""
    return poly_quotient(p, [0, 0, 1], var="e", name=f"F_{p}[e]/(e^2)")


def product_ring(R, S):
    n, m = R.n, S.n

    def pack(a, b):
        return a * m + b

    add = [
        [
            pack(R.add[a][c], S.add[b][d])
            for c in range(n)
            for d in range(m)
        ]
        for a in range(n)
        for b in range(m)
    ]
    mul = [
        [
            pack(R.mul[a][c], S.mul[b][d])
            for c in range(n)
            for d in range(m)
        ]
        for a in range(n)
        for b in range(m)
    ]
    names = [
        f"({R.names[a]},{S.names[b]})" for a in range(n) for b in range(m)
    ]
    return FiniteRing(
        add, mul, pack(R.one, S.one), names=names, name=f"{R.name}x{S.name}"
    )


def catalog_rings():
    """The fixed, ordered test-ring catalog: two prime fields, a proper
    field extension, a non-reduced quotient, a non-reduced local ring, and
    a non-local ring."""
    return [
        GF(2),
        GF(3),
        GF(4),
        Zmod(4),
        dual_numbers(2),
        Zmod(6),
    ]


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


def eval_at(R, assign, terms):
    """Evaluate raw (monomial, coefficient) terms at a generator
    assignment (tuple of R-elements).  Compiles them first; to evaluate
    one polynomial at many points, call `compile_poly` once and then
    `eval_compiled`."""
    return eval_compiled(R, assign, compile_poly(R, terms))


def enumerate_points(P, R, budget=DEFAULT_BUDGET):
    """All assignments generator -> R satisfying P's relations, with
    inverted generators required to land in R's units.  Grading is
    forgotten.  Deterministic (lexicographic in the carrier order)."""
    ngen = len(P.gens)
    if R.n ** ngen > budget:
        raise SearchBudgetExceeded(
            f"|R|^#gens = {R.n}^{ngen} exceeds budget {budget}"
        )
    if not _mode_admits(P, R):
        return []
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


def _raw_elem(elem):
    return tuple(sorted(elem.terms.items()))


def _compiled_images(R, f, P):
    """f of each generator of P, compiled for R."""
    return [compile_poly(R, _raw_elem(f(P.gen(i)))) for i in range(len(P.gens))]


def _eval_all(R, assign, polys):
    return tuple(eval_compiled(R, assign, poly) for poly in polys)


@dataclass
class FiniteGroupoid:
    ring: FiniteRing
    objects: list
    morphisms: list
    dom: list
    cod: list
    identity: dict  # object index -> morphism index
    inverse: list  # morphism index -> morphism index
    comp: dict  # (beta index, alpha index) -> morphism index, beta.alpha


def _by_domain(dom, nobj):
    """Morphism indices grouped by domain object, each list ascending."""
    out = [[] for _ in range(nobj)]
    for m, x in enumerate(dom):
        out[x].append(m)
    return out


def evaluate_groupoid(H, R, budget=DEFAULT_BUDGET):
    """The literal groupoid of R-points, with every category axiom and the
    invertibility of every morphism verified exhaustively."""
    A, Gamma = H.A, H.Gamma
    objects = enumerate_points(A, R, budget)
    morphisms = enumerate_points(Gamma, R, budget)
    obj_index = {x: i for i, x in enumerate(objects)}
    mor_index = {a: i for i, a in enumerate(morphisms)}

    etaL, etaR = (_compiled_images(R, f, A) for f in (H.etaL, H.etaR))
    eps, c, delta = (
        _compiled_images(R, f, Gamma) for f in (H.eps, H.c, H.delta)
    )

    dom, cod = [], []
    for a in morphisms:
        d = _eval_all(R, a, etaL)
        c_ = _eval_all(R, a, etaR)
        if d not in obj_index or c_ not in obj_index:
            raise AxiomFailure("dom/cod of a point is not a point")
        dom.append(obj_index[d])
        cod.append(obj_index[c_])

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
    # its right copies from beta's morphism generators.
    by_dom = _by_domain(dom, len(objects))
    right = [tuple(b[i] for i in H.morphism_order) for b in morphisms]
    comp = {}
    for ai, a in enumerate(morphisms):
        for bi in by_dom[cod[ai]]:
            gi = mor_index.get(_eval_all(R, a + right[bi], delta))
            if gi is None:
                raise AxiomFailure("composite of points is not a point")
            if dom[gi] != dom[ai] or cod[gi] != cod[bi]:
                raise AxiomFailure("composite with wrong endpoints")
            comp[(bi, ai)] = gi

    G = FiniteGroupoid(R, objects, morphisms, dom, cod, identity, inverse, comp)
    _verify_groupoid(G)
    return G


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
    # every composable triple (gamma, beta, alpha)
    by_dom = _by_domain(G.dom, len(G.objects))
    for (bi, ai), ba in G.comp.items():
        for ci in by_dom[G.cod[bi]]:
            left = G.comp[(ci, ba)]
            right = G.comp[(G.comp[(ci, bi)], ai)]
            if left != right:
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
    H = f.source
    f0 = _compiled_images(R, f.f0, H.A)
    f1 = _compiled_images(R, f.f1, H.Gamma)
    cobj = {x: i for i, x in enumerate(Gcod.objects)}
    cmor = {a: i for i, a in enumerate(Gcod.morphisms)}

    def F_obj(x):
        return cobj[_eval_all(R, x, f0)]

    def F_mor(a):
        return cmor[_eval_all(R, a, f1)]

    obj_im = [F_obj(x) for x in Gdom.objects]
    mor_im = [F_mor(a) for a in Gdom.morphisms]
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
        self._coords = {}
        for elem, sparse in span.items():
            v = [0] * self.dim
            for i, k in sparse:
                v[i] = k
            self._coords[elem] = tuple(v)

    def coords(self, elem):
        return self._coords[elem]


@dataclass
class FpModule:
    """A finite module over a char-p FiniteRing, presented as F_p^dim with
    one action matrix per ring element (rows act on coordinate columns)."""

    ring: FiniteRing
    dim: int
    action: dict  # ring element -> dim x dim matrix over F_p
    name: str = ""

    @property
    def p(self):
        return self.ring.char

    def check(self):
        R, p, k = self.ring, self.p, self.dim
        ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        if self.action[R.one] != ident:
            raise InputError("1 must act as the identity")
        for a in range(R.n):
            for b in range(R.n):
                ab = _mat_mul(self.action[a], self.action[b], p)
                if ab != self.action[R.mul[a][b]]:
                    raise InputError("action not multiplicative")
                s = _mat_add(self.action[a], self.action[b], p)
                if s != self.action[R.add[a][b]]:
                    raise InputError("action not additive")
        return True


def _mat_mul(A, B, p):
    if not B:
        return [[] for _ in A]
    cols = len(B[0])
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) % p for j in range(cols)]
        for i in range(len(A))
    ]


def _mat_add(A, B, p):
    return [[(x + y) % p for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def free_module(R, rank, name=""):
    """R^rank as an FpModule (R itself viewed through its F_p-coordinates)."""
    p = R.char
    basis = FpSpaceBasis(p, R.n, R.add, R.zero)
    k = basis.dim
    action = {}
    for r in range(R.n):
        # matrix of multiplication by r on R's coordinates
        cols = []
        for b in basis.basis:
            cols.append(basis.coords(R.mul[r][b]))
        block = [[cols[j][i] for j in range(k)] for i in range(k)]
        mat = [[0] * (k * rank) for _ in range(k * rank)]
        for s in range(rank):
            for i in range(k):
                for j in range(k):
                    mat[s * k + i][s * k + j] = block[i][j]
        action[r] = mat
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
        p = self.base.char
        basis = FpSpaceBasis(p, self.ring.n, self.ring.add, self.ring.zero)
        k = basis.dim
        action = {}
        for r in range(self.base.n):
            img = self.hom[r]
            cols = [basis.coords(self.ring.mul[img][b]) for b in basis.basis]
            action[r] = [[cols[j][i] for j in range(k)] for i in range(k)]
        return basis, FpModule(self.base, k, action, name=self.name)


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


def _dict_vector(dense, p):
    return {i: x % p for i, x in enumerate(dense) if x % p}


class _Quotient:
    """An F_p-vector-space quotient V / span(rels), with projection to
    canonical coordinates on the non-pivot positions.  Vectors are dict
    vectors {index: residue}."""

    def __init__(self, p, big_dim, rels):
        self.p = p
        self.pivots, _ = linalg.echelon(((r, None) for r in rels), p)
        self.free = [i for i in range(big_dim) if i not in self.pivots]
        self.dim = len(self.free)

    def project(self, vec):
        v = linalg.reduce_fp(dict(vec), self.pivots, self.p)
        return tuple(v.get(i, 0) for i in self.free)


def _columns_to_matrix(cols, nrows):
    return [[col[i] for col in cols] for i in range(nrows)]


def tensor_algebra_module(alg, M):
    """S (x)_R M as an FpModule over R, together with the quotient of the
    (S-coordinates x M-coordinates) product space that presents it and
    the matrix of the map m -> 1 (x) m."""
    R = alg.base
    p = R.char
    sbasis, smod = alg.as_module()
    ks, km = smod.dim, M.dim

    def idx(i, j):
        return i * km + j

    rels = []
    for r in range(R.n):
        smat = smod.action[r]  # r acting on S via the structure map
        mmat = M.action[r]
        for i in range(ks):
            for j in range(km):
                # (r.s_i) (x) m_j - s_i (x) (r.m_j)
                row = [0] * (ks * km)
                for i2 in range(ks):
                    row[idx(i2, j)] += smat[i2][i]
                for j2 in range(km):
                    row[idx(i, j2)] -= mmat[j2][j]
                rels.append(_dict_vector(row, p))
    Q = _Quotient(p, ks * km, rels)

    action = {}
    for r in range(R.n):
        mmat = M.action[r]
        # r.(s_i (x) m_j) = s_i (x) r.m_j
        qcols = []
        for c in Q.free:
            i, j = divmod(c, km)
            qcols.append(Q.project(
                {idx(i, j2): mmat[j2][j] for j2 in range(km) if mmat[j2][j]}
            ))
        action[r] = _columns_to_matrix(qcols, Q.dim)
    out = FpModule(R, Q.dim, action, name=f"{alg.name}(x){M.name}")

    one_coords = sbasis.coords(alg.ring.one)
    unit_cols = [
        Q.project({idx(i, j): x for i, x in enumerate(one_coords) if x})
        for j in range(km)
    ]
    return out, Q, _columns_to_matrix(unit_cols, Q.dim)


def _image(cols, x, p):
    """sum_k x_k cols[k] for dict vectors x and cols[k]."""
    out = {}
    for k, xk in x.items():
        for i, y in cols[k].items():
            out[i] = (out.get(i, 0) + xk * y) % p
    return {i: y for i, y in out.items() if y}


def _descent_maps(cover, M):
    """The start of the descent complex of M over `cover`,
        e: M -> P0 = prod_i S_i (x) M,
        d0, d1: P0 -> P1 = prod_{i,j} S_i (x) (S_j (x) M),
    with d0 (xi_i)_i = (xi_i (x) 1)_{i,j} (1 inserted in the S_j slot)
    and d1 (xi_i)_i = (1 (x) xi_j)_{i,j}.  Returns (e, d0, d1) as lists
    of columns: e[c] is the image of the c-th basis vector of M, d0[c]
    and d1[c] those of the c-th basis vector of P0, as dict vectors."""
    p = M.p
    level1 = [tensor_algebra_module(entry, M) for entry in cover]
    offsets = [0]
    for SM, _, _ in level1:
        offsets.append(offsets[-1] + SM.dim)
    e = [{} for _ in range(M.dim)]
    for (SM, _, unit), off in zip(level1, offsets):
        for c in range(M.dim):
            e[c].update(
                (off + r, unit[r][c]) for r in range(SM.dim) if unit[r][c]
            )
    d0 = [{} for _ in range(offsets[-1])]
    d1 = [{} for _ in range(offsets[-1])]
    row_off = 0
    for i, (ei, (_, Qi, _)) in enumerate(zip(cover, level1)):
        for j, (SMj, _, unitj) in enumerate(level1):
            SSM, Q2, unit2 = tensor_algebra_module(ei, SMj)
            km2 = SMj.dim
            for col in range(km2):
                d1[offsets[j] + col].update(
                    (row_off + r, unit2[r][col])
                    for r in range(SSM.dim) if unit2[r][col]
                )
            # s_a (x) m_b |-> s_a (x) (1_{S_j} (x) m_b); well defined
            # because the assignment is balanced over R
            for col, c in enumerate(Qi.free):
                a, b = divmod(c, M.dim)
                img = Q2.project(
                    {a * km2 + t: unitj[t][b] for t in range(km2) if unitj[t][b]}
                )
                d0[offsets[i] + col].update(
                    (row_off + r, x) for r, x in enumerate(img) if x
                )
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
        _image([d0c, d1c], {0: 1, 1: p - 1}, p) for d0c, d1c in zip(d0, d1)
    ]
    for c, col in enumerate(e):
        if _image(diff, col, p):
            v.fail(f"coface maps disagree on 1 (x) m_{c}")
    if not v.ok:
        return v

    pivots, _ = linalg.echelon(((col, None) for col in diff), p)
    ker_dim = len(diff) - len(pivots)
    if ker_dim != M.dim:
        v.fail(f"equalizer dimension {ker_dim} differs from dim M = {M.dim}")

    if v.ok and purity_probe is not None:
        TM, _, _ = tensor_algebra_module(purity_probe, M)
        TM.name = f"{purity_probe.name}(x){M.name}"
        v.merge(check_descent(cover, TM, _depth=_depth + 1))
    return v
