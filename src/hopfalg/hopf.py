"""Hopf algebroids: the data type, bimodule tensor squares/cubes, and
degreewise axiom verification.  Points and their composition over finite
rings live in `groupoid`.

Conventions.  Gamma is required to be free as an A-algebra via eta_L on a
declared list of morphism generators; the remaining "base" generators of
Gamma must mirror A's generators by name, degree, and relations, and eta_L
must send each A-generator to its mirror.  The tensor square realizes
Gamma_{eta_R} (x)_A Gamma_{eta_L}: its generators are Gamma's plus a tagged
right copy of each morphism generator, and the right copy of a base
generator b rewrites to eta_R(b) in the left factor (the balanced
relation).  The tensor cube adds a middle copy the same way.

Every map into or out of the square and the cube (the inclusions, the
counit and antipode composites, slots 1-2 and 2-3 of the cube, Delta (x) 1
and 1 (x) Delta) is a RingMorphism whose generator images are computed
once; `RingMorphism.monomial` does all the multiplying out."""
from __future__ import annotations

from .errors import (
    InfiniteBasis,
    NotFreeOverA,
    Verdict,
)
from .presentation import (
    Element,
    GradedPresentation,
    RingMorphism,
    Rule,
)

R_TAG = "'"
M_TAG = "''"


def _embed_terms(elem, target, offset=0):
    """Reinterpret an element in a target presentation whose generator list
    starts with the source's generators (plus `offset` leading slots)."""
    pad = len(target.gens) - len(elem.pres.gens) - offset
    raw = []
    for m, c in elem.terms.items():
        raw.append((c, (0,) * offset + tuple(m) + (0,) * pad))
    out = target.element(raw)
    if elem.truncated:
        out = Element(target, out.terms, True)
    return out


def _extend_presentation(Gamma, morphism_gens, copy_tags, copies, name):
    """Build Gamma extended by tagged copies of its morphism generators.

    copies(provisional, slots) returns, for each tag, the RingMorphism from
    Gamma onto that copy in the provisional presentation; it transports
    power-rule right-hand sides onto the copies."""
    gens = list(Gamma.gens)
    slots = {}
    for tag in copy_tags:
        for i in morphism_gens:
            slots[(tag, i)] = len(gens)
            gens.append((Gamma.names[i] + tag, Gamma.degrees[i]))
    pad = len(gens) - len(Gamma.gens)
    relations = {
        i: Rule(r.power, tuple((c, m + (0,) * pad) for c, m in r.rhs))
        for i, r in Gamma.rules.items()
    }
    inverted = set(Gamma.inverted)
    provisional = GradedPresentation(
        Gamma.mode, gens, relations, inverted, Gamma.truncation, name=name + "~"
    )
    copy_rules = {}
    for tag, embed in copies(provisional, slots).items():
        for i in morphism_gens:
            rule = Gamma.rules.get(i)
            if rule is None:
                continue
            rhs_elem = embed(Gamma.element([(c, m) for c, m in rule.rhs]))
            copy_rules[slots[(tag, i)]] = (
                rule.power,
                [(c, m) for m, c in rhs_elem.terms.items()],
            )
    final_relations = dict(relations)
    final_relations.update(copy_rules)
    return (
        GradedPresentation(
            Gamma.mode, gens, final_relations, inverted, Gamma.truncation, name=name
        ),
        slots,
    )


def _copy_map(A, Gamma, etaR, P, slots, tag, through=None):
    """The ring map Gamma -> P onto the copy `tag`: a morphism generator
    goes to its tagged copy, a base generator b to eta_R(b) in the factor
    to the copy's left, reached through the map `through` (default: P's
    leading Gamma generators)."""
    images = []
    for i, gname in enumerate(Gamma.names):
        slot = slots.get((tag, i))
        if slot is not None:
            images.append(P.gen(slot))
            continue
        b = etaR(A.gen(A.index[gname]))
        images.append(_embed_terms(b, P) if through is None else through(b))
    return RingMorphism(Gamma, P, images, name="incl" + tag)


class TensorSquare:
    """Gamma tensor_A Gamma with both inclusion morphisms."""

    def __init__(self, A, Gamma, morphism_gens, etaR, name="TS"):
        def copies(P, slots):
            return {R_TAG: _copy_map(A, Gamma, etaR, P, slots, R_TAG)}

        self.pres, self.slots = _extend_presentation(
            Gamma, morphism_gens, [R_TAG], copies, name
        )
        self.Gamma = Gamma
        n = len(Gamma.gens)
        self.incl_l = RingMorphism(
            Gamma, self.pres, [self.pres.gen(i) for i in range(n)], name="incl_l"
        )
        self.incl_r = _copy_map(A, Gamma, etaR, self.pres, self.slots, R_TAG)
        self._slot_origin = {s: i for (_, i), s in self.slots.items()}

    def split_monomial(self, m):
        """Split a tensor-square monomial into (left Gamma-monomial, base
        exponents included; right Gamma-monomial), both full-width
        exponent tuples over Gamma's generators."""
        n = len(self.Gamma.gens)
        right = [0] * n
        for j in range(n, len(m)):
            right[self._slot_origin[j]] = m[j]
        return tuple(m[:n]), tuple(right)


class TensorCube:
    """Gamma tensor_A Gamma tensor_A Gamma, for coassociativity."""

    def __init__(self, A, Gamma, morphism_gens, etaR, name="TC"):
        def copies(P, slots):
            middle = _copy_map(A, Gamma, etaR, P, slots, M_TAG)
            right = _copy_map(A, Gamma, etaR, P, slots, R_TAG, through=middle)
            return {M_TAG: middle, R_TAG: right}

        self.pres, self.slots = _extend_presentation(
            Gamma, morphism_gens, [M_TAG, R_TAG], copies, name
        )
        self.Gamma = Gamma


class HopfAlgebroid:
    """The pair (A, Gamma) with structure maps eta_L, eta_R, eps, c, Delta.

    delta is supplied as generator images for the morphism generators only
    (raw (coeff, exponents) terms or Elements laid out in the tensor-square
    generator order); base generators get the forced image incl_l(gen)."""

    def __init__(self, A, Gamma, morphism_gens, etaL, etaR, eps, c, delta_images, name=""):
        self.A = A
        self.Gamma = Gamma
        self.name = name
        self.morphism_order = tuple(
            sorted(g if isinstance(g, int) else Gamma.index[g] for g in morphism_gens)
        )
        self.morphism_gens = frozenset(self.morphism_order)
        self._check_alignment(etaL)
        self.etaL = etaL
        self.etaR = etaR
        self.eps = eps
        self.c = c
        self.ts = TensorSquare(
            A, Gamma, self.morphism_order, etaR, name=(name or "H") + ".TS"
        )
        images = []
        for i in range(len(Gamma.gens)):
            if i in self.morphism_gens:
                img = delta_images[Gamma.names[i]]
                if isinstance(img, Element):
                    img = self.ts.pres.element(
                        [(cc, m) for m, cc in img.terms.items()]
                    )
                else:
                    img = self.ts.pres.element(img)
                images.append(img)
            else:
                images.append(self.ts.incl_l(Gamma.gen(i)))
        self.delta = RingMorphism(Gamma, self.ts.pres, images, name="delta")
        self._tc = None

    def _check_alignment(self, etaL):
        base = [i for i in range(len(self.Gamma.gens)) if i not in self.morphism_gens]
        if len(base) != len(self.A.gens):
            raise NotFreeOverA(
                "base generators of Gamma do not match A's generators"
            )
        for a, i in enumerate(base):
            if self.Gamma.gens[i] != self.A.gens[a]:
                raise NotFreeOverA(
                    f"generator mismatch: {self.Gamma.gens[i]} vs {self.A.gens[a]}"
                )
            if etaL(self.A.gen(a)) != self.Gamma.gen(i):
                raise NotFreeOverA(
                    f"eta_L must send {self.A.names[a]} to its mirror in Gamma"
                )

    @property
    def tc(self):
        if self._tc is None:
            self._tc = TensorCube(
                self.A,
                self.Gamma,
                self.morphism_order,
                self.etaR,
                name=(self.name or "H") + ".TC",
            )
        return self._tc

    # -- module-basis enumeration (freeness over A via eta_L) -----------

    def morphism_monomials(self, degree=None, weight_cap=None):
        """Exponent vectors over the morphism generators (power-rule
        bounded) with total weight <= cap; if degree is given, restrict to
        that degree.  Returns full-width exponent tuples over Gamma."""
        Gamma = self.Gamma
        cap = Gamma.truncation if weight_cap is None else weight_cap
        order = self.morphism_order
        for i in order:
            if Gamma.degrees[i] <= 0 and Gamma.rules.get(i) is None:
                raise InfiniteBasis(
                    f"morphism generator {Gamma.names[i]} of nonpositive degree"
                )
        out = []

        def rec(pos, expo, wt, deg):
            if pos == len(order):
                if degree is None or deg == degree:
                    out.append(tuple(expo))
                return
            i = order[pos]
            d = Gamma.degrees[i]
            rule = Gamma.rules.get(i)
            lim = rule.power if rule is not None else None
            e = 0
            while True:
                if lim is not None and e >= lim:
                    break
                w = wt + e * d
                if w > cap:
                    break
                expo[i] = e
                rec(pos + 1, expo, w, deg + e * d)
                expo[i] = 0
                e += 1

        rec(0, [0] * len(Gamma.gens), 0, 0)
        return sorted(out)


def check_hopf_axioms(H, bound):
    """Verify the Hopf algebroid identities on all generators of degree
    <= bound (in absolute value)."""
    v = Verdict()
    A, Gamma = H.A, H.Gamma
    ts, tc = H.ts, H.tc
    incl_l, incl_r = ts.incl_l, ts.incl_r
    n = len(Gamma.gens)

    # counit composites eps . eta = id on A-generators
    for a in range(len(A.gens)):
        if abs(A.degrees[a]) > bound:
            continue
        ga = A.gen(a)
        if H.eps(H.etaL(ga)) != ga:
            v.fail(f"eps.etaL != id at {A.names[a]}")
        if H.eps(H.etaR(ga)) != ga:
            v.fail(f"eps.etaR != id at {A.names[a]}")

    # maps out of TS, given by the images of Gamma's generators in the
    # left factor and of the right copies of the morphism generators
    def ts_map(target, l_image, r_image, name):
        images = [l_image(i) for i in range(n)]
        images += [r_image(i) for i in H.morphism_order]
        return RingMorphism(ts.pres, target, images, name=name, check_degrees=False)

    eps1 = ts_map(Gamma, lambda i: H.etaL(H.eps(Gamma.gen(i))), Gamma.gen, "eps@1")
    one_eps = ts_map(Gamma, Gamma.gen, lambda i: H.etaR(H.eps(Gamma.gen(i))), "1@eps")
    mu_1c = ts_map(Gamma, Gamma.gen, lambda i: H.c(Gamma.gen(i)), "mu(1@c)")
    mu_c1 = ts_map(Gamma, lambda i: H.c(Gamma.gen(i)), Gamma.gen, "mu(c@1)")

    # TS -> TC for coassociativity: slots12 and slots23 put the square into
    # slots 1-2 and 2-3 of the cube (a base generator in the middle slot
    # acts through eta_R); (Delta (x) 1) and (1 (x) Delta) follow from them
    def copy(tag):
        return lambda j: tc.pres.gen(tc.slots[(tag, j)])

    middle = _copy_map(A, Gamma, H.etaR, tc.pres, tc.slots, M_TAG)
    slots12 = ts_map(tc.pres, tc.pres.gen, copy(M_TAG), "slots12")
    slots23 = ts_map(tc.pres, middle.image, copy(R_TAG), "slots23")
    delta_left = ts_map(
        tc.pres, lambda i: slots12(H.delta.image(i)), copy(R_TAG), "Delta@1"
    )
    delta_right = ts_map(
        tc.pres, tc.pres.gen, lambda j: slots23(H.delta.image(j)), "1@Delta"
    )

    for i in range(n):
        if abs(Gamma.degrees[i]) > bound:
            continue
        g = Gamma.gen(i)
        dg = H.delta(g)
        if eps1(dg) != g:
            v.fail(f"(eps@1)Delta != id at {Gamma.names[i]}: {eps1(dg)!r}")
        if one_eps(dg) != g:
            v.fail(f"(1@eps)Delta != id at {Gamma.names[i]}: {one_eps(dg)!r}")
        lhs = delta_left(dg)
        rhs = delta_right(dg)
        if lhs != rhs:
            v.fail(
                f"coassociativity fails at {Gamma.names[i]}: "
                f"{(lhs - rhs)!r}"
            )
        if H.c(H.c(g)) != g:
            v.fail(f"c.c != id at {Gamma.names[i]}")
        lhs = mu_1c(dg)
        rhs = H.etaL(H.eps(g))
        if lhs != rhs:
            v.fail(f"mu(1@c)Delta != etaL.eps at {Gamma.names[i]}: {(lhs-rhs)!r}")
        lhs = mu_c1(dg)
        rhs = H.etaR(H.eps(g))
        if lhs != rhs:
            v.fail(f"mu(c@1)Delta != etaR.eps at {Gamma.names[i]}: {(lhs-rhs)!r}")

    for a in range(len(A.gens)):
        if abs(A.degrees[a]) > bound:
            continue
        ga = A.gen(a)
        if H.delta(H.etaL(ga)) != incl_l(H.etaL(ga)):
            v.fail(f"Delta.etaL != incl_l.etaL at {A.names[a]}")
        if H.delta(H.etaR(ga)) != incl_r(H.etaR(ga)):
            v.fail(f"Delta.etaR != incl_r.etaR at {A.names[a]}")
        if H.c(H.etaL(ga)) != H.etaR(ga):
            v.fail(f"c.etaL != etaR at {A.names[a]}")
        if H.c(H.etaR(ga)) != H.etaL(ga):
            v.fail(f"c.etaR != etaL at {A.names[a]}")
    return v
