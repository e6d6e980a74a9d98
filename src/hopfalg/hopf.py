"""Hopf algebroids: the data type, the bimodule tensor powers, and
degreewise axiom verification.  Points and their composition over finite
rings live in `groupoid`.

Conventions.  Gamma is free as an A-algebra via eta_L on a declared list
of morphism generators; the other, "base" generators mirror A's by name
and degree.  The laws eps.eta_L = id, c.eta_L = eta_R and Delta.eta_L =
incl_l.eta_L (Ravenel, Complex Cobordism, A1.1.1) then force eta_L and
eps, c, Delta on the base generators: an algebroid is built from eta_R
and the images of the morphism generators, Delta's written in the square
the algebroid builds.  The tensor power
Gamma^{(x)k} (k composable morphisms; the square k = 2 holds Delta, the
cube k = 3 checks coassociativity) has Gamma's generators as its factor
0 and one copy of each morphism generator for every further factor.
Factor j's inclusion sends a base generator b to factor j-1's image of
eta_R(b): the balanced relation of Gamma_{eta_R} (x)_A Gamma_{eta_L}.

Every map into or out of the square and the cube (the factor inclusions,
the counit and antipode composites, the square in factors 0-1 and 1-2 of
the cube, Delta (x) 1 and 1 (x) Delta) is a RingMorphism whose generator
images are computed once; `RingMorphism.monomial` does all the
multiplying out.  The BP towers, their squares and cubes have no power
rule and no odd generator, so it multiplies packed monomials there, one
int addition per product of two terms (see `presentation._Packer`)."""
from __future__ import annotations

import weakref
from functools import cached_property
from itertools import islice

from .errors import InputError, NotFreeOverA, Verdict
from .presentation import (
    GradedPresentation,
    RingMorphism,
    Rule,
    exponent_vectors,
)


class TensorPower:
    """Gamma (x)_A ... (x)_A Gamma with k factors: the composable k-tuples
    of morphisms.

    The generators are Gamma's (factor 0), then for each factor j = 1..k-1
    a copy of every morphism generator, named with the suffix "'" * (k-j);
    `slots[(j, i)]` is the index of factor j's copy of generator i.
    Factor j's inclusion sends a morphism generator to its copy and a base
    generator b to factor j-1's image of eta_R(b) (the balanced relation).
    The copies carry their originals' power rules, transported through
    these inclusions.  An algebroid builds its square `ts` and cube `tc`;
    no other module constructs a tensor power."""

    def __init__(self, A, Gamma, morphism_gens, etaR, k, name=""):
        self.A, self.Gamma, self.etaR, self.k = A, Gamma, etaR, k
        gens = list(Gamma.gens)
        self.slots = {}
        for j in range(1, k):
            for i in morphism_gens:
                self.slots[(j, i)] = len(gens)
                gens.append((Gamma.names[i] + "'" * (k - j), Gamma.degrees[i]))
        pad = len(gens) - len(Gamma.gens)
        relations = {
            i: Rule(r.power, tuple((c, m + (0,) * pad) for c, m in r.rhs))
            for i, r in Gamma.rules.items()
        }
        ruled = [i for i in morphism_gens if i in Gamma.rules]
        if ruled:
            provisional = GradedPresentation(
                Gamma.mode, gens, relations, Gamma.inverted, Gamma.truncation,
                name=name + "~",
            )
            factors = self.inclusions(provisional)
            next(factors)  # factor 0 carries Gamma's own rules
            for j, incl in enumerate(factors, 1):
                for i in ruled:
                    rule = Gamma.rules[i]
                    rhs = incl(Gamma.element(list(rule.rhs)))
                    relations[self.slots[(j, i)]] = (
                        rule.power,
                        [(c, m) for m, c in rhs.terms.items()],
                    )
        self.pres = GradedPresentation(
            Gamma.mode, gens, relations, Gamma.inverted, Gamma.truncation,
            name=name,
        )
        # the cube's last factor is never built: `check_hopf_axioms`
        # reaches it through its copies alone
        self.incl_l, self.incl_r = islice(self.inclusions(), 2)

    def inclusions(self, P=None):
        """Factor j's inclusion Gamma -> P (default: this tensor power's
        presentation) for j = 0, ..., k-1, each built when asked for."""
        A, Gamma = self.A, self.Gamma
        if P is None:
            P = self.pres
        through = RingMorphism(
            Gamma, P, [P.gen(i) for i in range(len(Gamma.gens))], name="incl0"
        )
        yield through
        for j in range(1, self.k):
            images = []
            for i, gname in enumerate(Gamma.names):
                slot = self.slots.get((j, i))
                if slot is not None:
                    images.append(P.gen(slot))
                else:
                    images.append(through(self.etaR(A.gen(A.index[gname]))))
            through = RingMorphism(Gamma, P, images, name=f"incl{j}")
            yield through

    def map_out(self, target, left, right, name=""):
        """The map out of the square (k = 2) into `target` that sends
        Gamma's generator i in the left factor to left(i) and the right
        copy of morphism generator i to right(i)."""
        images = [left(i) for i in range(len(self.Gamma.gens))]
        images += [right(i) for _, i in self.slots]
        return RingMorphism(self.pres, target, images, name=name)

    def split_monomial(self, m):
        """Split a monomial into the k factors' Gamma-monomials, full-width
        exponent tuples over Gamma's generators; factor 0 holds the base
        exponents."""
        n = len(self.Gamma.gens)
        parts = [list(m[:n])] + [[0] * n for _ in range(1, self.k)]
        for (j, i), s in self.slots.items():
            parts[j][i] = m[s]
        return tuple(map(tuple, parts))


class HopfAlgebroid:
    """The pair (A, Gamma) with structure maps eta_L, eta_R, eps, c, Delta.

    eps and c map each morphism generator's name to its image, an Element
    of A and of Gamma.  Delta's target, the tensor square, is fixed by
    (A, Gamma, eta_R): the algebroid builds it as `ts`, and `delta` is a
    function ts -> {name: image}, an Element of `ts.pres`, written through
    `ts.incl_l` and `ts.incl_r`.  A missing or unknown name, or an image
    of another presentation, is an InputError.  eta_L sends each
    A-generator a to its mirror b, and eps(b) = a, c(b) = eta_R(a),
    Delta(b) = incl_l(b)."""

    def __init__(self, A, Gamma, morphism_gens, etaR, eps, c, delta, name=""):
        self.A = A
        self.Gamma = Gamma
        self.name = name
        self.morphism_order = tuple(
            sorted(g if isinstance(g, int) else Gamma.index[g] for g in morphism_gens)
        )
        self.morphism_gens = frozenset(self.morphism_order)
        # Gamma's positions of the base generators, in A's order
        self.base_order = tuple(
            i for i in range(len(Gamma.gens)) if i not in self.morphism_gens
        )
        self._check_alignment()
        self.etaL = RingMorphism(
            A, Gamma, [Gamma.gen(i) for i in self.base_order], name="etaL"
        )
        self.etaR = etaR
        self.eps = self._derived("eps", A, map(A.gen, range(len(A.gens))), eps)
        self.c = self._derived("c", Gamma, etaR.images, c)
        self.ts = TensorPower(
            A, Gamma, self.morphism_order, etaR, 2, name=(name or "H") + ".TS"
        )
        incl_l = [self.ts.incl_l(Gamma.gen(i)) for i in self.base_order]
        self.delta = self._derived("delta", self.ts.pres, incl_l, delta(self.ts))
        self.groupoids = {}  # (ring, budget) -> groupoid, filled by evaluate_groupoid
        # f_0 -> (B (x)_A Gamma, Gamma_f) while f_0 lives, filled by morita
        self.induced = weakref.WeakKeyDictionary()

    def _check_alignment(self):
        base = tuple(self.Gamma.gens[i] for i in self.base_order)
        if base != self.A.gens:
            raise NotFreeOverA(
                f"Gamma's base generators {base} do not mirror A's {self.A.gens}"
            )

    def _derived(self, name, target, forced, given):
        """The map Gamma -> target sending the base generators to `forced`
        (in A's order) and each morphism generator to its image in
        `given`, an Element of target."""
        given, Gamma = dict(given), self.Gamma
        images = dict(zip(self.base_order, forced))
        for i in self.morphism_order:
            img = given.pop(Gamma.names[i], None)
            if img is None:
                raise InputError(f"{name} needs an image of {Gamma.names[i]}")
            if getattr(img, "pres", None) is not target:
                raise InputError(
                    f"{name}({Gamma.names[i]}) is not an element of {target!r}"
                )
            images[i] = img
        if given:
            raise InputError(
                f"{name}: not a morphism generator: {', '.join(sorted(given))}"
            )
        images = [images[i] for i in range(len(Gamma.gens))]
        return RingMorphism(Gamma, target, images, name=name)

    @cached_property
    def tc(self):
        return TensorPower(
            self.A,
            self.Gamma,
            self.morphism_order,
            self.etaR,
            3,
            name=(self.name or "H") + ".TC",
        )

    # -- module-basis enumeration (freeness over A via eta_L) -----------

    def morphism_monomials(self):
        """Exponent vectors over the morphism generators, bounded by
        Gamma's normal-form rule, with weight <= Gamma's truncation bound,
        sorted.  Returns full-width exponent tuples over Gamma."""
        Gamma = self.Gamma
        return exponent_vectors(
            len(Gamma.gens), Gamma.exponent_factors(self.morphism_order),
            Gamma.truncation,
        )


def check_hopf_axioms(H, bound):
    """Verify the Hopf algebroid identities on all generators of degree
    <= bound (in absolute value)."""
    v = Verdict()
    A, Gamma = H.A, H.Gamma
    ts, tc = H.ts, H.tc
    n = len(Gamma.gens)

    # eps, c and Delta are derived on eta_L(A); the laws at eta_R remain,
    # each read off eta_R(a), evaluated once per generator.  c(eta_R(a))
    # is formed once too: by the c.c law at a's mirror b when c(b) is
    # eta_R(a), as the derivation makes it, and reused by the c.etaR law
    at_etaR = {
        a: (A.gen(a), H.etaR(A.gen(a)))
        for a in range(len(A.gens))
        if abs(A.degrees[a]) <= bound
    }
    mirror = dict(zip(H.base_order, range(len(A.gens))))
    c_etaR = {}
    for a, (ga, ra) in at_etaR.items():
        if H.eps(ra) != ga:
            v.fail(f"eps.etaR != id at {A.names[a]}")

    # maps out of TS, given by the images of Gamma's generators in the
    # left factor and of the right copies of the morphism generators
    eps1 = ts.map_out(Gamma, lambda i: H.etaL(H.eps.image(i)), Gamma.gen, "eps@1")
    one_eps = ts.map_out(Gamma, Gamma.gen, lambda i: H.etaR(H.eps.image(i)), "1@eps")
    mu_1c = ts.map_out(Gamma, Gamma.gen, H.c.image, "mu(1@c)")
    mu_c1 = ts.map_out(Gamma, H.c.image, Gamma.gen, "mu(c@1)")

    # TS -> TC for coassociativity: the square put into factors j, j+1 of
    # the cube (a base generator in factor 1 acts through eta_R);
    # (Delta (x) 1) and (1 (x) Delta) follow from it
    def copy(j):
        return lambda i: tc.pres.gen(tc.slots[(j, i)])

    into01 = ts.map_out(tc.pres, tc.incl_l.image, copy(1), "into01")
    into12 = ts.map_out(tc.pres, tc.incl_r.image, copy(2), "into12")
    delta_left = ts.map_out(
        tc.pres, lambda i: into01(H.delta.image(i)), copy(2), "Delta@1"
    )
    delta_right = ts.map_out(
        tc.pres, tc.incl_l.image, lambda i: into12(H.delta.image(i)), "1@Delta"
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
        cg = H.c(g)
        cc = H.c(cg)
        a = mirror.get(i)
        if a in at_etaR and cg == at_etaR[a][1]:
            c_etaR[a] = cc
        if cc != g:
            v.fail(f"c.c != id at {Gamma.names[i]}")
        lhs = mu_1c(dg)
        rhs = H.etaL(H.eps(g))
        if lhs != rhs:
            v.fail(f"mu(1@c)Delta != etaL.eps at {Gamma.names[i]}: {(lhs-rhs)!r}")
        lhs = mu_c1(dg)
        rhs = H.etaR(H.eps(g))
        if lhs != rhs:
            v.fail(f"mu(c@1)Delta != etaR.eps at {Gamma.names[i]}: {(lhs-rhs)!r}")

    for a, (ga, ra) in at_etaR.items():
        if H.delta(ra) != ts.incl_r(ra):
            v.fail(f"Delta.etaR != incl_r.etaR at {A.names[a]}")
        cra = c_etaR[a] if a in c_etaR else H.c(ra)
        if cra != H.etaL(ga):
            v.fail(f"c.etaR != etaL at {A.names[a]}")
    return v
