"""Maps of Hopf algebroids, the induced algebroid Gamma_f, the combined map
eta_L (x) f_1 (x) eta_R, and internal-equivalence certificates.

The supported base maps f_0: A -> B are quotient-then-localize maps: B's
generators mirror A's by name and degree, f_0 sends each generator to its
mirror, and B's own rules do any killing/inverting.  B's base mode is
Gamma's, or F_p where Gamma's is Z_(p): f_0 may reduce mod p, as BP_* ->
v_n^{-1}BP_*/I_n does; every other change of mode is refused.  Under
that hypothesis B (x)_A Gamma (x)_A B collapses to a presentation on B's
generators plus Gamma's morphism generators: the right B-factor is
eliminated through eta_R, and every A-generator killed by f_0
contributes the relation (f_0 (x) 1)(eta_R(a)) = 0, converted to a power
rule by extracting a leading pure power with graded-unit coefficient."""
from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import (
    AxiomFailure,
    DegreeError,
    IllegalExponent,
    InfiniteBasis,
    InputError,
    SearchBudgetExceeded,
    SolveFailure,
    UnsupportedBaseMap,
    Verdict,
)
from .hopf import HopfAlgebroid, check_hopf_axioms
from .presentation import (
    GradedPresentation,
    RingMorphism,
    Rule,
    exponent_vectors,
    reduce_mod,
)


@dataclass
class HopfMap:
    source: HopfAlgebroid
    target: HopfAlgebroid
    f0: RingMorphism
    f1: RingMorphism
    name: str = ""


def check_hopf_map(f, bound):
    """Verify the intertwining identities of a Hopf algebroid map."""
    v = Verdict()
    src, tgt = f.source, f.target
    for a in range(len(src.A.gens)):
        if abs(src.A.degrees[a]) > bound:
            continue
        ga = src.A.gen(a)
        if f.f1(src.etaL(ga)) != tgt.etaL(f.f0(ga)):
            v.fail(f"f1.etaL != etaL.f0 at {src.A.names[a]}")
        if f.f1(src.etaR(ga)) != tgt.etaR(f.f0(ga)):
            v.fail(f"f1.etaR != etaR.f0 at {src.A.names[a]}")
    # f1 (x) f1 between the tensor squares, for the Delta compatibility
    f1_f1 = src.ts.map_out(
        tgt.ts.pres, lambda i: tgt.ts.incl_l(f.f1.image(i)),
        lambda i: tgt.ts.incl_r(f.f1.image(i)), "f1@f1",
    )
    for i in range(len(src.Gamma.gens)):
        if abs(src.Gamma.degrees[i]) > bound:
            continue
        g = src.Gamma.gen(i)
        if tgt.eps(f.f1(g)) != f.f0(src.eps(g)):
            v.fail(f"eps.f1 != f0.eps at {src.Gamma.names[i]}")
        if tgt.c(f.f1(g)) != f.f1(src.c(g)):
            v.fail(f"c.f1 != f1.c at {src.Gamma.names[i]}")
        lhs = tgt.delta(f.f1(g))
        rhs = f1_f1(src.delta(g))
        if lhs != rhs:
            v.fail(f"Delta.f1 != (f1@f1).Delta at {src.Gamma.names[i]}: {(lhs-rhs)!r}")
    return v


def _require_supported(H, f0):
    A, B = H.A, f0.target
    if len(B.gens) != len(A.gens):
        raise UnsupportedBaseMap("B's generators must mirror A's")
    for i, (ag, bg) in enumerate(zip(A.gens, B.gens)):
        if ag != bg:
            raise UnsupportedBaseMap(f"generator mismatch {ag} vs {bg}")
        if f0.images[i] != B.gen(i):
            raise UnsupportedBaseMap(
                f"f0 must send {A.names[i]} to its mirror (got {f0.images[i]!r})"
            )
    a, b = H.Gamma.mode, B.mode
    if b != a and not (a.kind == "plocal" and b.kind == "fp" and b.p == a.p):
        raise UnsupportedBaseMap(
            f"base map from {a.kind} mode (p={a.p}) to {b.kind} mode (p={b.p}):"
            " only Z_(p) -> F_p may change the base mode"
        )


def _collapse(H):
    """The map moving the exponents of a Gamma-monomial, or of a monomial
    of its tensor square, into the collapsed pair's generator order: the
    base generators (A's order), then the morphism generators, then the
    square's right copies.  Gamma may list a base generator after a
    morphism generator, so the exponents move by `H.base_order`, not by
    position."""
    order = H.base_order + H.morphism_order
    return lambda m: tuple(m[j] for j in order) + m[len(order):]


def collapsed_pair(H, f0):
    """B (x)_A Gamma as a presentation: B's generators plus Gamma's
    morphism generators, all A-coefficients pushed through f_0."""
    _require_supported(H, f0)
    B, Gamma = f0.target, H.Gamma
    nb = len(B.gens)
    gens = list(B.gens) + [Gamma.gens[i] for i in H.morphism_order]
    relations = {i: r for i, r in B.rules.items()}
    move = _collapse(H)
    for pos, i in enumerate(H.morphism_order):
        rule = Gamma.rules.get(i)
        if rule is not None:
            relations[nb + pos] = Rule(
                rule.power, tuple((c, move(m)) for c, m in rule.rhs)
            )
    return GradedPresentation(
        B.mode,
        gens,
        relations,
        inverted=B.inverted,
        truncation=Gamma.truncation,
        name=f"{B.name}(x){Gamma.name}",
    )


def _extract_power_rule(P, u, taken):
    """Turn the relation u = 0 into a power rule g^e -> rhs.

    Picks the term whose non-inverted support is a single generator,
    maximizing (generator index, exponent); the coefficient may carry a
    unit monomial in inverted generators.  A lead coefficient that is not
    a unit of the base (say 3 over Z_(3)) gives no such rule:
    UnsupportedBaseMap."""
    candidates = []
    for mono, coeff in u.terms.items():
        support = [
            (i, e) for i, e in enumerate(mono) if e != 0 and i not in P.inverted
        ]
        if len(support) == 1 and support[0][1] >= 1:
            candidates.append((support[0], mono, coeff))
    candidates = [c for c in candidates if c[0][0] not in taken]
    if not candidates:
        raise UnsupportedBaseMap(
            f"cannot extract a rewrite rule from relation {u!r}"
        )
    (i, e), mono, coeff = max(candidates, key=lambda c: c[0])
    # divide out the unit part: rule rhs = -(u - term) / (coeff * inverted part)
    unit_mono = tuple(-x if j in P.inverted else 0 for j, x in enumerate(mono))
    try:
        coeff_inv = P.mode.inv(coeff)
    except SolveFailure:
        raise UnsupportedBaseMap(
            f"lead coefficient {coeff} of relation {u!r} is not a unit"
        ) from None
    lead = P.monomial_element(mono, coeff)
    rest = u - lead
    rhs = (-rest) * P.monomial_element(unit_mono, coeff_inv)
    return i, e, rhs


def _induced_presentation(H, f0, name=None):
    """Gamma_f's presentation, named `name` (default "Gamma_f[B]"): the
    collapsed pair C = B (x)_A Gamma with the power rules derived from
    eta_R of the A-generators f_0 newly kills.  Returns (C, Gamma_f's
    presentation, h = f_0 (x) eta_R: A -> C), kept in H.induced while f_0
    lives; h is the one move of eta_R(A) into C."""
    if f0 in H.induced:
        return H.induced[f0]
    A, B = H.A, f0.target
    prov = collapsed_pair(H, f0)
    move = _collapse(H)
    h = RingMorphism(
        A, prov,
        [reduce_mod(H.etaR(A.gen(i)), prov, move) for i in range(len(A.gens))],
        name="h",
    )
    newly_killed = [
        i for i in range(len(A.gens)) if B.gen(i).is_zero() and not A.gen(i).is_zero()
    ]
    relations = dict(prov.rules)
    taken = set()
    for a in newly_killed:
        u = h.images[a]
        if u.is_zero():
            continue
        i, e, rhs = _extract_power_rule(prov, u, taken)
        taken.add(i)
        relations[i] = Rule(e, tuple((c, m) for m, c in rhs.terms.items()))
    try:
        P2 = GradedPresentation(
            B.mode,
            prov.gens,
            relations,
            inverted=prov.inverted,
            truncation=prov.truncation,
            name=name or f"Gamma_f[{B.name}]",
        )
    except (InputError, DegreeError, IllegalExponent) as exc:
        raise UnsupportedBaseMap(f"derived relations unusable: {exc}") from exc
    for a in newly_killed:
        if not reduce_mod(h.images[a], P2).is_zero():
            raise UnsupportedBaseMap(
                f"relation from eta_R({A.names[a]}) does not rewrite to zero"
            )
    H.induced[f0] = prov, P2, h
    return prov, P2, h


def induced_algebroid(H, f0, names=None):
    """The canonical map to (B, Gamma_f), whose target carries the five
    structure maps; AxiomFailure unless Gamma_f passes `check_hopf_axioms`.
    `names` is (the algebroid's name, Gamma_f's name), by default
    ("(B,Gamma_f)", "Gamma_f[B]") with B's name for B."""
    B, Gamma = f0.target, H.Gamma
    nb = len(B.gens)
    if names is None:
        names = f"({B.name},Gamma_f)", None
    _, P2, h = _induced_presentation(H, f0, names[1])

    move = _collapse(H)
    etaR = RingMorphism(
        B, P2, [reduce_mod(img, P2) for img in h.images], name="etaR"
    )

    def images(move_image):
        return {Gamma.names[i]: move_image(i) for i in H.morphism_order}

    Hf = HopfAlgebroid(
        B,
        P2,
        range(nb, len(P2.gens)),
        etaR,
        images(lambda i: f0(H.eps.images[i])),
        images(lambda i: reduce_mod(H.c.images[i], P2, move)),
        lambda ts: images(lambda i: reduce_mod(H.delta.images[i], ts.pres, move)),
        name=names[0],
    )
    v = check_hopf_axioms(Hf, P2.truncation)
    if not v:
        raise AxiomFailure(f"induced algebroid fails axioms: {v.summary()}")
    f1 = RingMorphism(
        Gamma,
        P2,
        [reduce_mod(Gamma.gen(i), P2, move) for i in range(len(Gamma.gens))],
        name="f1",
    )
    return HopfMap(H, Hf, f0, f1, name="canonical")


def combined_map(f):
    """eta_L (x) f_1 (x) eta_R : B (x)_A Gamma (x)_A B -> Sigma.  The right
    B-factor is eliminated through eta_R, so the source presentation is
    the induced algebroid's Gamma_f."""
    source = _induced_presentation(f.source, f.f0)[1]
    Sigma = f.target.Gamma
    nb = len(f.target.A.gens)
    images = [f.target.etaL(f.target.A.gen(i)) for i in range(nb)]
    for i in f.source.morphism_order:
        images.append(f.f1(f.source.Gamma.gen(i)))
    return RingMorphism(source, Sigma, images, name="combined")


def check_iso(m, bound):
    """Degreewise invertibility of a morphism on degree bases, decided over
    the coefficient ring: in every degree |t| <= bound the matrix of m
    must be square with a determinant that is a unit of the target's base
    (x -> 3x is an isomorphism over Q but not over Z_(3))."""
    v = Verdict()
    src, tgt = m.source, m.target
    for t in range(-bound, bound + 1):
        bs = src.degree_basis(t)
        bt = tgt.degree_basis(t)
        if len(bs) != len(bt):
            v.fail(f"degree {t}: basis sizes {len(bs)} vs {len(bt)}")
            continue
        images = [m(src.monomial_element(mono)) for mono in bs]
        cut = next((mono for mono, img in zip(bs, images) if img.truncated), None)
        if cut is not None:
            v.fail(f"degree {t}: image of {src.format_monomial(cut)} truncated")
            continue
        cols, outside = linalg.coordinates((x.terms for x in images), bt)
        if outside is not None:
            v.fail(
                f"degree {t}: image monomial {tgt.format_monomial(outside)} "
                "outside enumerated basis"
            )
        elif not linalg.is_invertible(cols, len(bt), tgt.mode):
            v.fail(f"degree {t}: matrix of rank {linalg.rank(cols, tgt.mode.characteristic)} not invertible")
    return v


def check_flat_witness(f, basis, bound=None):
    """Verify that h = f_0 (x) eta_R: A -> C = B (x)_A Gamma is faithfully
    flat, witnessed by `basis`: monomials of C forming an A-basis of C.

    h is checked degreewise: the products h(a) * b over A-basis monomials
    a and witness basis elements b must form a basis of C over its
    coefficient ring in every degree |t| <= bound: their matrix in C's
    degree basis must be square with a determinant that is a unit of that
    ring, not merely of full rank.
    A-monomials obey A's exponent rule but are weighed by the h-weights,
    the maximal C-weight of each h(image), not by A's degrees: the weight
    the composite actually produces, which keeps the truncated filtrations
    on both sides aligned."""
    v = Verdict()
    C, _, h = _induced_presentation(f.source, f.f0)
    A = f.source.A
    D = C.truncation
    if bound is None:
        bound = D
    hw = []
    for i, img in enumerate(h.images):
        if img.is_zero():
            if not A.gen(i).is_zero():
                v.fail(f"h kills {A.names[i]}; composite cannot be injective")
            hw.append(0)
        else:
            hw.append(max(C.weight(m) for m in img.terms))
    if v.ok:
        basis_elems = [
            (C.weight(b), C.monomial_degree(b), C.monomial_element(b))
            for b in basis
        ]
        for b, (_, _, gb) in zip(basis, basis_elems):
            if gb.is_zero():
                v.fail(f"witness element {C.format_monomial(b)} is zero")
        # A-monomials by the weight h gives them, one walk per cap D - wb
        factors = A.exponent_factors(
            [i for i in range(len(A.gens)) if i not in A.inverted], hw
        )
        caps = {D - wb for wb, _, _ in basis_elems}
        walks = {cap: A.graded_walk(factors, cap) for cap in caps}
        for t in range(-bound, bound + 1):
            try:
                cb = C.degree_basis(t)
            except InfiniteBasis:
                v.fail(f"C basis infinite in degree {t}")
                continue
            # h applies to A-monomials from its generator images: the walk
            # is driven by the C-side weight hw, so a monomial may lie past
            # A's own truncation boundary and must not be routed through
            # A's normal form
            cols = [
                (h.monomial(mono) * gb).terms
                for wb, db, gb in basis_elems
                for mono in walks[D - wb](t - db)
            ]
            if len(cols) != len(cb):
                v.fail(f"degree {t}: {len(cols)} products vs basis size {len(cb)}")
                continue
            coords, outside = linalg.coordinates(cols, cb)
            if outside is not None:
                v.fail(f"degree {t}: product leaves the enumerated basis")
            elif not linalg.is_invertible(coords, len(cb), C.mode):
                v.fail(f"degree {t}: freeness matrix not invertible")
    return v


def identity_witness(f):
    """The canonical freeness witness, a basis of B (x)_A Gamma over A:
    the morphism monomials of the induced algebroid, which the derived
    leading powers bound."""
    P2 = _induced_presentation(f.source, f.f0)[1]
    factors = P2.exponent_factors(range(len(f.f0.target.gens), len(P2.gens)))
    return exponent_vectors(len(P2.gens), factors, P2.truncation)


@dataclass
class EquivalenceCertificate:
    status: str  # yes | conditional | inconclusive | no
    iso: Verdict
    witness_status: str  # verified | assumed | absent
    witness: Verdict | None
    oracle: dict  # ring name -> {"faithful": bool, "full": bool} or "skipped"
    inconsistent: bool = False
    refutation: str = ""

    def to_dict(self):
        return {
            "schema": 1,
            "status": self.status,
            "iso": {"ok": self.iso.ok, "failures": self.iso.failures},
            "witness_status": self.witness_status,
            "witness": None
            if self.witness is None
            else {"ok": self.witness.ok, "failures": self.witness.failures},
            "oracle": self.oracle,
            "inconsistent": self.inconsistent,
            "refutation": self.refutation,
        }


def theoremD_verdict(f, witness=None, assume_flat=False, bound=None):
    """Internal-equivalence certificate: combined-map isomorphism check,
    flat-witness verification, and finite-ring corroboration.  `witness`
    is a basis of B (x)_A Gamma over A, such as `identity_witness(f)`."""
    D = f.target.Gamma.truncation
    if bound is None:
        bound = D
    cm = combined_map(f)
    iso = check_iso(cm, bound)
    witness_verdict = None
    if witness is not None:
        witness_verdict = check_flat_witness(f, witness, bound=bound)
        witness_status = "verified" if witness_verdict else "failed"
    elif assume_flat:
        witness_status = "assumed"
    else:
        witness_status = "absent"

    oracle = {}
    inconsistent = False
    from .groupoid import analyze_map, catalog_rings

    for R in catalog_rings():
        try:
            report = analyze_map(f, R)
            oracle[R.name] = {
                "faithful": report.faithful,
                "full": report.full,
                "essentially_surjective": report.essentially_surjective,
            }
            if iso.ok and not (report.faithful and report.full):
                inconsistent = True
        except SearchBudgetExceeded as exc:
            oracle[R.name] = f"skipped: {type(exc).__name__}"

    refutation = ""
    if not iso.ok:
        status = "no"
        refutation = iso.failures[0] if iso.failures else "iso failure"
    elif witness_status == "verified":
        status = "yes"
    elif witness_status == "assumed":
        status = "conditional"
    elif witness_status == "failed":
        status = "inconclusive"
        refutation = "flat witness failed verification"
    else:
        status = "inconclusive"
    return EquivalenceCertificate(
        status, iso, witness_status, witness_verdict, oracle, inconsistent, refutation
    )
