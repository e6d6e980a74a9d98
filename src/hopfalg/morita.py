"""Maps of Hopf algebroids, the induced algebroid Gamma_f, the combined map
eta_L (x) f_1 (x) eta_R, and internal-equivalence certificates.

The supported base maps f_0: A -> B are quotient-then-localize maps: B's
generators mirror A's by name and degree, f_0 sends each generator to its
mirror, and B's own rules do any killing/inverting.  Under that hypothesis
B (x)_A Gamma (x)_A B collapses to a presentation on B's generators plus
Gamma's morphism generators: the right B-factor is eliminated through
eta_R, and every A-generator killed by f_0 contributes the relation
(f_0 (x) 1)(eta_R(a)) = 0, converted to a power rule by extracting a
leading pure power with graded-unit coefficient."""
from __future__ import annotations

from dataclasses import dataclass, field

from . import linalg
from .errors import (
    AxiomFailure,
    InfiniteBasis,
    SolveFailure,
    UnsupportedBaseMap,
    Verdict,
)
from .hopf import HopfAlgebroid, check_hopf_axioms
from .presentation import (
    GradedPresentation,
    RingMorphism,
    Rule,
    coordinates,
    exponent_vectors,
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
    f1_f1 = RingMorphism(
        src.ts.pres,
        tgt.ts.pres,
        [tgt.ts.incl_l(img) for img in f.f1.images]
        + [tgt.ts.incl_r(f.f1.images[j]) for j in src.morphism_order],
        name="f1@f1",
        check_degrees=False,
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
        mirror = B.element([(1, tuple(1 if j == i else 0 for j in range(len(B.gens))))])
        if f0.images[i] != mirror:
            raise UnsupportedBaseMap(
                f"f0 must send {A.names[i]} to its mirror (got {f0.images[i]!r})"
            )
    if B.mode != H.Gamma.mode:
        raise UnsupportedBaseMap("base modes of B and Gamma must agree")


def _raw(elem):
    return [(c, m) for m, c in elem.terms.items()]


def collapsed_pair(H, f0):
    """B (x)_A Gamma as a presentation: B's generators plus Gamma's
    morphism generators, all A-coefficients pushed through f_0."""
    _require_supported(H, f0)
    A, B, Gamma = H.A, f0.target, H.Gamma
    nb = len(B.gens)
    gens = list(B.gens) + [Gamma.gens[i] for i in H.morphism_order]
    relations = {i: r for i, r in B.rules.items()}
    pad = len(gens) - len(Gamma.gens)
    for pos, i in enumerate(H.morphism_order):
        rule = Gamma.rules.get(i)
        if rule is not None:
            relations[nb + pos] = Rule(
                rule.power, tuple((c, m + (0,) * pad) for c, m in rule.rhs)
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


@dataclass
class InducedAlgebroid:
    algebroid: HopfAlgebroid
    map: HopfMap
    relations: list = field(default_factory=list)  # (A-gen name, rule gen, power)


def induced_algebroid(H, f0, check=True):
    """(B, Gamma_f) with the five structure maps, plus the canonical map."""
    _require_supported(H, f0)
    A, B, Gamma = H.A, f0.target, H.Gamma
    nb = len(B.gens)
    prov = collapsed_pair(H, f0)

    def is_killed_in_B(i):
        return B.element([(1, tuple(1 if j == i else 0 for j in range(nb)))]).is_zero()

    def is_killed_in_A(i):
        return A.gen(i).is_zero()

    newly_killed = [
        i for i in range(nb) if is_killed_in_B(i) and not is_killed_in_A(i)
    ]
    derived = []
    taken = set()
    for a in newly_killed:
        u = prov.element(_raw(H.etaR(A.gen(a))))
        if u.is_zero():
            continue
        i, e, rhs = _extract_power_rule(prov, u, taken)
        taken.add(i)
        derived.append((A.names[a], i, e, rhs))

    relations = {i: r for i, r in prov.rules.items()}
    for _, i, e, rhs in derived:
        relations[i] = Rule(e, tuple(_raw(rhs)))
    try:
        P2 = GradedPresentation(
            B.mode,
            prov.gens,
            relations,
            inverted=prov.inverted,
            truncation=prov.truncation,
            name=f"Gamma_f[{B.name}]",
        )
    except Exception as exc:
        raise UnsupportedBaseMap(f"derived relations unusable: {exc}") from exc
    for a in newly_killed:
        if not P2.element(_raw(H.etaR(A.gen(a)))).is_zero():
            raise UnsupportedBaseMap(
                f"relation from eta_R({A.names[a]}) does not rewrite to zero"
            )

    morphism_order = tuple(range(nb, len(P2.gens)))
    etaL = RingMorphism(B, P2, [P2.gen(i) for i in range(nb)], name="etaL")
    etaR = RingMorphism(
        B,
        P2,
        [P2.element(_raw(H.etaR(A.gen(i)))) for i in range(nb)],
        name="etaR",
        check_degrees=False,
    )
    eps = RingMorphism(
        P2,
        B,
        [B.gen(i) for i in range(nb)]
        + [B.element(_raw(H.eps(Gamma.gen(i)))) for i in H.morphism_order],
        name="eps",
        check_degrees=False,
    )
    c = RingMorphism(
        P2,
        P2,
        [P2.element(_raw(H.etaR(A.gen(i)))) for i in range(nb)]
        + [P2.element(_raw(H.c(Gamma.gen(i)))) for i in H.morphism_order],
        name="c",
        check_degrees=False,
    )
    delta_images = {
        Gamma.names[i]: _raw(H.delta(Gamma.gen(i))) for i in H.morphism_order
    }
    Hf = HopfAlgebroid(
        B,
        P2,
        morphism_order,
        etaL,
        etaR,
        eps,
        c,
        delta_images,
        name=f"({B.name},Gamma_f)",
    )
    if check:
        v = check_hopf_axioms(Hf, P2.truncation)
        if not v:
            raise AxiomFailure(f"induced algebroid fails axioms: {v.summary()}")
    f1 = RingMorphism(
        Gamma,
        P2,
        [P2.gen(i) for i in range(len(Gamma.gens))],
        name="f1",
        check_degrees=False,
    )
    hm = HopfMap(H, Hf, f0, f1, name="canonical")
    return InducedAlgebroid(Hf, hm, [(a, i, e) for a, i, e, _ in derived])


def combined_map(f):
    """eta_L (x) f_1 (x) eta_R : B (x)_A Gamma (x)_A B -> Sigma.  The right
    B-factor is eliminated through eta_R, so the source presentation is
    the induced algebroid's Gamma_f."""
    source = induced_algebroid(f.source, f.f0, check=False).algebroid.Gamma
    Sigma = f.target.Gamma
    nb = len(f.target.A.gens)
    images = [f.target.etaL(f.target.A.gen(i)) for i in range(nb)]
    for i in f.source.morphism_order:
        images.append(f.f1(f.source.Gamma.gen(i)))
    return RingMorphism(source, Sigma, images, name="combined", check_degrees=False)


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
        cols, outside = coordinates(images, bt)
        if outside is not None:
            v.fail(
                f"degree {t}: image monomial {tgt.format_monomial(outside)} "
                "outside enumerated basis"
            )
        elif not linalg.is_invertible(cols, len(bt), tgt.mode):
            v.fail(f"degree {t}: matrix of rank {linalg.rank(cols, tgt.mode)} not invertible")
    return v


def check_flat_witness(f, g, basis, bound=None):
    """Verify that g: B (x)_A Gamma -> C composed with f_0 (x) eta_R is
    faithfully flat, witnessed by an A-module basis of C.

    The composite h = g(f_0 (x) eta_R) is checked degreewise: the products
    h(a) * g(b) over A-basis monomials a and witness basis elements b must
    form a basis of C over its coefficient ring in every degree |t| <=
    bound: their matrix in C's degree basis must be square with a
    determinant that is a unit of that ring, not merely of full rank.
    A-monomials are
    enumerated against the weight the composite actually produces (the
    maximal C-weight of each h(image)), which keeps the truncated
    filtrations on both sides aligned."""
    v = Verdict()
    CP = g.source
    C = g.target
    A = f.source.A
    D = C.truncation
    if bound is None:
        bound = D
    h_images = [g(CP.element(_raw(f.source.etaR(A.gen(i))))) for i in range(len(A.gens))]
    hw = []
    for i, img in enumerate(h_images):
        if img.is_zero():
            if not A.gen(i).is_zero():
                v.fail(f"h kills {A.names[i]}; composite cannot be injective")
            hw.append(0)
        else:
            hw.append(max(C.weight(m) for m in img.terms))
    if v.ok:
        # Apply h to A-monomials directly from the generator images: the
        # enumeration below is driven by the C-side weight hw, so a monomial
        # may lie past A's own truncation boundary and must not be routed
        # through A's normal form.
        h_of = RingMorphism(A, C, h_images, check_degrees=False).monomial
        basis_elems = [
            (CP.weight(b), CP.monomial_degree(b), g(CP.monomial_element(b)))
            for b in basis
        ]
        for b, (_, _, gb) in zip(basis, basis_elems):
            if gb.is_zero():
                v.fail(f"witness element {CP.format_monomial(b)} is zero")
        # A-monomials by the weight h gives them, once per cap D - wb; the
        # inverted generator's exponent is solved by degree below
        factors = [
            (i, hw[i], A.rules[i].power if i in A.rules else None)
            for i in range(len(A.gens))
            if i not in A.inverted
        ]
        a_monomials = {}
        for wb, _, _ in basis_elems:
            if D - wb not in a_monomials:
                a_monomials[D - wb] = [
                    (m, A.monomial_degree(m))
                    for m in exponent_vectors(len(A.gens), factors, D - wb)
                ]
        inv = sorted(A.inverted)
        if len(inv) > 1:
            raise InfiniteBasis("two inverted generators in A")
        for t in range(-bound, bound + 1):
            try:
                cb = C.degree_basis(t)
            except InfiniteBasis:
                v.fail(f"C basis infinite in degree {t}")
                continue
            cols = []
            for wb, db, gb in basis_elems:
                for mono, d in a_monomials[D - wb]:
                    if inv:
                        i0 = inv[0]
                        q, r = divmod(t - db - d, A.degrees[i0])
                        if r != 0:
                            continue
                        mono = mono[:i0] + (q,) + mono[i0 + 1:]
                    elif d + db != t:
                        continue
                    cols.append(h_of(mono) * gb)
            if len(cols) != len(cb):
                v.fail(f"degree {t}: {len(cols)} products vs basis size {len(cb)}")
                continue
            coords, outside = coordinates(cols, cb)
            if outside is not None:
                v.fail(f"degree {t}: product leaves the enumerated basis")
            elif not linalg.is_invertible(coords, len(cb), C.mode):
                v.fail(f"degree {t}: freeness matrix not invertible")
    return v


def identity_witness(f):
    """The canonical freeness witness: C = B (x)_A Gamma, g = identity,
    basis = morphism monomials with the derived leading powers bounded."""
    from .presentation import identity_morphism

    H = f.source
    CP = collapsed_pair(H, f.f0)
    ind = induced_algebroid(H, f.f0, check=False)
    bounds = {i: e for _aname, i, e in ind.relations}
    # t-monomials of CP with the extracted power bounds
    factors = []
    for i in range(len(f.target.A.gens), len(CP.gens)):
        rule = CP.rules.get(i)
        limit = bounds.get(i, rule.power if rule is not None else None)
        factors.append((i, CP.degrees[i], limit))
    basis = exponent_vectors(len(CP.gens), factors, CP.truncation)
    return identity_morphism(CP), basis


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


def theoremD_verdict(f, witness=None, assume_flat=False, bound=None, catalog=None):
    """Internal-equivalence certificate: combined-map isomorphism check,
    flat-witness verification, and finite-ring corroboration."""
    D = f.target.Gamma.truncation
    if bound is None:
        bound = D
    cm = combined_map(f)
    iso = check_iso(cm, bound)
    witness_verdict = None
    if witness is not None:
        g, basis = witness
        witness_verdict = check_flat_witness(f, g, basis, bound=bound)
        witness_status = "verified" if witness_verdict else "failed"
    elif assume_flat:
        witness_status = "assumed"
    else:
        witness_status = "absent"

    oracle = {}
    inconsistent = False
    from .groupoid import analyze_map, catalog_rings

    rings = catalog if catalog is not None else catalog_rings()
    for R in rings:
        try:
            report = analyze_map(f, R)
            oracle[R.name] = {
                "faithful": report.faithful,
                "full": report.full,
                "essentially_surjective": report.essentially_surjective,
            }
            if iso.ok and not (report.faithful and report.full):
                inconsistent = True
        except Exception as exc:  # budget and enumeration guards
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
