"""Exact computer algebra for graded Hopf algebroids.

Subpackages cover: finitely presented graded-commutative algebras
(`presentation`), Hopf algebroids and tensor squares (`hopf`), the BP
formal-group-law family (`fgl`), comodules and their sheaf forms
(`comodule`), induced algebroids and equivalence certificates (`morita`),
finite-ring groupoid oracles and descent (`groupoid`), the reduced cobar
complex (`cobar`), and the CLI (`cli`)."""

from .errors import (
    AxiomFailure,
    DegreeError,
    HopfAlgError,
    IllegalExponent,
    InfiniteBasis,
    InputError,
    IntegralityFailure,
    NotACover,
    NotFreeOverA,
    NotQuasiCoherent,
    ParseError,
    PresentationMismatch,
    SearchBudgetExceeded,
    SolveFailure,
    UnsupportedBaseMap,
    Verdict,
)
from .presentation import (
    BaseMode,
    Element,
    GradedPresentation,
    RingMorphism,
    identity_morphism,
    invert_element,
)

__all__ = [
    "AxiomFailure",
    "BaseMode",
    "DegreeError",
    "Element",
    "GradedPresentation",
    "HopfAlgError",
    "IllegalExponent",
    "InfiniteBasis",
    "InputError",
    "IntegralityFailure",
    "NotACover",
    "NotFreeOverA",
    "NotQuasiCoherent",
    "ParseError",
    "PresentationMismatch",
    "RingMorphism",
    "SearchBudgetExceeded",
    "SolveFailure",
    "UnsupportedBaseMap",
    "Verdict",
    "identity_morphism",
    "invert_element",
]
