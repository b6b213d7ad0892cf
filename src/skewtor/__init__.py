"""skewtor: exact symbolic computation in quantum tori and their Ore extensions.

The package computes normal forms in quantum tori and selectively localized
quantum spaces over an exact coefficient field of rational functions in
formal parameters, classifies skew derivations attached to toric
automorphisms, and runs a staged deleting-derivations algorithm on iterated
Ore extensions: the output is either an embedding into a selectively
localized quantum space (hence into a quantum torus) or an explicit
first-Weyl-algebra witness ``u p - p u = 1``.
"""

from .errors import (
    ArityMismatch,
    DivisionByZero,
    ExprSyntaxError,
    Inconsistent,
    IndexOutOfRange,
    InputError,
    InternalError,
    LimitExceeded,
    MembershipViolation,
    NonEigenvector,
    NotADerivation,
    NotNormal,
    NotValidated,
    SkewtorError,
    UnknownIdentifier,
)
from .scalars import (
    FieldElement,
    LaurentPoly,
    ParameterContext,
    UnitMonomial,
)
from .torus import (
    CommutationMatrix,
    SelectiveSpace,
    TorusElement,
    elem_inv,
    elem_mul,
    elem_pow,
    elem_scale,
    is_central,
    membership,
    monomial_inverse,
    monomial_mul,
    qrs,
)
from .skewder import (
    HomogeneousComponent,
    SkewDerivation,
    ToricAutomorphism,
    apply_auto,
    classify_component,
    decompose_homogeneous,
    extend_derivation,
    validate_derivation,
)
from .ore import OreElement
from .orechain import (
    AlgebraState,
    Derived,
    Original,
    StageSpec,
    TorusEmbedding,
    WeylWitness,
    extend_by_ore,
    run_all,
    run_stage,
    translate_derivation,
    verify_normal,
    weyl_witness,
)
from .presentation import (
    PresentationFile,
    load_presentation,
    parse_element,
    parse_presentation,
    parse_scalar,
    parse_unit,
)
from .render import render_element, render_scalar, render_unit

__version__ = "0.1.0"
