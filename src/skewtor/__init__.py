"""skewtor: exact symbolic computation in quantum tori and their Ore extensions.

The package computes normal forms in quantum tori and selectively localized
quantum spaces over an exact coefficient field of rational functions in
formal parameters, classifies skew derivations attached to toric
automorphisms, and runs a staged deleting-derivations algorithm on iterated
Ore extensions: the output is either an embedding into a selectively
localized quantum space (hence into a quantum torus) or an explicit
first-Weyl-algebra witness ``u p - p u = 1``.

The names below are exported from their submodules, each resolved on first
access (``skewtor.run_all`` imports ``skewtor.orechain`` then), so
``import skewtor`` itself loads no submodule.  The value is looked up in its
submodule on every access and never stored here.
"""

from importlib import import_module

_EXPORTS = {
    "errors": (
        "ArityMismatch",
        "DivisionByZero",
        "ExprSyntaxError",
        "Inconsistent",
        "IndexOutOfRange",
        "InputError",
        "InternalError",
        "LimitExceeded",
        "MembershipViolation",
        "NonEigenvector",
        "NotADerivation",
        "NotNormal",
        "NotValidated",
        "SkewtorError",
        "UnknownIdentifier",
    ),
    "scalars": ("FieldElement", "LaurentPoly", "ParameterContext", "UnitMonomial"),
    "torus": (
        "CommutationMatrix",
        "SelectiveSpace",
        "TorusElement",
        "elem_inv",
        "elem_mul",
        "elem_pow",
        "elem_scale",
        "is_central",
        "membership",
        "monomial_inverse",
        "monomial_mul",
        "qrs",
    ),
    "skewder": (
        "HomogeneousComponent",
        "SkewDerivation",
        "ToricAutomorphism",
        "apply_auto",
        "classify_component",
        "decompose_homogeneous",
        "extend_derivation",
        "validate_derivation",
    ),
    "ore": ("OreElement",),
    "orechain": (
        "AlgebraState",
        "Derived",
        "Original",
        "TorusEmbedding",
        "WeylWitness",
        "extend_by_ore",
        "run_all",
        "run_stage",
        "translate_derivation",
        "verify_normal",
        "weyl_witness",
    ),
    "presentation": (
        "PresentationFile",
        "StageSpec",
        "load_presentation",
        "parse_element",
        "parse_presentation",
        "parse_scalar",
        "parse_unit",
    ),
    "render": ("render_element", "render_scalar", "render_unit"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
