"""Exact integer group determinants for small finite groups.

The centerpiece is the symmetric group on four letters: the determinant
factors as l1 * l2 * q1^2 * d1^3 * d2^3, the attainable integer values have
a complete classification, and every member is realized constructively by
convolving twelve explicit witness families.
"""

from .groups import (
    GroupTable,
    build_group,
    check_group_laws,
    cyclic_group,
    dihedral_group,
    klein_group,
    alternating_group4,
    symmetric_group4,
    parse_gen_word,
)
from .ring import (
    RingElement,
    ParseError,
    convolve,
    identity_element,
    parse_expr,
    ring_element,
    element_from_json,
)
from .detcalc import (
    FactorProfile,
    RepTable,
    cofactor_det,
    default_rep_table,
    det_exact,
    det_int,
    group_matrix,
    rep_factor_check,
    rep_is_homomorphism,
    s4_det_fast,
    s4_factors,
    valuation,
)
from .sympoly import (
    IdentityId,
    IdentityReport,
    SparsePoly,
    build_symbolic,
    check_identity,
    cubic_corrections,
)
from .classify import GroupRule, MembershipVerdict, lambda_of, member, parse_rule
from .witness import (
    FAMILIES,
    FAMILY_IDS,
    NotInSet,
    SynthesisExhausted,
    WitnessCertificate,
    WitnessFamily,
    family,
    synthesize,
    verify_certificate,
)
from .harness import ScanConfig, ScanReport, lambda_scan, scan, write_report

__version__ = "0.1.0"

__all__ = [
    "GroupTable", "build_group", "check_group_laws", "cyclic_group",
    "dihedral_group", "klein_group", "alternating_group4", "symmetric_group4",
    "parse_gen_word",
    "RingElement", "ParseError", "convolve", "identity_element", "parse_expr",
    "ring_element", "element_from_json",
    "FactorProfile", "RepTable", "cofactor_det", "default_rep_table",
    "det_exact", "det_int", "group_matrix", "rep_factor_check",
    "rep_is_homomorphism", "s4_det_fast", "s4_factors", "valuation",
    "IdentityId", "IdentityReport", "SparsePoly", "build_symbolic",
    "check_identity", "cubic_corrections",
    "GroupRule", "MembershipVerdict", "lambda_of", "member", "parse_rule",
    "FAMILIES", "FAMILY_IDS", "NotInSet", "SynthesisExhausted",
    "WitnessCertificate", "WitnessFamily", "family", "synthesize",
    "verify_certificate",
    "ScanConfig", "ScanReport", "lambda_scan", "scan", "write_report",
]
