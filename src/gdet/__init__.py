"""Exact integer group determinants for small finite groups.

The centerpiece is the symmetric group on four letters: the determinant
factors as l1 * l2 * q1^2 * d1^3 * d2^3, the attainable integer values have
a complete classification, and every member is realized constructively by
convolving twelve explicit witness families.

Names load on first access: `import gdet` imports no submodule, and
`gdet.X` or `from gdet import X` imports X's module then (PEP 562).  So a
command or a caller pays only for the modules it uses.  `__all__` holds the
names the README documents; the others below resolve the same way.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the README documents, which `from gdet import *` binds
_DOCUMENTED = {
    "groups": "symmetric_group4",
    "ring": "ring_element parse_expr",
    "detcalc": "det_exact s4_factors rep_factor_check",
    "sympoly": "build_symbolic check_identity",
    "classify": "member parse_rule",
    "witness": "synthesize verify_certificate",
}
# module -> further names that resolve as gdet.X
_MORE = {
    "groups": "GroupTable build_group check_group_laws cyclic_group dihedral_group "
              "klein_group alternating_group4 parse_gen_word",
    "ring": "RingElement ParseError convolve identity_element element_from_json",
    "detcalc": "FactorProfile RepTable cofactor_det default_rep_table det_int group_matrix "
               "rep_is_homomorphism s4_det_fast",
    "sympoly": "IdentityId IdentityReport SparsePoly",
    "classify": "GroupRule MembershipVerdict lambda_of valuation",
    "witness": "FAMILIES FAMILY_IDS NotInSet SynthesisExhausted WitnessCertificate "
               "WitnessFamily family",
    "harness": "ScanConfig ScanReport lambda_scan scan write_report",
}
_MODULE_OF = {name: module for table in (_DOCUMENTED, _MORE)
              for module, names in table.items() for name in names.split()}
_SUBMODULES = frozenset(
    "classify cli detcalc groups harness kernels ring s4data sympoly witness".split())

__all__ = [name for names in _DOCUMENTED.values() for name in names.split()]


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")  # the import binds it in this namespace
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF) | _SUBMODULES)
