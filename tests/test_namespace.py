"""The lazy `gdet` namespace: every name resolves to its module's object."""

import importlib

import pytest

import gdet

# the names `gdet` has re-exported, by the module that defines each
EXPORTED = {
    "groups": "GroupTable build_group check_group_laws cyclic_group dihedral_group klein_group "
              "alternating_group4 symmetric_group4 parse_gen_word",
    "ring": "RingElement ParseError convolve identity_element parse_expr ring_element "
            "element_from_json",
    "detcalc": "FactorProfile RepTable cofactor_det default_rep_table det_exact det_int "
               "group_matrix rep_factor_check rep_is_homomorphism s4_det_fast s4_factors",
    "sympoly": "IdentityId IdentityReport SparsePoly build_symbolic check_identity "
               "cubic_corrections",
    "classify": "GroupRule MembershipVerdict lambda_of member parse_rule valuation",
    "witness": "FAMILIES FAMILY_IDS NotInSet SynthesisExhausted WitnessCertificate "
               "WitnessFamily family synthesize verify_certificate",
    "harness": "ScanConfig ScanReport lambda_scan scan write_report",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]
SUBMODULES = "classify cli detcalc groups harness kernels ring s4data sympoly witness".split()


def test_every_exported_name_is_counted():
    assert len(NAMES) == 53


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_its_modules_object(module, name):
    value = getattr(importlib.import_module(f"gdet.{module}"), name)
    assert getattr(gdet, name) is value
    namespace = {}
    exec(f"from gdet import {name}", namespace)
    assert namespace[name] is value


def test_valuation_is_one_function():
    from gdet import classify, detcalc

    assert gdet.valuation is classify.valuation is detcalc.valuation


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(name):
    assert getattr(gdet, name) is importlib.import_module(f"gdet.{name}")


def test_star_import_binds_all_and_dir_lists_it():
    namespace = {}
    exec("from gdet import *", namespace)
    assert set(gdet.__all__) <= set(namespace)
    assert {name for _, name in NAMES} | set(SUBMODULES) <= set(dir(gdet))
    assert gdet.__version__ == "0.1.0"


def test_all_lists_the_documented_names():
    assert sorted(gdet.__all__) == sorted(
        "symmetric_group4 ring_element parse_expr det_exact s4_factors rep_factor_check "
        "build_symbolic check_identity member parse_rule synthesize verify_certificate".split())


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        gdet.nope
    assert not hasattr(gdet, "nope")
