"""The twelve explicit S4 witness families and the certificate synthesizer.

Each family is a coefficient pattern over the 24 canonical slots whose group
determinant has a closed form in the parameter k.  Any member of the S4
determinant set factors as a product of at most three family values (a
2-power stripper, a 3-power stripper, and a residue family covering
1, 5, 13, 17 mod 24), so synthesis is deterministic: pick the factors,
convolve the patterns, and check the determinant through `s4_det_fast`,
the S4 block kernel, which shares no code with the families' closed forms.
`verify_certificate` then verifies a certificate once by exact elimination.
"""

from __future__ import annotations

from functools import reduce
from math import prod

from .classify import GroupRule, member
from .detcalc import det_exact, s4_det_fast, valuation
from .groups import Record, symmetric_group4
from .ring import RingElement, convolve, ring_element


class NotInSet(ValueError):
    """The target is not an attainable S4 determinant; `verdict` is its membership verdict."""

    def __init__(self, verdict):
        super().__init__(f"{verdict.m} is not an attainable S4 determinant: {verdict.reason}")
        self.verdict = verdict


class SynthesisExhausted(RuntimeError):
    """The synthesizer could not realize a target it accepted (a bug guard)."""


class WitnessFamily(Record):
    """A parametrized coefficient pattern with determinant c0 + c1*k.

    `ones` lists the slots set to 1 + k, all others getting k; a constant
    pattern instead lists its (slot, value) pairs in `fixed`.
    """

    __slots__ = ("id", "ones", "fixed", "c0", "c1")

    def pattern(self, k: int = 0):
        coeffs = [0] * 24
        if self.fixed:
            for slot, val in self.fixed:
                coeffs[slot] = val
        else:
            coeffs = [k] * 24
            for slot in self.ones:
                coeffs[slot] = 1 + k
        return tuple(coeffs)

    def value(self, k: int = 0) -> int:
        return self.c0 + self.c1 * k  # c1 = 0 for the fixed patterns


FAMILIES: dict[str, WitnessFamily] = {
    f.id: f
    for f in (
        WitnessFamily("res1", (0,), (), 1, 24),
        WitnessFamily("res5", (1, 4, 8, 14, 16), (), 5, 24),
        WitnessFamily("res13", (0, 2, 4, 5, 6, 8, 9, 12, 14, 16, 17, 22, 23), (), 13, 24),
        WitnessFamily(
            "res17", (0, 1, 2, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 19, 20, 21), (), 17, 24
        ),
        WitnessFamily("neg27", (0, 2, 14), (), -27, -216),
        WitnessFamily("pos81", (0, 1, 4), (), 81, 648),
        WitnessFamily("pow2_8", (), ((0, 1), (4, 1)), 256, 0),
        WitnessFamily("neg2_10", (), ((0, -1), (4, 1), (5, 1), (16, 1), (21, -1)), -1024, 0),
        WitnessFamily("pos2_12", (), ((1, 1), (4, 1), (8, 1), (22, 1)), 4096, 0),
        WitnessFamily("neg2_12", (), ((0, 1), (1, 1), (4, -1), (8, -1), (12, 1)), -4096, 0),
        WitnessFamily("pos2_13", (0, 1, 5, 9, 10, 15, 17, 21), (), 8192, 24576),
        WitnessFamily("neg2_13", (1, 2, 3, 4, 8, 15, 16, 17), (), -8192, -24576),
    )
}

FAMILY_IDS = tuple(FAMILIES)

_RES_BY_RESIDUE = {1: "res1", 5: "res5", 13: "res13", 17: "res17"}

_S4_RULE = GroupRule("S4")


def family(family_id: str, k: int = 0) -> tuple[RingElement, int]:
    """Coefficient vector and closed-form determinant of one family instance."""
    fam = FAMILIES.get(family_id)
    if fam is None:
        raise ValueError(f"unknown witness family: {family_id!r}")
    g = symmetric_group4()
    return ring_element(g, fam.pattern(k)), fam.value(k)


class WitnessCertificate(Record):
    """A target, its S4 element and the trail of (family id, k) factors that built it."""

    __slots__ = ("target", "element", "trail")

    def as_dict(self):
        return {
            "target": self.target,
            "coeffs": list(self.element.coeffs),
            "trail": [[fid, k] for fid, k in self.trail],
        }


def _element_from_trail(trail) -> RingElement:
    if not trail:
        raise ValueError("empty trail")
    return reduce(convolve, (family(fid, k)[0] for fid, k in trail))


def _trail_value(trail) -> int:
    """The product of the closed-form values of a trail's family instances."""
    return prod(FAMILIES[fid].value(k) for fid, k in trail)


def plan_trail(target: int) -> list[tuple[str, int]]:
    """Choose family factors whose closed-form values multiply to the target.

    Strips the 2-power (2^8, -2^10, +-2^12, or +-2^13(1+3k) for valuation
    13 and up), then the 3-power (-27(1+8k) for odd valuations, 81(1+8k)
    for even ones, letting 1+8k absorb the excess power of three), and
    finishes with the residue family for the remaining value mod 24.
    """
    verdict = member(_S4_RULE, target)
    if not verdict.member:
        raise NotInSet(verdict)
    trail: list[tuple[str, int]] = []
    t = target
    v2 = valuation(t, 2)
    if v2 == 8:
        trail.append(("pow2_8", 0))
        t //= 256
    elif v2 == 10:
        trail.append(("neg2_10", 0))
        t //= -1024
    elif v2 == 12:
        t //= 4096
        if t % 4 == 1:
            trail.append(("pos2_12", 0))
        else:
            trail.append(("neg2_12", 0))
            t = -t
    elif v2 >= 13:
        sigma = 1 if (v2 - 13) % 2 == 0 else -1
        cofactor = sigma * (1 << (v2 - 13))  # odd part of 1+3k, = +-2^(v2-13)
        k = (cofactor - 1) // 3
        t //= sigma << v2
        if t % 4 == 1:
            trail.append(("pos2_13", k))
        else:
            trail.append(("neg2_13", k))
            t = -t
    # t is now odd and 1 mod 4
    v3 = valuation(t, 3)
    if v3:
        if v3 % 2:
            k = (3 ** (v3 - 3) - 1) // 8
            trail.append(("neg27", k))
            t //= -(3 ** v3)
        else:
            k = (3 ** (v3 - 4) - 1) // 8
            trail.append(("pos81", k))
            t //= 3 ** v3
    # t is odd, 1 mod 4, coprime to 3
    if t != 1 or not trail:
        r = t % 24
        trail.append((_RES_BY_RESIDUE[r], (t - r) // 24))
    return trail


def synthesize(target: int) -> WitnessCertificate:
    """Construct a coefficient vector whose exact determinant is the target."""
    trail = plan_trail(target)
    product = _trail_value(trail)
    if product != target:
        raise SynthesisExhausted(f"trail values multiply to {product}, wanted {target}")
    elem = _element_from_trail(trail)
    got = s4_det_fast(elem)
    if got != target:
        raise SynthesisExhausted(f"synthesized determinant {got}, wanted {target}")
    return WitnessCertificate(target=target, element=elem, trail=tuple(trail))


def verify_certificate(cert: WitnessCertificate) -> bool:
    """Re-derive everything the certificate claims, trusting none of it.

    The determinant of the stored coefficients is recomputed by elimination,
    the coefficients are re-derived from the trail by convolution, and the
    trail's closed-form values must multiply to the target.
    """
    g = cert.element.group
    if det_exact(g, cert.element) != cert.target:
        return False
    try:
        rebuilt = _element_from_trail(cert.trail)
    except (ValueError, KeyError):
        return False
    if rebuilt.coeffs != cert.element.coeffs:
        return False
    return _trail_value(cert.trail) == cert.target  # the rebuild rejected unknown ids
