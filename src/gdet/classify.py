"""Closed-form membership deciders for the groups with known determinant sets.

Each rule decides whether an integer is an attainable group determinant,
returning the structural reason (valuations, residues) along with the
verdict.  Zero is rejected everywhere: the closed forms describe the nonzero
attainable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from .detcalc import valuation
from .groups import _is_prime, resolve_name

RULE_KINDS = ("Zp", "Z2p", "Z9", "Z4", "Klein4", "D8", "S3", "A4", "S4")


@dataclass(frozen=True)
class GroupRule:
    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind: {self.kind!r}")
        if self.kind in ("Zp", "Z2p"):
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"{self.kind} needs a prime parameter, got {self.p}")
            if self.kind == "Z2p" and self.p < 3:
                raise ValueError("Z2p needs an odd prime")
        elif self.p is not None:
            raise ValueError(f"rule {self.kind} takes no parameter")

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.p}" if self.p is not None else self.kind


def parse_rule(text: str) -> GroupRule:
    """The membership rule a group or rule name stands for (see `groups.resolve_name`)."""
    rule = resolve_name(text)[1]
    if rule is None:
        raise ValueError(f"no closed-form rule is known for {text.strip()}")
    return GroupRule(*rule)


@dataclass(frozen=True)
class MembershipVerdict:
    member: bool
    rule: str
    m: int
    reason: dict

    def as_dict(self):
        return {"member": self.member, "rule": self.rule, "m": self.m, "reason": self.reason}


def member(rule: GroupRule, m: int) -> MembershipVerdict:
    """Decide membership of m in the attainable-determinant set of the rule."""
    if m == 0:
        return MembershipVerdict(False, rule.name, 0, {"zero": True})
    v2 = valuation(m, 2)
    v3 = valuation(m, 3)
    reason: dict = {"v2": v2, "v3": v3, "mod4": m % 4}
    kind = rule.kind

    if kind == "Zp":
        vp = valuation(m, rule.p)
        reason["vp"] = vp
        ok = vp == 0 or vp >= 2
    elif kind == "Z2p":
        vp = valuation(m, rule.p)
        reason["vp"] = vp
        ok = (v2 == 0 or v2 >= 2) and (vp == 0 or vp >= 2)
    elif kind == "Z9":
        ok = v3 == 0 or v3 >= 3
    elif kind == "Z4":
        ok = v2 == 0 or v2 >= 4
    elif kind == "Klein4":
        ok = m % 4 == 1 or v2 == 4 or v2 >= 6
        reason["class"] = (
            "4m+1" if m % 4 == 1 else "2^4(2m+1)" if v2 == 4 else "2^6m" if v2 >= 6 else None
        )
    elif kind == "D8":
        ok = m % 4 == 1 or v2 >= 8
        reason["class"] = "4m+1" if m % 4 == 1 else "2^8m" if v2 >= 8 else None
    elif kind == "S3":
        ok = (v2 == 0 or v2 >= 2) and (v3 == 0 or v3 >= 3)
    elif kind == "A4":
        three_ok = v3 == 0 or v3 >= 2
        reason["three_condition"] = three_ok
        if v2 == 0:
            reason["class"] = "odd"
            ok = m % 4 == 1 and three_ok
        else:
            reason["class"] = "even"
            ok = (v2 == 4 or v2 >= 8) and three_ok
    elif kind == "S4":
        three_ok = v3 == 0 or v3 >= 3
        reason["three_condition"] = three_ok
        if v2 == 0:
            reason["class"] = "odd"
            reason["cofactor_mod4"] = m % 4
            ok = m % 4 == 1 and three_ok
        elif v2 == 8:
            cof = m >> 8
            reason["class"] = "2^8"
            reason["cofactor_mod4"] = cof % 4
            ok = cof % 4 == 1 and three_ok
        elif v2 == 10:
            cof = m >> 10
            reason["class"] = "2^10"
            reason["cofactor_mod4"] = cof % 4
            ok = cof % 4 == 3 and three_ok
        elif v2 >= 12:
            reason["class"] = "2^12"
            ok = three_ok
        else:
            reason["class"] = None
            ok = False
    else:
        raise AssertionError(kind)

    return MembershipVerdict(bool(ok), rule.name, m, reason)


def lambda_of(rule: GroupRule) -> int:
    """Smallest |m| >= 2 attainable under the rule (the Lind-Lehmer value)."""
    for n in count(2):
        if member(rule, n).member or member(rule, -n).member:
            return n
    raise AssertionError("unreachable")


# the scan set-up of bench/run.py still calls this name
rule_for_group_kind = parse_rule
