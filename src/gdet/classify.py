"""Closed-form membership deciders for the groups with known determinant sets.

Each rule decides whether an integer is an attainable group determinant.
Its clauses are written once, in `decider`, which also returns the 2- and
3-adic valuations; `member` adds the structural reason (residues, class)
to the verdict.  Zero is rejected everywhere: the closed forms describe the
nonzero attainable values.  `valuation` is defined here and `detcalc`
imports it, so deciding membership loads no determinant code.
"""

from __future__ import annotations

from itertools import count

from .groups import Record, _is_prime, rule_spec

RULE_KINDS = ("Zp", "Z2p", "Z9", "Z4", "Klein4", "D8", "S3", "A4", "S4")


def valuation(m: int, p: int):
    """p-adic valuation of m; None encodes the infinite valuation of 0."""
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    if m == 0:
        return None
    if p == 2:
        return (m & -m).bit_length() - 1
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


class GroupRule(Record):
    """A membership rule: a kind from `RULE_KINDS` and, for Zp and Z2p, its prime."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in RULE_KINDS:
            raise ValueError(f"unknown rule kind: {kind!r}")
        if kind in ("Zp", "Z2p"):
            if p is None or not _is_prime(p):
                raise ValueError(f"{kind} needs a prime parameter, got {p}")
            if kind == "Z2p" and p < 3:
                raise ValueError("Z2p needs an odd prime")
        elif p is not None:
            raise ValueError(f"rule {kind} takes no parameter")
        super().__init__(kind, p)

    @property
    def name(self) -> str:
        return f"{self.kind}:{self.p}" if self.p is not None else self.kind


def parse_rule(text: str) -> GroupRule:
    """The membership rule a group or rule name stands for (see `groups.rule_spec`)."""
    rule = rule_spec(text)
    if rule is None:
        raise ValueError(f"no closed-form rule is known for {text.strip()}")
    return GroupRule(*rule)


class Reason(dict):
    """An immutable, hashable dict: a verdict's reason fields.

    It is shown and written to JSON as the dict it holds; any change raises
    TypeError.  It is filled once, in `__new__`: `__init__`, which the class
    call runs next with the same arguments, only checks that they match.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = dict.__new__(cls)
        dict.update(self, *args, **kwargs)
        return self

    def __init__(self, *args, **kwargs):
        if dict(*args, **kwargs) != self:
            raise TypeError("a verdict's reason cannot be changed")

    def _immutable(self, *args, **kwargs):
        raise TypeError("a verdict's reason cannot be changed")

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return self.__class__, (dict(self),)


class MembershipVerdict(Record):
    """The answer of `member`: the verdict, the rule's name, m and its `Reason`."""

    __slots__ = ("member", "rule", "m", "reason")


def decider(rule: GroupRule):
    """The rule as a function of m that returns (ok, v2, v3).

    v2 and v3 are the 2- and 3-adic valuations of m, which a scan tallies
    whatever the rule.  Each rule is a set of clauses on them, on m mod 4,
    on the odd part m >> v2 mod 4 and, for the cyclic rules, on the p-adic
    valuation.  Zero, whose valuations are infinite, gives (False, None, None).
    """
    kind, p = rule.kind, rule.p
    if kind == "Zp":
        def accept(m, v2, v3):
            vp = valuation(m, p)
            return vp == 0 or vp >= 2
    elif kind == "Z2p":
        def accept(m, v2, v3):
            vp = valuation(m, p)
            return (v2 == 0 or v2 >= 2) and (vp == 0 or vp >= 2)
    elif kind == "Z9":
        def accept(m, v2, v3):
            return v3 == 0 or v3 >= 3
    elif kind == "Z4":
        def accept(m, v2, v3):
            return v2 == 0 or v2 >= 4
    elif kind == "Klein4":
        def accept(m, v2, v3):
            return m % 4 == 1 or v2 == 4 or v2 >= 6
    elif kind == "D8":
        def accept(m, v2, v3):
            return m % 4 == 1 or v2 >= 8
    elif kind == "S3":
        def accept(m, v2, v3):
            return (v2 == 0 or v2 >= 2) and (v3 == 0 or v3 >= 3)
    elif kind == "A4":
        def accept(m, v2, v3):
            return (v3 == 0 or v3 >= 2) and (m % 4 == 1 if v2 == 0 else v2 == 4 or v2 >= 8)
    elif kind == "S4":
        def accept(m, v2, v3):
            if v3 == 1 or v3 == 2:
                return False
            if v2 == 0 or v2 == 8:
                return (m >> v2) % 4 == 1
            if v2 == 10:
                return (m >> 10) % 4 == 3
            return v2 >= 12
    else:
        raise AssertionError(kind)

    def decide(m):
        if not m:
            return False, None, None
        v2 = (m & -m).bit_length() - 1
        v3, rest = 0, m
        while not rest % 3:
            rest //= 3
            v3 += 1
        return accept(m, v2, v3), v2, v3

    return decide


def member(rule: GroupRule, m: int) -> MembershipVerdict:
    """Decide membership of m in the attainable-determinant set of the rule.

    The verdict and the valuations are the decider's; the other `reason`
    fields name the residue, the class and the condition the rule read.
    """
    if m == 0:
        return MembershipVerdict(False, rule.name, 0, Reason(zero=True))
    ok, v2, v3 = decider(rule)(m)
    reason: dict = {"v2": v2, "v3": v3, "mod4": m % 4}
    kind = rule.kind
    if kind in ("Zp", "Z2p"):
        reason["vp"] = valuation(m, rule.p)
    elif kind == "Klein4":
        reason["class"] = (
            "4m+1" if m % 4 == 1 else "2^4(2m+1)" if v2 == 4 else "2^6m" if v2 >= 6 else None
        )
    elif kind == "D8":
        reason["class"] = "4m+1" if m % 4 == 1 else "2^8m" if v2 >= 8 else None
    elif kind == "A4":
        reason["three_condition"] = v3 == 0 or v3 >= 2
        reason["class"] = "odd" if v2 == 0 else "even"
    elif kind == "S4":
        reason["three_condition"] = v3 == 0 or v3 >= 3
        if v2 in (0, 8, 10):
            reason["class"] = "odd" if v2 == 0 else f"2^{v2}"
            reason["cofactor_mod4"] = (m >> v2) % 4
        else:
            reason["class"] = "2^12" if v2 >= 12 else None
    return MembershipVerdict(ok, rule.name, m, Reason(reason))


def lambda_of(rule: GroupRule) -> int:
    """Smallest |m| >= 2 attainable under the rule (the Lind-Lehmer value)."""
    decide = decider(rule)
    for n in count(2):
        if decide(n)[0] or decide(-n)[0]:
            return n
    raise AssertionError("unreachable")


# the scan set-up of bench/run.py still calls this name
rule_for_group_kind = parse_rule
