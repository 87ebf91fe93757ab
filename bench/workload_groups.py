"""The ``groups`` workload: the coprimary filtration of finite abelian groups.

One operation is one in-process ``hngame coprimary`` call.  A round covers
every abelian group of order at most 64 with at most three invariant factors
(108 groups) plus (Z/2)^4 and (Z/2)^5, in seeded order.  Cyclic groups
stress element count and elementary abelian groups stress subgroup count:
(Z/2)^5 has 374 subgroups.
"""

from __future__ import annotations

import os
import random
import re
from math import prod

from reference import birkhoff_subgroup_count, factorize, invariant_factor_types
from workload_documents import CliCall

EXTRA = ((2, 2, 2, 2), (2, 2, 2, 2, 2))


def _label_order(label, group_order):
    """Subgroup order encoded in a label: '0', 'G' or 'H<order><suffix>'."""
    if label == "0":
        return 1
    if label == "G":
        return group_order
    return int(re.match(r"H(\d+)", label).group(1))


def coprimary_report(report, orders, subgroups):
    order = prod(orders)
    sylow = factorize(order)
    primes = sorted(sylow, reverse=True)
    if not report["valid"]:
        return "coprimary filtration reported invalid"
    if report["group_order"] != order:
        return "group order differs from the product of the cyclic orders"
    if report["step_primes"] != primes:
        return "step primes are not the primes of |G| in decreasing order"
    steps = [_label_order(label, order) for label in report["filtration"]]
    expect = [1]
    for p in primes:
        expect.append(expect[-1] * p ** sylow[p])
    if steps != expect:
        return "step orders are not cumulative products of Sylow orders"
    if report["subgroup_count"] != subgroups:
        return "subgroup count differs from Birkhoff's count"
    return None


class Groups:
    def __init__(self, seed, workdir):
        groups = invariant_factor_types(64) + list(EXTRA)
        random.Random(seed).shuffle(groups)
        self.ops = []
        for orders in groups:
            name = "x".join(map(str, orders))
            output = os.path.join(workdir, f"coprimary-{name}.report.json")
            argv = ["coprimary", "--orders", *map(str, orders), "--output", output]
            self.ops.append(CliCall(
                argv, output, coprimary_report,
                lambda orders=orders: (orders, birkhoff_subgroup_count(orders)),
            ))

    # The benchmark writes the inputs itself; no library call prepares them.
    library_s = 0.0

    def prepare(self):
        """Expected values from the reference computations."""
        for op in self.ops:
            op.expect = op.reference()
        return []

    def final_checks(self):
        return []


def setup(seed, workdir):
    return Groups(seed, workdir)


NAMESPACES = ()
