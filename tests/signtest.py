"""The exact one-sided sign test the acceptance and attacker tests use."""

from __future__ import annotations

import math


def sign_test(greater: int, less: int) -> float:
    """Exact one-sided sign test: P(X >= greater) for X ~ Binomial(n, 1/2)
    where n = greater + less (ties already excluded)."""
    n = greater + less
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(greater, n + 1))
    return tail / 2 ** n
