"""Estimator names, kept apart from the numpy code that evaluates them.

The CLI parses estimator lists and the closed-form variance factors are
keyed by estimator, and neither needs numpy; importing this module costs
only the enum.
"""

from __future__ import annotations

import enum


class Estimator(enum.Enum):
    SIGN_SIGN = "sign-sign"
    FULL = "full"
    FULL_NORM = "full-norm"
    G = "g"
    G_NORM = "g-norm"
    S = "s"
    S_NORM = "s-norm"
    MLE_SIGN_FULL = "mle"
    MLE_FULL = "mle-full"

    @property
    def cli_name(self) -> str:
        return self.value
