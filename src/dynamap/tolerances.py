"""The tolerance policy, in a module that loads no numpy.

:class:`ToleranceConfig` is re-exported by :mod:`dynamap.linalg`, which
holds the spectral rules that read it.  It lives here so that the CLI can
judge ``--tol-eig`` and ``--tol-residual`` before it reads a document or
loads numpy.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared across the package, under one policy.

    Every spectral decision (sign, rank, support, PSD, singularity) is
    ``linalg.sign_counts``, which counts as zero a value at most
    ``max(zero_eig_rel, len(values) * eps)`` times the largest absolute
    value of the spectrum: scale invariant, and never below the rounding
    noise of a dense solve.
    Every residual verdict is :meth:`passes` and every residual
    precondition :meth:`require`.  A Hermiticity residual's scale is
    ``‖m‖``, because its target is ``m`` itself.  Residuals against targets
    of fixed scale keep scale 1, because rescaling the input cannot rescale
    the target: the identity in ``check_tp``, the unit norm of a joint
    state, Kraus completeness and unitarity (``linalg.isometry_residual``),
    and the sampled identities.
    """

    zero_eig_rel: float = 1e-10
    residual_abs: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.zero_eig_rel < 1.0:
            raise ValueError(f"zero_eig_rel must be in (0, 1), got {self.zero_eig_rel}")
        if not 0.0 < self.residual_abs < 1.0:
            raise ValueError(f"residual_abs must be in (0, 1), got {self.residual_abs}")

    def passes(self, residual: float, scale: float = 1.0) -> bool:
        """The residual rule: finite and at most ``residual_abs * max(1, scale)``."""
        return math.isfinite(residual) and bool(residual <= self.residual_abs * max(1.0, scale))

    def require(self, error: type, what: str, residual: float, scale: float = 1.0):
        """Raise ``error("<what> residual <x> exceeds tolerance")`` unless it :meth:`passes`."""
        if not self.passes(residual, scale):
            raise error(f"{what} residual {residual:.3e} exceeds tolerance")
