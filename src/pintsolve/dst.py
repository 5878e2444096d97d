"""Blockwise discrete sine transforms over the time index.

The forward transform is the type-III DST with a half weight on the final
time block,

    uhat_k = (2/N) * sum_n (1 + delta_nN)^-1 u_n sin((2k-1) n pi / (2N)),

and its inverse is the plain type-II DST,

    u_n = sum_k uhat_k sin((2k-1) n pi / (2N)).

Transforms act along axis 0 of an (N, dim) block vector, component-wise
over the spatial dimension, and map to the standard real fast transforms
(``scipy.fft.dst``) for every N.  They run along the last axis of the
transposed (dim, N) view, which is contiguous for the Fortran-order blocks
the solvers hold, and return Fortran-order blocks.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .errors import DimensionMismatchError


def _dst(u: np.ndarray, kind: int, scale: float = 1.0,
         overwrite: bool = False) -> np.ndarray:
    """scipy's DST of type kind along axis 0 of u, times scale, run on the
    transposed view; a scale of 1 makes no pass."""
    out = scipy.fft.dst(u.T, type=kind, axis=-1, overwrite_x=overwrite)
    if scale != 1.0:
        out *= scale
    return out.T


class DstPlan:
    """Reusable transform plan for a fixed number of time blocks."""

    def __init__(self, N: int):
        if N < 1:
            raise DimensionMismatchError("transform length must be >= 1")
        self.N = N
        self._kernel: np.ndarray | None = None

    def kernel(self) -> np.ndarray:
        """Dense (N, N) table sin((2k-1) n pi / (2N)), k rows, n columns.

        Used by test oracles only; the transforms never form it.
        """
        if self._kernel is None:
            k = np.arange(1, self.N + 1)[:, None]
            n = np.arange(1, self.N + 1)[None, :]
            self._kernel = np.sin((2 * k - 1) * n * np.pi / (2 * self.N))
        return self._kernel

    def _check(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if u.shape[0] != self.N:
            raise DimensionMismatchError(
                f"block count {u.shape[0]} does not match plan length {self.N}"
            )
        return u

    def forward(self, u: np.ndarray) -> np.ndarray:
        """Apply the weighted type-III DST (the analysis map)."""
        out = _dst(self._check(u), 3)
        out /= self.N
        return out

    def inverse(self, uhat: np.ndarray, scale: float = 0.5,
                overwrite: bool = False) -> np.ndarray:
        """Apply the type-II DST (the synthesis map).

        scale multiplies scipy's unnormalized transform, which is twice the
        synthesis map: the default 0.5 gives the map itself, and 1.0 gives
        twice it with no scaling pass, for a caller that carries the factor
        elsewhere (a power of two, so either way rounds alike).  With
        ``overwrite`` the transform may run in uhat's memory, and uhat is
        left undefined; the result is the same."""
        return _dst(self._check(uhat), 2, scale, overwrite=overwrite)

    def forward_transpose(self, v: np.ndarray) -> np.ndarray:
        out = _dst(self._check(v), 2)
        out /= self.N
        out[-1] *= 0.5
        return out

    def inverse_transpose(self, u: np.ndarray, scale: float = 0.5) -> np.ndarray:
        """Apply the transpose of ``inverse``; scale as there."""
        w = self._check(u).copy(order="F")
        w[-1] *= 2.0
        return _dst(w, 3, scale, overwrite=True)

    # dense matrix representations, used by test oracles only
    def forward_matrix(self) -> np.ndarray:
        w = np.ones(self.N)
        w[-1] = 0.5
        return (2.0 / self.N) * self.kernel() * w[None, :]

    def inverse_matrix(self) -> np.ndarray:
        return self.kernel().T

