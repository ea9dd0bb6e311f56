"""Batched evaluation kernels for sparse affine layers.

Two interchangeable implementations: numba-jitted loops (default when numba
imports) and a numpy/scipy path.  Both accumulate narrow rows strictly in
stored order, which the product constructions rely on for their exact
structural zeros.  The numpy path runs every row of at most
``_EXACT_ROW_NNZ`` entries through scipy's compiled CSR loop
(``csr_matvecs``), which adds the terms in stored order from the bias, and
each wider row through a BLAS dot.  Select with the HPRELU_BACKEND
environment variable: "auto" (default), "numba" or "numpy".
"""

import os

import numpy as np
from scipy.sparse import _sparsetools

try:
    from numba import njit, prange

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(f):
            return f

        return wrap

    prange = range


ENV_VAR = "HPRELU_BACKEND"

# Cap on the nnz*points working-set per chunk in the numpy path.
_CHUNK_BUDGET = 16_000_000


def resolve_backend(name=None):
    """Return "numba" or "numpy" for a requested/env backend name."""
    if name is None:
        name = os.environ.get(ENV_VAR, "auto")
    name = name.lower()
    if name not in ("auto", "numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}; expected auto, numba or numpy")
    if name == "numba" and not HAS_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    if name == "auto":
        return "numba" if HAS_NUMBA else "numpy"
    return name


@njit(cache=True)
def _csr_affine_nb(indptr, cols, vals, bias, x, out):
    rows = indptr.shape[0] - 1
    npts = x.shape[1]
    for r in range(rows):
        b = bias[r]
        for p in range(npts):
            out[r, p] = b
        for k in range(indptr[r], indptr[r + 1]):
            c = cols[k]
            v = vals[k]
            for p in range(npts):
                out[r, p] += v * x[c, p]
    return out


# Rows at or below this nnz count go through scipy's csr_matvecs, which
# adds vals[k] * x[col] term by term in stored order, matching the numba
# kernel bit for bit.  The exact-cancellation guarantees of the product
# layers live on such narrow rows.  Wider rows (coefficient contractions)
# use a BLAS dot, whose summation order is its own; they only carry
# tolerance-based contracts.
_EXACT_ROW_NNZ = 32


def _csr_affine_np(indptr, cols, vals, bias, x):
    rows = indptr.shape[0] - 1
    npts = x.shape[1]
    out = np.empty((rows, npts))
    out[:] = bias[:, None]
    if len(vals) == 0:
        return out
    counts = np.diff(indptr)
    small = counts <= _EXACT_ROW_NNZ
    if small.all():
        _sparsetools.csr_matvecs(rows, x.shape[0], npts, indptr, cols, vals,
                                 x.ravel(), out.ravel())
        return out
    # the narrow rows as their own CSR: wide rows keep no entries here
    narrow_ptr = np.concatenate(([0], np.cumsum(counts * small)))
    keep = np.repeat(small, counts)
    _sparsetools.csr_matvecs(rows, x.shape[0], npts, narrow_ptr, cols[keep],
                             vals[keep], x.ravel(), out.ravel())
    for r in np.nonzero(~small)[0]:
        lo, hi = indptr[r], indptr[r + 1]
        step = max(1, _CHUNK_BUDGET // max(1, hi - lo))
        for p0 in range(0, npts, step):
            p1 = min(npts, p0 + step)
            out[r, p0:p1] += vals[lo:hi] @ x[cols[lo:hi], p0:p1]
    return out


def run_forward(packed, x, backend=None):
    """Realize the packed layer list on a (in_dim, npts) batch.

    ReLU is applied after every layer except the last.  Returns the final
    (out_dim, npts) array.
    """
    backend = resolve_backend(backend)
    last = len(packed) - 1
    y = np.ascontiguousarray(x, dtype=np.float64)
    for i, (indptr, cols, vals, bias) in enumerate(packed):
        if backend == "numba":
            z = np.empty((indptr.shape[0] - 1, y.shape[1]))
            _csr_affine_nb(indptr, cols, vals, bias, y, z)
        else:
            z = _csr_affine_np(indptr, cols, vals, bias, y)
        if i < last:
            np.maximum(z, 0.0, out=z)
        y = z
    return y


def run_forward_grad(packed, x, backend=None, seed=None):
    """Forward pass with jacobian accumulation.

    x is (in_dim, npts).  Returns (y, jac) with y of shape (out_dim, npts)
    and jac of shape (out_dim, npts, nd); the jacobian uses the a.e.
    convention relu'(0) = 0.  By default nd = in_dim and the seed is the
    per-point identity; an explicit (in_dim, npts, nd) seed propagates only
    nd directions, which is what chain-rule callers want when the input
    dimension is large.
    """
    backend = resolve_backend(backend)
    d = x.shape[0]
    npts = x.shape[1]
    last = len(packed) - 1
    y = np.ascontiguousarray(x, dtype=np.float64)
    if seed is None:
        nd = d
        jac = np.zeros((d, npts * nd))
        for k in range(d):
            jac[k, k::nd] = 1.0
    else:
        seed = np.asarray(seed, dtype=np.float64)
        if seed.ndim != 3 or seed.shape[0] != d or seed.shape[1] != npts:
            raise ValueError("seed must have shape (in_dim, npts, nd)")
        nd = seed.shape[2]
        jac = np.ascontiguousarray(seed.reshape(d, npts * nd))
    for i, (indptr, cols, vals, bias) in enumerate(packed):
        rows = indptr.shape[0] - 1
        # the jacobian is the same layer without its bias; every row then
        # starts from +0.0 in both kernels
        zero = np.zeros(rows)
        if backend == "numba":
            z = np.empty((rows, y.shape[1]))
            _csr_affine_nb(indptr, cols, vals, bias, y, z)
            jnew = np.empty((rows, npts * nd))
            _csr_affine_nb(indptr, cols, vals, zero, jac, jnew)
        else:
            z = _csr_affine_np(indptr, cols, vals, bias, y)
            jnew = _csr_affine_np(indptr, cols, vals, zero, jac)
        if i < last:
            alive = z > 0.0
            jnew *= np.repeat(alive, nd, axis=1)
            np.maximum(z, 0.0, out=z)
        y = z
        jac = jnew
    return y, jac.reshape(y.shape[0], npts, nd)
