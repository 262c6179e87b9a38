"""Dense complex linear algebra for small matrices.

Spectral radii, singular values, operator norms and the Grassmannian
geometry (subspace distances, oblique projections) that the rest of the
package is built on.  Everything here is a pure function of its inputs;
all values are plain numpy arrays or small immutable wrappers.
"""

import numpy as np

__all__ = [
    "DimensionError",
    "DegenerateSplittingError",
    "Subspace",
    "ProjectionPair",
    "as_matrix",
    "as_vector",
    "as_columns",
    "spectral_radius",
    "singular_values",
    "right_singular_subspaces",
    "operator_norm",
    "grassmann_distance",
    "max_unit_distance",
    "smallest_principal_angle",
    "projection_from_pair",
]

# basis^H basis must equal the identity to this accuracy
ORTHONORMALITY_TOL = 1e-10
# P^2 = P and the image/kernel conditions of an oblique projection
PROJECTION_TOL = 1e-8
# smallest singular value of [basis_V | basis_W] below which V + W is
# treated as rank deficient
DIRECT_SUM_TOL = 1e-10


class DimensionError(ValueError):
    pass


class DegenerateSplittingError(ValueError):
    """Raised when two subspaces fail to form a direct sum of C^d."""


def as_matrix(M):
    """Coerce to a finite complex 2-d array, raising on bad shape or NaN/Inf."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionError("expected a matrix, got ndim=%d" % M.ndim)
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise DimensionError("matrix dimensions must be at least 1")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


def as_vector(v):
    """``v`` as an array, raising unless it is one vector (ndim 1)."""
    v = np.asarray(v)
    if v.ndim != 1:
        raise DimensionError("expected a vector, got ndim=%d" % v.ndim)
    return v


def as_columns(V):
    """A complex d x r array of columns; a vector is one column, and any
    other ndim than 1 or 2 raises."""
    V = np.asarray(V, dtype=complex)
    if V.ndim not in (1, 2):
        raise DimensionError("expected a vector or a d x r array, got ndim=%d" % V.ndim)
    return V[:, None] if V.ndim == 1 else V


def _require_square(M):
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionError("expected a square matrix, got shape %r" % (M.shape,))
    return M


def spectral_radius(M):
    """Largest eigenvalue modulus of a square matrix."""
    M = _require_square(M)
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def singular_values(M):
    """Singular values of ``M`` in descending order, as a float array."""
    M = as_matrix(M)
    return np.linalg.svd(M, compute_uv=False)


def right_singular_subspaces(M, p):
    """Split the right singular vectors of a square matrix at index ``p``.

    Returns ``(top, bottom)`` where ``top`` is the span of the right
    singular vectors for the ``p`` largest singular values and ``bottom``
    is the span of the remaining ``d - p``.  With repeated singular values
    at the cut the split is the one the SVD routine happens to return.
    """
    M = _require_square(M)
    d = M.shape[0]
    if not 0 <= p <= d:
        raise DimensionError("p must lie in [0, %d], got %d" % (d, p))
    _, _, vh = np.linalg.svd(M)
    V = vh.conj().T
    return Subspace(V[:, :p]), Subspace(V[:, p:])


def operator_norm(M):
    """Euclidean operator norm of ``M``: its largest singular value (SVD).

    A single-matrix reference; whole levels use the batched Gram-based
    kernel of :mod:`jsrkit.bounds`.
    """
    return float(np.linalg.norm(as_matrix(M), 2))


class Subspace:
    """A p-dimensional subspace of C^d held as orthonormal basis columns."""

    def __init__(self, basis):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.ndim != 2:
            raise DimensionError("basis must be a d x p array")
        d, p = basis.shape
        if p > d:
            raise DimensionError("subspace dimension %d exceeds ambient %d" % (p, d))
        if not np.isfinite(basis).all():
            raise ValueError("basis entries must be finite")
        if p:
            gram = basis.conj().T @ basis
            if np.max(np.abs(gram - np.eye(p))) > ORTHONORMALITY_TOL:
                raise ValueError("basis columns are not orthonormal")
        self.basis = basis
        self.basis.setflags(write=False)
        self.ambient_dim = d
        self.dim = p

    @classmethod
    def from_spanning(cls, vectors):
        """Orthonormalise a spanning set, dropping numerically null columns:
        those whose diagonal entry of R in ``QR`` is at most ``1e-12``
        times the largest one (or 1e-12 if that is below 1)."""
        A = np.asarray(vectors, dtype=complex)
        if A.ndim == 1:
            A = A[:, None]
        q, r = np.linalg.qr(A)
        diag = np.abs(np.diag(r))
        scale = diag.max() if diag.size else 0.0
        rank = int(np.sum(diag > 1e-12 * max(scale, 1.0)))
        return cls(q[:, :rank])

    def projector(self):
        """Orthogonal projection matrix onto this subspace."""
        return self.basis @ self.basis.conj().T

    def __repr__(self):
        return "Subspace(dim=%d, ambient=%d)" % (self.dim, self.ambient_dim)


def _check_same_ambient(U, V):
    if U.ambient_dim != V.ambient_dim:
        raise DimensionError(
            "ambient dimensions differ: %d vs %d" % (U.ambient_dim, V.ambient_dim)
        )


def grassmann_distance(U, V):
    """Operator-norm distance between orthogonal projections onto U and V.

    This is the standard metric on each Grassmannian Gr(p, d).  For
    subspaces of equal dimension it coincides with the largest distance
    from a unit vector of one space to the other (see
    :func:`max_unit_distance`); for unequal dimensions the value is
    always 1 and carries no metric meaning.
    """
    _check_same_ambient(U, V)
    A, B = U.projector(), V.projector()
    # canonical operand order makes symmetry exact, not just up to the
    # last ulp of the SVD
    if A.tobytes() > B.tobytes():
        A, B = B, A
    return float(np.linalg.norm(A - B, 2))


def max_unit_distance(U, V):
    """max over unit u in U of dist(u, V), evaluated as a singular value.

    Equals ``sigma_1((I - P_V) B_U)`` where ``B_U`` is an orthonormal
    basis of U, which avoids any sampling over the sphere.
    """
    _check_same_ambient(U, V)
    if U.dim == 0:
        return 0.0
    d = U.ambient_dim
    residual = (np.eye(d) - V.projector()) @ U.basis
    return float(np.linalg.norm(residual, 2))


def smallest_principal_angle(U, V):
    """Smallest principal angle between two subspaces, in radians."""
    _check_same_ambient(U, V)
    if U.dim == 0 or V.dim == 0:
        return np.pi / 2
    cosines = np.linalg.svd(U.basis.conj().T @ V.basis, compute_uv=False)
    return float(np.arccos(np.clip(cosines[0], -1.0, 1.0)))


class ProjectionPair:
    """Oblique projection P with image V and kernel W, where V + W = C^d."""

    def __init__(self, V, W, P):
        _check_same_ambient(V, W)
        P = as_matrix(P)
        d = V.ambient_dim
        if P.shape != (d, d):
            raise DimensionError("projection must be %d x %d" % (d, d))
        if V.dim + W.dim != d:
            raise DimensionError("dim V + dim W must equal the ambient dimension")
        scale = max(1.0, float(np.linalg.norm(P, 2)))
        if np.linalg.norm(P @ P - P, 2) > PROJECTION_TOL * scale:
            raise ValueError("P is not idempotent within tolerance")
        if V.dim and np.max(np.abs(P @ V.basis - V.basis)) > PROJECTION_TOL * scale:
            raise ValueError("P does not fix its claimed image")
        if W.dim and np.max(np.abs(P @ W.basis)) > PROJECTION_TOL * scale:
            raise ValueError("P does not annihilate its claimed kernel")
        self.V = V
        self.W = W
        self.P = P
        self.P.setflags(write=False)

    def complement(self):
        """The complementary projection Q = I - P (image W, kernel V)."""
        return np.eye(self.V.ambient_dim) - self.P

    def __repr__(self):
        return "ProjectionPair(image dim=%d, kernel dim=%d)" % (self.V.dim, self.W.dim)


def projection_from_pair(V, W):
    """Build the projection with image ``V`` and kernel ``W``.

    Solves ``P [B_V | B_W] = [B_V | 0]``.  Raises
    :class:`DegenerateSplittingError` when the concatenated bases are
    rank deficient, i.e. V and W do not form a direct sum.
    """
    _check_same_ambient(V, W)
    d = V.ambient_dim
    if V.dim + W.dim != d:
        raise DimensionError("dim V + dim W must equal the ambient dimension")
    B = np.hstack([V.basis, W.basis])
    sigma = np.linalg.svd(B, compute_uv=False)
    if sigma.size == 0 or sigma[-1] <= DIRECT_SUM_TOL:
        raise DegenerateSplittingError(
            "V + W is not a direct sum (smallest singular value %.3e)"
            % (0.0 if sigma.size == 0 else sigma[-1])
        )
    target = np.hstack([V.basis, np.zeros((d, W.dim), dtype=complex)])
    P = target @ np.linalg.inv(B)
    return ProjectionPair(V, W, P)
