"""State vectors and the two kinds of operator the protocols use.

States are 1-D complex numpy arrays of unit norm.  An operator is either a
dense complex matrix, unitary to ``ATOL``, or a :class:`SignedPermutation`:
``op @ psi`` is ``sign * psi[perm]``, with ``to_matrix()`` as its dense
reference.  Measurement is always in the computational basis: outcome
``k`` has probability ``abs(psi[k])**2``.

The disjointness protocol works on a 2n-dimensional register whose basis
is indexed by pairs ``(i, b)`` with ``i`` in 1..n and ``b`` in {0, 1},
laid out as ``index = b*n + i - 1``:

* :func:`spread_op` -- first column uniform over the ``(i, 0)`` block;
* :func:`swap` -- swaps the amplitudes of ``(i, 0)`` and ``(i, 1)``
  exactly where the word has a 1;
* :func:`phase` -- flips the sign of ``(i, 1)`` exactly where the word
  has a 1;
* :func:`collect_op` -- the adjoint of :func:`spread_op`, so its first row
  is uniform over the ``(i, 0)`` block.

Only the fixed column of the spread and the fixed row of the collect are
forced by the protocol; the rest of those two dense matrices is completed
by Gram-Schmidt against the standard basis, which makes construction
deterministic.  Swaps and sign flips are signed permutations, built in
O(n) numpy operations; given an array of word values, :func:`swap` and
:func:`phase` build a batch of them, one operator per row.
"""

from __future__ import annotations

from .bits import np, unpack_bits

#: Entrywise tolerance for unitarity / norm checks.
ATOL = 1e-10


def pair_index(i: int, b: int, n: int) -> int:
    """Linear index of basis label (i, b), i in 1..n, b in {0, 1}."""
    if not 1 <= i <= n:
        raise ValueError(f"i must be in 1..{n}, got {i}")
    if b not in (0, 1):
        raise ValueError(f"b must be 0 or 1, got {b}")
    return b * n + (i - 1)


def is_unitary(u: np.ndarray) -> bool:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    eye = np.eye(u.shape[0])
    return bool(np.max(np.abs(u.conj().T @ u - eye)) <= ATOL)


def assert_unitary(u: np.ndarray) -> None:
    if not is_unitary(u):
        raise ValueError("matrix is not unitary within tolerance")


def complete_unitary_from_column(column: np.ndarray) -> np.ndarray:
    """Deterministic unitary whose first column is the given unit vector.

    Gram-Schmidt against the standard basis in index order, skipping the
    basis vectors that become dependent.  Same input, same matrix.
    """
    c = np.asarray(column, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(c) - 1.0) > ATOL:
        raise ValueError("first column must have unit norm")
    dim = c.shape[0]
    cols = [c]
    for k in range(dim):
        if len(cols) == dim:
            break
        v = np.zeros(dim, dtype=complex)
        v[k] = 1.0
        for w in cols:
            v = v - np.vdot(w, v) * w
        nv = np.linalg.norm(v)
        if nv > 1e-8:
            cols.append(v / nv)
    if len(cols) != dim:
        raise ValueError("failed to complete an orthonormal basis")
    return np.column_stack(cols)


def uniform_over(dim: int, support: int) -> np.ndarray:
    """Unit vector with amplitude 1/sqrt(support) on the first `support` indices."""
    if not 1 <= support <= dim:
        raise ValueError("support must be in 1..dim")
    c = np.zeros(dim, dtype=complex)
    c[:support] = 1.0 / np.sqrt(support)
    return c


def spread_op(n: int) -> np.ndarray:
    """2n-dim unitary taking (1,0) to the uniform superposition of all (i,0)."""
    if n < 1:
        raise ValueError("n must be positive")
    return complete_unitary_from_column(uniform_over(2 * n, n))


def collect_op(n: int) -> np.ndarray:
    """Adjoint of spread_op: first row uniform over the (i,0) block."""
    return spread_op(n).conj().T


class SignedPermutation:
    """Operator ``psi -> sign * psi[perm]``: row k of its matrix holds
    ``sign[k]`` in column ``perm[k]``.

    A batch of N operators has ``perm`` and ``sign`` of shape (N, dim);
    ``op @ psi`` then applies row r to ``psi`` itself (one state, shape
    (dim,)) or to ``psi[r]`` (N states, shape (N, dim)), giving N states.

    The constructor trusts its arguments; :meth:`validate` checks them,
    as :meth:`Qcfa.validate` does for every signed permutation of a machine.
    Two operators are equal only if they are the same object; an operator
    is not a sequence, so numpy never reads it as one.
    """

    def __init__(self, perm, sign):
        self.perm = perm  # integer index vector, or one per row
        self.sign = sign  # entries +1 or -1, aligned with perm

    @property
    def dim(self) -> int:
        return self.perm.shape[-1]

    def __matmul__(self, psi: np.ndarray) -> np.ndarray:
        if psi.shape == self.perm.shape[-1:]:
            return self.sign * psi[self.perm]
        if psi.ndim == 2 and psi.shape == self.perm.shape:
            return self.sign * np.take_along_axis(psi, self.perm, axis=1)
        raise ValueError(f"dimension mismatch: {self.perm.shape} vs {psi.shape}")

    def to_matrix(self) -> np.ndarray:
        """Dense reference matrix of one operator."""
        u = np.zeros((self.dim, self.dim), dtype=complex)
        u[np.arange(self.dim), self.perm] = self.sign
        return u

    def validate(self) -> None:
        """Check that perm permutes 0..dim-1 and every sign is +1 or -1."""
        perm, sign = np.asarray(self.perm), np.asarray(self.sign)
        if (perm.ndim != 1 or perm.dtype.kind not in "iu"
                or not np.array_equal(np.sort(perm), np.arange(perm.size))):
            raise ValueError("perm is not a permutation of 0..dim-1")
        if sign.shape != perm.shape or not np.isin(sign, (1, -1)).all():
            raise ValueError("sign must hold one +1 or -1 per index")


def swap(x, n: int | None = None) -> SignedPermutation:
    """Swap (i,0) and (i,1) at every position where x has a 1; an involution.

    ``x`` is one :class:`BitString`, or an array of N word values of
    length ``n`` for a batch of N operators.
    """
    ones = unpack_bits(x, n)
    n = ones.shape[-1]
    offset = ones * n
    perm = np.concatenate((offset, -offset), axis=-1)
    perm += np.arange(2 * n)
    return SignedPermutation(perm, np.ones(perm.shape))


def phase(y, n: int | None = None) -> SignedPermutation:
    """Sign flip: -1 on (i,1) where y has a 1, +1 elsewhere.

    ``y`` is one :class:`BitString`, or an array of N word values of
    length ``n`` for a batch of N operators.
    """
    ones = unpack_bits(y, n)
    n = ones.shape[-1]
    sign = np.ones(ones.shape[:-1] + (2 * n,))
    sign[..., n:][ones] = -1.0
    perm = np.empty(sign.shape, dtype=np.intp)
    perm[...] = np.arange(2 * n)
    return SignedPermutation(perm, sign)
