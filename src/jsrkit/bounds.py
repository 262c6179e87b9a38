"""Upper and lower bound sequences for the joint spectral radius.

For a finite set A of d x d matrices the joint spectral radius is

    jsr(A) = lim_n  max{ ||A_w||^(1/n) : |w| = n },

independent of the norm.  Two computable sequences bracket it: the
normed upper values (decreasing limit by submultiplicativity) and the
spectral-radius lower values, whose supremum equals jsr(A) by the
Berger-Wang formula.  This module enumerates products exactly up to a
multiplication budget, assembles the resulting sandwich enclosure,
prunes the word tree level by level under Gripenberg's keep rule (a word
stays only while its normalised norm exceeds the lower bound by more
than the target width), and fits an empirical convergence rate to the
gap.

Level kernel.  One product kernel, :func:`_extend`, forms every product:
K words stacked row-wise into one ``(K d, d)`` matrix times a generator
``G_j`` give the K children ``P_i G_j`` of block j.  All m^n products of
a level come from the previous level this way (:func:`_iter_levels`):
with ``G_j = A_j`` each child prepends a symbol.  Entries have the dtype
of ``MatrixSet.stack``, float64 when every generator is real and
complex128 otherwise (:func:`jsrkit.linalg.as_matrix`).  Products
associate left to right, ``(... (A_wn A_w(n-1)) ...) A_w1``.  A product
that overflows binary64 reads inf or NaN, silently, and every kernel
raises ``ValueError`` on it: the norm kernels and the power stage when
they scale it (:func:`_scaled`), ``eigvals`` when it refuses it.  A
product along one word, from :func:`_prefixes`, raises the same error
(:func:`_require_finite` owns it).  Their
per-level maxima are exact but screened by

    rho(P) <= ||P||_2 <= ||P||_F,   rho(P) <= ||P^k||_F^(1/k) <= ||P||_F,

for k = 2, 4, 8 (Gelfand's formula; the power bound is not below
``||P||_2`` in general, as ``P = I`` shows).  ``||P||_F``, or on a
streamed level an upper bound of it (below), is read for every word,
one block at a time (:class:`_Bounds`).  One screen,
:func:`_screen_level`, serves every kernel of a level at once: a norm
of the protocol (:class:`Norm`), whose values its ``factor`` L bounds
by ``L ||P||_F`` (1 for the exact Euclidean norm ``||P||_2 =
sqrt(lambda_max(P^H P))``, by batched Gram matrices and ``eigvalsh``),
and the spectral radii, with L = 1.  The ``SCREEN_SEED``
words of largest ``||P||_F`` go to every kernel first, with the cutoff
``-inf``; the others, in batches read once for all kernels, only while
their ``||P||_F`` reaches ``c / L``, where the cutoff ``c`` is that
kernel's running level maximum less ``SCREEN_SLACK``, and with that
cutoff, below which a kernel may read ``-inf``.  The radius kernel
spends it on its Gelfand power bound (below).  ``SCREEN_SLACK`` = 1e-8
is a roundoff allowance: it covers the relative error of the computed
bounds and kernels (a small multiple of d**2 * 2**-53; both exact
kernels are backward stable, so a computed norm or eigenvalue modulus
exceeds ``||P||_2`` by no more) and the ``TIE_RTOL`` tie window, so the
per-level values, argmax words and tie lists equal those of evaluating
every word.  Where ``c / L`` is below ``SCREEN_FLOOR`` the squares in
``||P||_F`` may have underflowed and nothing is screened; the kernels
still take the cutoff, since they scale each word by a power of two
first.
Screening charges no multiplications.

Repeated products.  Families with structure repeat their products
massively: at n = 16 the 65,536 words of the antidiagonal pair of
``data/`` hold 17 distinct products, those of the rank-one pair 2, and
every word ties the level maximum.  Each batch a screen sends to a
kernel is therefore grouped by bitwise identity (:func:`_once`): words
in decreasing-bound order that tie no neighbour go to the kernel whole,
and otherwise the kernel runs on one word per group of bit-identical
words.  A kernel value depends on its own word only, so the per-level
values, argmax words and tie lists are those of evaluating every word.

Stored and streamed levels.  :func:`_levels` is the one level generator
of :func:`sandwich`, :func:`rho_plus_n` and :func:`rho_minus_n`.  A
level whose array fits in ``LEVEL_BYTES`` (4 MiB, 2^15 real 4 x 4
words) is stored whole, as :func:`_iter_levels` forms it, and screened
by its words' ``||P||_F``, one block of bounds.
A deeper level is never formed: it is screened by Gram bounds (below),
formed one block of at most as many words as ``LEVEL_BYTES`` holds at a
time, and it is a lazy stack whose ``P[idx]`` re-forms only the
words a screen evaluates, from their ancestors in the last stored level
k.  The screen reads the blocks twice: once for the ``SCREEN_SEED``
words of largest bound, kept as a running top, and once, after the seed
is evaluated, for the words that reach the lowest kernel threshold.
Both passes compare the raw inner products with a threshold inverted
conservatively (:meth:`_GramBounds.floor`), and add the slack, take the
root and scale only the raw values they keep, which they then test
exactly; so they pass the words a whole-level bound array would.  Each
step of re-forming extends every word by every generator in one
:func:`_extend` and keeps one child per word, and the BLAS forms each entry of a row-stacked
product from its own row and column in an order that does not depend on
the number of rows (the tests check this for one and two threads), so
re-formed words carry the bits of stored ones and every result equals
that of stored levels.  Each level charges m^n multiplications before it
is yielded; bounding and re-forming, like screening, charge none.

Gram bounds.  Word ``q*K + i`` of a streamed level n is ``R = B_i M_q``:
``B_i`` a word of the stored base level ``b = min(k, ceil(N/2))`` (K =
m^b words, N the deepest level asked for) and ``M_q = G_q1 ... G_qs`` the
product along the s = n - b digits of q base m, least significant first.
Since ``||B M||_F^2 = <B^H B, M M^H>``, the real inner product of two
Gram matrices, one real GEMM per block, of the Gram rows of the block's
suffixes against those of the K base words, gives the block's squares
in lexicographic order, for m^n d^2 multiply-adds per pass over the
level and no word formed.  The bound adds a slack before the root,

    F = sqrt(fl(<fl(B^H B), fl(M M^H)>) + C_s T V),
    T = max_i ||B_i||_F^2,  V = max_q ||N_q||_F^2,  N_q = |G_q1| ... |G_qs|,

that makes it dominate ``||fl(R)||_F``, the norm of the re-formed word
the kernels see (first order in u = 2**-53, gamma that of the power
stage below):

- ``fl(R)`` is formed from ``B_i`` left to right over s steps and
  ``fl(M_q)`` over s - 1; each errs from the exact product by at most
  ``((1 + gamma)^s - 1) |B_i| N_q`` entrywise (Higham, 2002, section
  3.5), so ``||fl(R) - B_i fl(M_q)||_F <= (2s - 1) gamma ||B_i||_F
  ||N_q||_F``.  The moduli ``N_q``, not ``M_q``, bound this error, since
  ``M_q`` may cancel (the near-defective test families do);
- the two Gram matrices and the GEMM over D real entries per word (d^2,
  or 2 d^2 for complex entries) err by at most ``(2 gamma + D u)
  ||B_i||_F^2 ||N_q||_F^2``; the sum and the root add 3u relative;
- so ``C_s = 2 (4 s gamma + (D + 3) u)``: the first-order sum, doubled to
  cover the second-order terms and the rounding of the slack itself.

The slack is uniform per level, so identical words from different pairs
``(i, q)`` have identical bounds wherever the Gram products are exact,
as in the repeating families above.  On random real 4 x 4 pairs it adds
1e-10 to 1e-7 of the level maximum.  Each Gram stack is first
scaled by one power of two, which is exact, so that its largest entry
lies below 1: no square overflows, an entry that underflows lies far
inside the slack, and the root is scaled back exactly.  A bound that
overflows reads inf and a NaN bound keeps its word.  The analysis
assumes that no product underflows while a word is formed, which would
take products below 2**-1022 that grow back above ``SCREEN_FLOOR``.

Memory.  ``LEVEL_BYTES`` bounds every batch array: a stored level, one
screening batch with its re-formed words (each step forms m children per
word) and the scaled copies and squares of the power stage, one block
of children in the pruned search, and one block of ``F_f M`` products
in the certified kernel of the adapted norm.  A streamed level adds the
Gram rows of the base level, about one stored level, its suffix
products, which fit in ``LEVEL_BYTES`` while N <= 2k, and one block of
raw bounds, 8 bytes for each word that ``LEVEL_BYTES`` holds.  The screen's
list of the words that reach its threshold holds 16 bytes per word
listed: where nothing can be screened (below ``SCREEN_FLOOR``, after a
NaN value, or where every word ties, as in the rank-one pair) it lists
every word of the level.

Gelfand power stage.  Given the running cutoff c, ``eigvals`` runs only
on the words whose power bound reaches c.  Each word is first scaled by
a power of two, which is exact, to ``S`` with entries below 2
(:func:`_scaled`), and ``S`` is squared up to ``POWER_STEPS`` = 3
times, to ``S^8``.  After the square to ``S^k`` a word with

    (||fl(S^k)||_F + C_k f^k)^(1/k) < c / scale,    f = ||S||_F,

reads ``-inf``.  The slack ``C_k`` makes the bound dominate the modulus
that ``eigvals`` returns, not only ``rho(S)``:

- a computed eigenvalue is an exact eigenvalue of ``S + E`` with
  ``||E||_F <= eta f``, so ``rho(S + E)^k <= ||S^k||_F + ((1 + eta)^k
  - 1) f^k``.  LAPACK's error estimates for ``geev`` take ``eta`` as
  about ``2**-53`` (Users' Guide, section 4.8); here ``eta =
  EIGVALS_BACKWARD * d * 2**-53`` = 16 d 2**-53, a safety factor of
  16 d.  The largest backward error implied by the nilpotent test
  batches is about 2.5 * 2**-53;
- forming ``S^k`` by repeated squaring errs by at most ``((1 + gamma)^(k-1)
  - 1) f^k`` in the Frobenius norm, with ``gamma = gamma_d = d u / (1 -
  d u)`` for real and ``sqrt(2) gamma_2d`` for complex words, u =
  2**-53;
- so ``C_k = (1 + gamma)^(k-1) - 1 + (1 + eta)^k - 1``, about ``(k - 1)
  gamma + k eta``.  Underflow in a square errs by at most ``d 2**-1074``
  per entry, far below ``C_k f^k >= C_k 2**-k``; the relative roundoff
  of the bound itself lies inside ``TIE_RTOL``.

A NaN bound keeps its word.  On near-defective products ``eigvals`` moves
by about ``sqrt(2**-53) ||P||``, far beyond ``SCREEN_SLACK``; that is
why the slack is not left to it.  Batches of fewer than ``POWER_MIN``
words go to ``eigvals`` directly.  Every word of a larger batch is
squared up to ``S^8``, and the words left after the last square go to
``eigvals`` in chunks of decreasing power bound, ``POWER_MIN`` words
first and twice as many each time; after each chunk the words whose
bound lies below the running maximum less ``SCREEN_SLACK`` read
``-inf``.  So a word reads ``-inf`` only if its radius lies below ``(1 +
TIE_RTOL) * max(c, (1 - SCREEN_SLACK) * R)``, R the largest radius of
the batch: the maximum, its first argmax and the tie window are kept,
also with the seed's cutoff ``-inf``.
The adapted-norm family is built from :func:`_iter_levels`, and the
same screen serves the certified kernel of the adapted norm.  The
pruned search runs :func:`_extend` on the transposed generators: its
frontier holds ``A_w^T``, and ``A_w^T A_j^T = (A_j A_w)^T`` appends
symbol j, so its products associate right to left, like
:meth:`MatrixSet.product`.
It forms children in blocks of B parents, the most whose m children
fit in ``LEVEL_BYTES``.  Within a block the children come symbol-major
(child ``j*B + i``); the order matters only to the stable sort of a
budget-capped level, and there only at exact score ties.
Levels are computed serially on the calling thread; the ``workers``
keyword of :func:`sandwich` is accepted and ignored.
Argmax words at roundoff-level near-ties, such as rotations of one
word, are the lexicographically first under this association order and
may differ from those of products associated otherwise, such as
:meth:`MatrixSet.product`.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linalg
# the budget names, re-exported: bounds.BudgetCounter is budget.BudgetCounter
from .budget import (BUDGET_ENV, DEFAULT_BUDGET, BudgetCounter, BudgetExceededError,
                     InternalInvariantError, _counter)

__all__ = [
    "BudgetExceededError",
    "BudgetCounter",
    "InternalInvariantError",
    "MatrixSet",
    "Norm",
    "EuclideanNorm",
    "LevelBound",
    "rho_plus_n",
    "rho_minus_n",
    "BoundsRow",
    "BoundsReport",
    "sandwich",
    "PrunedBounds",
    "pruned_bounds",
    "RateFit",
    "fit_rate",
]

# relative tie window for reporting near-maximal words
TIE_RTOL = 1e-12

# Level screen (module docstring): a word is evaluated exactly while its
# bound is at least (1 - SCREEN_SLACK) times the running level maximum.
# The slack covers TIE_RTOL plus the relative roundoff of the bound and
# of the exact kernels, a small multiple of d**2 * 2**-53.
SCREEN_SLACK = 1e-8
# words of largest bound evaluated before the first cut
SCREEN_SEED = 64
# below this cutoff Frobenius squares may have underflowed: no screening
SCREEN_FLOOR = 1e-150

# Gelfand power stage of _spectral_radii (module docstring): squarings
# per word (up to P**8), the backward error of eigvals, eta =
# EIGVALS_BACKWARD * d * 2**-53, and POWER_MIN in two roles: the smallest
# batch staged (a smaller one costs less in eigvals than in the stage's
# fixed overhead) and the first eigvals chunk of the stage's survivors
POWER_STEPS = 3
EIGVALS_BACKWARD = 16
POWER_MIN = 8

# the one memory bound (module docstring): the largest level array held
# whole, a deeper level streams; it also caps a screening batch, a block
# of pruned children and a block of certified products
LEVEL_BYTES = 4 << 20


class MatrixSet:
    """A finite ordered family of d x d real or complex matrices with labels.

    The family is one read-only stack of the copies that
    :func:`linalg.as_matrix` makes, so the caller's arrays are left as
    they were: float64 when every matrix is real and complex128 otherwise,
    the dtype of every product formed from it.  ``matrices`` holds its
    views.
    """

    def __init__(self, matrices, labels=None):
        mats = [linalg.as_matrix(A) for A in matrices]
        if not mats:
            raise ValueError("matrix set must be nonempty")
        d = mats[0].shape[0]
        for i, A in enumerate(mats):
            if A.shape != (d, d):
                raise linalg.DimensionError(
                    "matrix %d has shape %r, expected (%d, %d)" % (i, A.shape, d, d)
                )
        self._stack = np.stack(mats)
        self._stack.setflags(write=False)
        self.matrices = list(self._stack)
        self.d = d
        if labels is None:
            labels = [str(i) for i in range(len(mats))]
        if len(labels) != len(mats):
            raise ValueError("need one label per matrix")
        self.labels = [str(s) for s in labels]

    def __len__(self):
        return len(self.matrices)

    def __getitem__(self, i):
        return self.matrices[i]

    def stack(self):
        """The family as one read-only ``(m, d, d)`` array."""
        return self._stack

    def scaled(self, factor):
        """A new set with every matrix multiplied by ``factor``; a factor
        or a product that is not finite raises the ``ValueError`` of
        :func:`linalg.as_matrix`, and no warning."""
        with np.errstate(over="ignore", invalid="ignore"):
            return MatrixSet(factor * self._stack, labels=self.labels)

    def check_word(self, word):
        """``word`` as a tuple of ints, raising ``IndexError`` on a symbol
        outside ``0..len(self) - 1``."""
        word = tuple(int(i) for i in word)
        m = len(self)
        for i in word:
            if not 0 <= i < m:
                raise IndexError("symbol %d out of range for a %d-matrix set" % (i, m))
        return word

    def product(self, word):
        """Product along a word, rightmost factor applied first.

        Index position 1 of the word acts first: the result is
        ``A[w_n] @ ... @ A[w_1]``.  The empty word gives the identity.
        It is the last product of :func:`_prefixes`.
        """
        return _prefixes(self, word)[-1]


@np.errstate(over="ignore", invalid="ignore")
def _prefixes(mset, word):
    """The products of every prefix of ``word``, ``A[w_k] @ ... @ A[w_1]``
    at index k = 0..n: one sweep of left multiplications from the
    identity, so entry k carries the bits of ``mset.product(word[:k])``.
    Every product along a word is formed here; a sweep with an entry that
    overflowed binary64 raises ``ValueError`` (:func:`_require_finite`).
    """
    word = mset.check_word(word)
    out = np.empty_like(mset.stack(), shape=(len(word) + 1, mset.d, mset.d))
    out[0] = np.eye(mset.d)
    for k, i in enumerate(word):
        out[k + 1] = mset.matrices[i] @ out[k]
    return _require_finite(out)


def _word_of_index(index, n, m):
    """Digits of ``index`` base ``m``, most significant first (= w_1)."""
    digits = [0] * n
    for k in range(n - 1, -1, -1):
        index, digits[k] = divmod(index, m)
    return tuple(digits)


# an overflowing product reads inf or NaN; the kernels raise on it (_scaled)
@np.errstate(over="ignore", invalid="ignore")
def _extend(P, gens):
    """Every product ``P_i @ gens[j]`` of a stack ``P`` of K words, at child ``j*K + i``.

    One matrix product per generator: the K words stacked row-wise into
    one ``(K*d, d)`` matrix times ``gens[j]`` give block j.
    """
    K, d = len(P), P.shape[1]
    return np.matmul(P.reshape(1, K * d, d), gens).reshape(len(gens) * K, d, d)


def _iter_levels(mset, n_max, counter):
    """Yield ``(n, P_n)`` for n = 1..n_max, P_n indexed lexicographically.

    Level n + 1 is :func:`_extend` of level n by the generators: child
    ``j*K + i`` prepends symbol ``j`` to word ``i``.  Since position 1
    acts first, ``A_(j, w) = A_w @ A_j``, and numeric order still equals
    lexicographic order on words.  A product therefore associates left to
    right, ``((A_wn ... A_w2) A_w1)``, not as a chain of left
    multiplications; the two differ in the last bits.  The level arrays
    have the dtype of ``mset.stack()``.  Level n charges m^n
    multiplications to ``counter`` before it is formed, and level n - 1
    is released before level n is yielded.
    """
    stack = mset.stack()
    P = np.eye(mset.d, dtype=stack.dtype)[None]
    for n in range(1, n_max + 1):
        counter.charge(len(P) * len(stack))
        P = _extend(P, stack)
        yield n, P


@np.errstate(over="ignore", invalid="ignore")
def _frobenius_norms(P):
    """``||P||_F`` per matrix: the cheap screening bound."""
    flat = P.reshape(len(P), math.prod(P.shape[1:]))
    if np.iscomplexobj(flat):
        flat = flat.view(np.float64)
    return np.sqrt(np.einsum("ni,ni->n", flat, flat))


class _StreamedLevel:
    """Level ``k + steps`` as a lazy stack over the stored level ``k``.

    It has the level's ``len``, and ``P[idx]`` re-forms the words of an
    integer index array from their ancestors in ``base`` by the
    :func:`_extend` steps that form the stored levels, so with the same
    bits.  Global word ``q*K + i`` descends from ``base[i]`` through the
    symbols of ``q`` base m, least significant first.  Each step is one
    :func:`_extend` of every word by every generator, of which word ``r``
    keeps its child ``symbol*len(Q) + r``.
    """

    def __init__(self, base, gens, steps):
        self.base, self.gens, self.steps = base, gens, steps

    def __len__(self):
        return len(self.base) * len(self.gens) ** self.steps

    def __getitem__(self, idx):
        high, anc = np.divmod(np.asarray(idx), len(self.base))
        Q = np.take(self.base, anc, axis=0)
        rows = np.arange(len(Q))
        for _ in range(self.steps):
            high, symbol = np.divmod(high, len(self.gens))
            Q = _extend(Q, self.gens)[symbol * len(Q) + rows]
        return Q


def _unit_scaled(Q):
    """``(Q / 2**e, e)`` with ``2**e`` the least power of two above the
    largest entry modulus of the stack ``Q``: exact but for entries below
    2**-1022 of that maximum.  An infinite or NaN entry gives e = 0."""
    e = max(int(np.frexp(np.abs(Q).max(initial=0.0))[1]), -1022)
    return Q * np.ldexp(1.0, -e), e


def _gram_rows(Q):
    """The Gram matrices ``Q_i^H Q_i`` as real rows, real and imaginary
    parts interleaved for complex entries."""
    gram = (np.swapaxes(Q, 1, 2).conj() @ Q).reshape(len(Q), -1)
    return gram.view(np.float64) if np.iscomplexobj(gram) else gram


class _Bounds:
    """Upper bounds ``F >= ||P||_F`` of a level's words, read one block at a time.

    A block is ``(start, raw)``: raw values of the words ``start, start +
    1, ...``, in an array that the next block may overwrite.  The screen
    (:func:`_screen_level`) compares raw values with :meth:`floor` of a
    threshold and applies :meth:`finish` to the raw values it keeps only.
    Bounds given whole, those of a stored level, are their own raw values
    and form one block; :class:`_GramBounds` reads a streamed level's.
    """

    def __init__(self, values):
        self.values = np.asarray(values)

    def blocks(self):
        """The blocks in word order."""
        yield 0, self.values

    def finish(self, raw):
        """The bounds of the words with raw values ``raw``."""
        return raw

    def floor(self, threshold):
        """A value such that every raw value below it finishes below ``threshold``."""
        return threshold


class _GramBounds(_Bounds):
    """The Gram bounds of a streamed level (module docstring), read as
    blocks of ``per_block`` suffixes, ``per_block * K`` words, into one
    buffer.

    ``gram`` is ``(rows, top, e)``: the Gram rows of the K base words
    ``B_i`` scaled by ``2**-e`` and their largest squared Frobenius norm.
    ``M`` holds the suffix products ``M_q``, ``N`` the products of
    ``|G_j|`` along them, and ``slack`` is ``C_s``.  The raw value of word
    ``q*K + i`` is the real inner product of the scaled Gram rows of
    ``M_q^H`` and ``B_i``, one real GEMM per block; :meth:`finish` adds
    the level's slack, takes the root and undoes the scales.
    """

    def __init__(self, gram, M, N, slack, per_block):
        self.base, top, e = gram
        N, f = _unit_scaled(N)
        self.suffixes = _gram_rows(np.swapaxes(M * np.ldexp(1.0, -f), 1, 2).conj())
        self.slack = slack * top * _frobenius_norms(N).max() ** 2
        self.scale, self.per_block = e + f, per_block

    def blocks(self):
        K = len(self.base)
        buffer = np.empty(min(self.per_block, len(self.suffixes)) * K)
        for q in range(0, len(self.suffixes), self.per_block):
            suffixes = self.suffixes[q:q + self.per_block]
            raw = buffer[:len(suffixes) * K]
            # an overflowing product reads inf or NaN, and keeps its word
            with np.errstate(over="ignore", invalid="ignore"):
                np.matmul(suffixes, self.base.T, out=raw.reshape(len(suffixes), K))
            yield q * K, raw

    @np.errstate(over="ignore", invalid="ignore")
    def finish(self, raw):
        out = raw + self.slack
        np.sqrt(out, out=out)
        return np.ldexp(out, self.scale, out=out)

    @np.errstate(over="ignore")
    def floor(self, threshold):
        """``t'**2 - c``, ``t'`` the threshold scaled by ``2**-scale`` and c
        the slack, less ``SCREEN_SLACK * (t'**2 + c)``: a raw value r whose
        bound reaches the threshold has ``r >= t'**2 - c - 3u t'**2``, u =
        2**-53, and the margin exceeds that term and the roundoff of this
        one by far."""
        square = np.ldexp(threshold, -self.scale) ** 2
        return square - self.slack - SCREEN_SLACK * (square + self.slack)


def _levels(mset, n_max, counter):
    """Yield ``(n, P_n, F_n)`` for n = 1..n_max, with ``F_n`` a
    :class:`_Bounds` of ``||P_n||_F`` per word: the level generator of
    every exhaustive-level consumer (module docstring).

    Levels whose array fits in ``LEVEL_BYTES`` come from
    :func:`_iter_levels`, with ``F_n = ||P_n||_F`` in one block.  Each
    deeper level n charges m^n to ``counter`` and is yielded as a
    :class:`_StreamedLevel` over the last stored level k, with the
    :class:`_GramBounds` over the base level ``b = min(k, ceil(n_max /
    2))``, in blocks of whole suffixes that hold at most as many words as
    ``LEVEL_BYTES`` (one suffix if that holds fewer than ``m^b``); a
    budget that stops a charge raises there, after the levels before it.
    """
    stack = mset.stack()
    m, d = len(stack), mset.d
    words = max(1, LEVEL_BYTES // stack[0].nbytes)
    k = 0
    while k < n_max and m ** (k + 1) <= words:
        k += 1
    b = min(k, -(-n_max // 2))
    P = base = np.eye(d, dtype=stack.dtype)[None]
    for n, P in _iter_levels(mset, k, counter):
        if n == b:
            base = P
        yield n, P, _Bounds(_frobenius_norms(P))
    if k == n_max:
        return
    B, e = _unit_scaled(base)
    gram = _gram_rows(B), _frobenius_norms(B).max() ** 2, e
    per_block = max(1, words // len(B))
    M, N, moduli = np.eye(d, dtype=stack.dtype)[None], np.eye(d)[None], np.abs(stack)
    for n in range(k + 1, n_max + 1):
        counter.charge(m**n)
        while len(N) < m ** (n - b):
            M, N = _extend(M, stack), _extend(N, moduli)
        slack = _gram_slack(d, np.iscomplexobj(stack), n - b)
        yield n, _StreamedLevel(P, stack, n - k), _GramBounds(gram, M, N, slack, per_block)


def _require_finite(values):
    """``values``, raising ``ValueError`` if an entry is infinite or NaN,
    which is how a product that overflowed binary64 reads."""
    if not np.isfinite(values).all():
        raise ValueError("products overflow binary64; scale the family")
    return values


def _scaled(Q):
    """``(Q / s, s)`` with ``s`` per matrix the least power of two above its
    largest entry modulus (1 for a zero matrix), capped at 2**1023, the
    largest power of two in binary64.  The scaling is exact, puts every
    entry below 2 (below 1 unless an entry reaches 2**1023), and so keeps
    squares and Gram matrices clear of overflow and of all but negligible
    underflow.  A matrix with an infinite or NaN entry, which is how an
    overflowing product reads, raises ``ValueError``."""
    top = _require_finite(np.abs(Q).max(axis=(1, 2)))
    scale = np.ldexp(1.0, np.minimum(np.frexp(top)[1], 1023))
    return Q / scale[:, None, None], scale


def _euclidean_norms(Q):
    """``||Q||_2 = sqrt(lambda_max(Q^H Q))`` per matrix of a batch."""
    Q, scale = _scaled(Q)
    gram = np.swapaxes(Q, 1, 2).conj() @ Q
    return scale * np.sqrt(np.linalg.eigvalsh(gram)[:, -1])


def _product_roundoff(d, complex_entries):
    """``gamma`` of one product of d x d matrices: ``gamma_d = d u / (1 -
    d u)`` for real and ``sqrt(2) gamma_2d`` for complex entries, u =
    2**-53 (module docstring)."""
    n = 2 * d if complex_entries else d
    u = 2.0**-53
    return n * u / (1.0 - n * u) * (math.sqrt(2.0) if complex_entries else 1.0)


@functools.lru_cache(maxsize=None)
def _power_slacks(d, complex_entries):
    """``(k, C_k)`` for the stage's powers k = 2, 4, ..., 2**POWER_STEPS:
    the slack of ``||P^k||_F`` relative to ``||P||_F**k`` (module docstring)."""
    gamma = _product_roundoff(d, complex_entries)
    eta = EIGVALS_BACKWARD * d * 2.0**-53
    powers = [2**j for j in range(1, POWER_STEPS + 1)]
    return tuple(
        (k, math.expm1((k - 1) * math.log1p(gamma)) + math.expm1(k * math.log1p(eta)))
        for k in powers
    )


def _gram_slack(d, complex_entries, steps):
    """``C_s`` of the Gram bounds of the words ``steps`` = s steps below
    their base words (module docstring): twice the first-order sum ``4 s
    gamma + (D + 3) u``, with D the real entries of a word."""
    D = (2 if complex_entries else 1) * d * d
    return 2.0 * (4 * steps * _product_roundoff(d, complex_entries) + (D + 3) * 2.0**-53)


def _eigvals_radii(Q):
    """Largest ``eigvals`` modulus per matrix; ``ValueError`` on an
    overflowed product (:func:`_require_finite`)."""
    try:
        return np.abs(np.linalg.eigvals(Q)).max(axis=1)
    except np.linalg.LinAlgError:
        _require_finite(Q)
        raise


def _spectral_radii(Q, cutoff):
    """Largest eigenvalue modulus per matrix of a batch.

    A batch of fewer than ``POWER_MIN`` words goes to ``eigvals`` whole.
    A larger one passes the Gelfand power stage (module docstring): every
    word is squared ``POWER_STEPS`` times, and dropped after the square to
    ``P^k`` once its bound ``(||P^k||_F + C_k ||P||_F**k)**(1/k)`` falls
    below ``cutoff``.  ``eigvals`` runs on the words left in chunks of
    decreasing last bound, ``POWER_MIN`` words first and twice as many
    each time, while that bound reaches the running maximum less
    ``SCREEN_SLACK``.  A word it skips reads ``-inf``; its value lies
    below ``(1 + TIE_RTOL) * max(cutoff, (1 - SCREEN_SLACK) * R)``, R the
    largest radius of the batch.  A batch with an infinite or NaN entry,
    which is how an overflowing product reads, raises ``ValueError``, as
    :func:`_scaled` does.
    """
    if len(Q) < POWER_MIN:
        return _eigvals_radii(Q)
    alive = np.arange(len(Q))
    S, scale = _scaled(Q)
    f, c = _frobenius_norms(S), cutoff / scale
    for k, C in _power_slacks(Q.shape[1], np.iscomplexobj(Q)):
        S = S @ S
        bound = (_frobenius_norms(S) + C * f**k) ** (1.0 / k)
        stay = ~(bound < c)
        S, f, c, alive, bound = S[stay], f[stay], c[stay], alive[stay], bound[stay]
    radii = np.full(len(Q), -np.inf)
    bound *= scale[alive]
    order = np.argsort(-bound, kind="stable")
    alive, bound = alive[order], bound[order]
    size, best = POWER_MIN, -np.inf
    while len(alive):
        chunk, alive, bound = alive[:size], alive[size:], bound[size:]
        radii[chunk] = values = _eigvals_radii(Q[chunk])
        best = np.max([best, values.max()])
        stay = ~(bound < _screen_cutoff(best, 1.0)[0])
        alive, bound = alive[stay], bound[stay]
        size *= 2
    return radii


def _screen_cutoff(best, factor):
    """``(cutoff, threshold)`` for words whose values are at most
    ``factor`` times their bounds: the smallest value, and the smallest
    bound, with which a word stays a candidate for a value at least
    ``best``.  The threshold is 0, which screens nothing, for a NaN
    ``best`` or below ``SCREEN_FLOOR``, where the squares in ``||P||_F``
    may have underflowed; a NaN cutoff cuts nothing either."""
    cutoff = best * (1.0 - SCREEN_SLACK)
    threshold = cutoff / factor
    return cutoff, (threshold if threshold >= SCREEN_FLOOR else 0.0)


def _new_rows(columns):
    """Whether each row of a 2-D array differs from the row before it,
    from the array's columns; the first row is new."""
    new = False
    for column in columns:
        new = new | (column[1:] != column[:-1])
    return np.concatenate([[True], new])


def _once(kernel, Q, bound, cutoff):
    """``kernel(Q, cutoff)``, with each bit-identical word of ``Q`` evaluated once.

    ``bound`` holds the words' bounds in decreasing order.  Identical words
    have identical bounds (on a streamed level, wherever the Gram products
    are exact; elsewhere a repeated word may be evaluated twice, which
    changes no value), so a batch in which no two neighbours tie goes to
    the kernel whole; that is the one whole-batch exit.  Otherwise words
    are compared by the ``uint64`` view of their entries (so ``-0.0`` and
    ``0.0`` stay apart): the batch is cut into runs of identical
    neighbours, so that a repeating family sorts few words, the first
    words of the runs are grouped, the kernel runs on one word per group,
    and its values are copied back.  A kernel value depends on its own
    word only, so the values are those of evaluating every word, up to
    the ``-inf`` a kernel may read below its cutoff.
    """
    if not (bound[1:] == bound[:-1]).any():
        return kernel(Q, cutoff)
    bits = Q.reshape(len(Q), -1).view(np.uint64)
    heads = np.flatnonzero(_new_rows(bits.T))
    rows = bits if len(heads) == len(Q) else bits[heads]
    order = np.lexsort(rows.T)
    first = _new_rows(column[order] for column in rows.T)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    values = kernel(Q[heads[order[first]]], cutoff)[inverse]
    return np.repeat(values, np.diff(heads, append=len(Q)))


def _top(values, size):
    """Positions, in increasing order, of the ``size`` largest of the
    nonempty array ``values``: NaN ranks above every number, and of equal
    values the first positions win."""
    k = max(len(values) - size, 0)
    top = np.argpartition(values, k)[k:]
    v = values[top[0]]
    tied = values == v if v == v else values != values
    if np.count_nonzero(tied) > np.count_nonzero(tied[top]):
        # the selection chose among the values tied at its least
        above = top[~tied[top]]
        top = np.concatenate([above, np.flatnonzero(tied)[:len(top) - len(above)]])
    return np.sort(top)


def _seed(fro):
    """The ``SCREEN_SEED`` words of largest raw value in the blocks of
    ``fro``, ties to the lowest index, as ``(idx, bound)`` in decreasing
    bound: one pass that keeps a running top.  Once the top is full, a
    block offers it only the raw values at or above its least."""
    idx, raw = np.empty(0, dtype=np.intp), np.empty(0)
    for start, block in fro.blocks():
        if len(raw) < SCREEN_SEED:
            pos = _top(block, SCREEN_SEED)
        else:
            pos = np.flatnonzero(~(block < np.fmin.reduce(raw)))
        idx, raw = np.concatenate([idx, start + pos]), np.concatenate([raw, block[pos]])
        if len(raw) > SCREEN_SEED:
            top = _top(raw, SCREEN_SEED)
            idx, raw = idx[top], raw[top]
    bound = fro.finish(raw)
    order = np.argsort(-bound, kind="stable")
    return idx[order], bound[order]


def _reaching(fro, threshold, seed):
    """The words of ``fro`` outside ``seed`` whose bounds reach
    ``threshold`` or are NaN, as ``(idx, bound)`` in decreasing bound,
    stable: one pass that finishes only the raw values at or above
    ``fro.floor(threshold)``."""
    low = fro.floor(threshold)
    idx, bound = [], []
    for start, block in fro.blocks():
        reach = ~(block < low)
        reach[seed[(seed >= start) & (seed < start + len(block))] - start] = False
        pos = np.flatnonzero(reach)
        values = fro.finish(block[pos])
        keep = ~(values < threshold)
        idx.append(pos[keep] + start)
        bound.append(values[keep])
    # where every word reaches, each of these holds one entry per word
    del reach, pos, values, keep
    idx = np.concatenate(idx)
    bound = np.concatenate(bound)
    order = np.argsort(-bound, kind="stable")
    idx = idx[order]
    return idx, bound[order]


def _screen_level(fro, kernels, P):
    """The values of each kernel on the words of ``P`` that can reach its maximum.

    ``kernels`` holds ``(factor, kernel)`` pairs and ``fro`` upper bounds
    of the words' Frobenius norms, a :class:`_Bounds` or an array (the
    norms themselves on stored levels): ``factor * fro[i]`` must bound
    ``kernel(P[i])`` from above up to roundoff.  ``P`` is indexed by
    integer arrays only, so it may be a lazy stack.  Two passes over the
    blocks of ``fro`` read its bounds (:func:`_seed`,
    :func:`_reaching`), and no array holds one entry per word unless that
    many words reach the threshold.  The ``SCREEN_SEED`` words of largest
    ``fro`` are evaluated first, as ``kernel(seed, -inf)``.  One list
    holds the other words whose ``fro`` reaches the lowest of the kernels'
    thresholds ``c / factor``, in decreasing ``fro``, ``c`` being a
    kernel's running maximum less ``SCREEN_SLACK``
    (:func:`_screen_cutoff`).  Where nothing can be screened, below
    ``SCREEN_FLOOR``, after a NaN value, or where every word ties, that
    list holds every other word of the level.  It is read out of ``P``
    once per batch of the words that fit in ``LEVEL_BYTES``, each kernel
    evaluates the words of the batch that reach its own threshold, as
    ``kernel(words, c)``, and the list is filtered after every batch.  A
    kernel may also read ``-inf`` on words whose values lie below ``(1 +
    TIE_RTOL) * c``, or, for :func:`_spectral_radii`, below its batch
    maximum less ``SCREEN_SLACK``, outside the tie window; the certified
    kernel of :class:`jsrkit.extremal.AdaptedNorm` stops its descents
    there.  Each batch evaluates every bit-identical word once
    (:func:`_once`).  A value depends on its own word only, and the
    ``-inf`` contract holds for any batch, so the maximum, its
    lexicographically first argmax and the ``TIE_RTOL`` tie window equal
    those of evaluating every word.

    Returns one ``(idx, values)`` pair per kernel: the distinct indices
    it evaluated, in no particular order, and their values.
    """
    if not isinstance(fro, _Bounds):
        fro = _Bounds(fro)
    batch, bound = _seed(fro)
    size = len(batch)
    Q = P[batch]
    cap = max(size, LEVEL_BYTES * size // Q.nbytes)
    found = [([batch], [_once(kernel, Q, bound, -np.inf)]) for _, kernel in kernels]
    # a NaN value makes ``best`` NaN: its cutoff screens nothing
    best = [values[0].max() for _, values in found]
    cuts = [_screen_cutoff(b, factor) for b, (factor, _) in zip(best, kernels)]
    rest, rest_bound = _reaching(fro, min(t for _, t in cuts), batch)
    while len(rest):
        batch, rest = rest[:cap], rest[cap:]
        bound, rest_bound = rest_bound[:cap], rest_bound[cap:]
        Q = P[batch]
        for j, (factor, kernel) in enumerate(kernels):
            cutoff, threshold = cuts[j]
            reach = ~(bound < threshold)
            count = np.count_nonzero(reach)
            if not count:
                continue
            # the words that reach are a prefix unless a bound is NaN
            take = slice(count) if reach[:count].all() else reach
            values = _once(kernel, Q[take], bound[take], cutoff)
            found[j][0].append(batch[take])
            found[j][1].append(values)
            best[j] = np.max([best[j], values.max()])
            cuts[j] = _screen_cutoff(best[j], factor)
        keep = ~(rest_bound < min(t for _, t in cuts))
        rest, rest_bound = rest[keep], rest_bound[keep]
    del Q, bound  # the last batch goes before the values are joined
    return [(np.concatenate(idx), np.concatenate(values)) for idx, values in found]


def _screened(fro, factor, kernel, P):
    """The values of one kernel under :func:`_screen_level` as one array
    over the words of ``P``: a word it did not evaluate reads ``-inf``."""
    [(idx, values)] = _screen_level(fro, [(factor, kernel)], P)
    out = np.full(len(fro), -np.inf)
    out[idx] = values
    return out


class Norm:
    """The norm protocol (module docstring of :mod:`jsrkit.extremal`).

    A norm defines four members: ``label``; ``factor``, a constant L with
    ``matrix_norms(Q, c)[i] <= L ||Q_i||_F``; ``vector_norms(V)``; and the
    batched kernel ``matrix_norms(Q, cutoff)``.  The three members below
    derive from them.
    """

    def vector_norm(self, v):
        """The norm of one vector."""
        return float(self.vector_norms(linalg.as_vector(v))[0])

    def matrix_norm(self, M):
        """The operator norm of one matrix, by the batched kernel."""
        return float(self.matrix_norms(linalg.as_matrix(M)[None], -np.inf)[0])

    def matrix_norms_batch(self, P, fro):
        """``matrix_norms`` of a stack ``P`` with Frobenius bounds ``fro``,
        on every word that can reach the maximum or its tie window, under
        the level screen of :func:`_screen_level` by ``factor * fro``, as
        one array over the words of ``P``: the other words read ``-inf``."""
        return _screened(fro, self.factor, self.matrix_norms, P)


class EuclideanNorm(Norm):
    """The Euclidean vector norm and its induced operator norm."""

    label = "euclidean"
    # ||Q||_2 <= ||Q||_F
    factor = 1.0

    def vector_norms(self, V):
        """Norms of the columns of a d x r array; a vector is one column."""
        return np.linalg.norm(linalg.as_columns(V), axis=0)

    def matrix_norms(self, Q, cutoff):
        """``||Q||_2`` per matrix by the Gram-based kernel, which is exact
        and so needs no cutoff."""
        return _euclidean_norms(Q)

    def __repr__(self):
        return "EuclideanNorm()"


# the norm of every entry point given ``norm=None``
EUCLIDEAN = EuclideanNorm()


@dataclass(frozen=True)
class LevelBound:
    """A per-length bound value with its lexicographically first argmax word."""

    value: float
    word: tuple
    ties: tuple = ()


def _level_bound(values, idx, n, m, ties):
    """The ``n``-th root of the largest of ``values``, its word and, with
    ``ties``, the words within ``TIE_RTOL`` of it.  ``values`` belong to
    the distinct word indices ``idx``, in any order; the word of the
    maximum is its smallest index, the lexicographically least word."""
    order = np.argsort(idx)
    idx, values = idx[order], values[order]
    top = int(np.argmax(values))  # first occurrence = lexicographically least word
    hits = idx[values >= values[top] * (1.0 - TIE_RTOL)] if ties else ()
    tie_words = tuple(_word_of_index(int(i), n, m) for i in hits)
    return LevelBound(float(values[top] ** (1.0 / n)), _word_of_index(int(idx[top]), n, m), tie_words)


def _level_bounds(P, fro, n, m, kernels, ties=False):
    """One :class:`LevelBound` per ``(factor, kernel)`` pair of ``kernels``
    on one level ``P``, all under one screen (:func:`_screen_level`).

    ``fro`` holds the level's Frobenius norms or their upper bounds, as
    :func:`_levels` yields them.  :func:`sandwich` passes the pair of its
    norm (the norm protocol of :mod:`jsrkit.extremal`) and that of the
    radius kernel :func:`_spectral_radii`, :func:`rho_plus_n` and
    :func:`rho_minus_n` one of them.
    """
    return [_level_bound(values, idx, n, m, ties) for idx, values in _screen_level(fro, kernels, P)]


def _level(mset, n, factor, kernel, budget, ties):
    """The level-``n`` bound of one kernel, by :func:`_level_bounds`."""
    if n < 1:
        raise ValueError("n must be at least 1")
    for level, P, fro in _levels(mset, n, _counter(budget)):
        if level == n:
            [bound] = _level_bounds(P, fro, n, len(mset), [(factor, kernel)], ties)
            return bound


def rho_plus_n(mset, n, norm=None, budget=None, ties=False):
    """Largest ``||A_w||^(1/n)`` over all words of length ``n``.

    ``norm`` follows the norm protocol of :mod:`jsrkit.extremal`; None is
    the Euclidean norm, whose maximum is exact.  Only the norm's kernel,
    ``norm.matrix_norms``, runs under the level screen: no spectral radius
    is computed.  A norm that returns certified upper values, such as the
    adapted norm, gives a sound upper value.  Ties are broken towards the
    lexicographically smallest word.  At roundoff-level near-ties, such
    as rotations of one word, that is the first word under the level
    kernel's left-to-right association order, which may differ from the
    choice of products associated otherwise, such as
    :meth:`MatrixSet.product`.
    """
    norm = EUCLIDEAN if norm is None else norm
    return _level(mset, n, norm.factor, norm.matrix_norms, budget, ties)


def rho_minus_n(mset, n, budget=None, ties=False):
    """Largest ``rho(A_w)^(1/n)`` over all words of length ``n``.

    Exact; only the screened radius kernel of :func:`_level_bounds` runs,
    no norm: ``eigvals`` runs only on the words whose ``||A_w||_F`` and
    Gelfand power bound reach the level's running maximum less
    ``SCREEN_SLACK`` (module docstring).  Ties and near-ties are broken as
    in :func:`rho_plus_n`.
    """
    return _level(mset, n, 1.0, _spectral_radii, budget, ties)


def _check_enclosure(lower, upper, where):
    """Raise :class:`InternalInvariantError` if ``lower`` exceeds ``upper``
    by more than roundoff, ``1e-9 * max(upper, lower)``: relative at every
    scale, so an enclosure whose products underflowed is refused."""
    if upper - lower < -1e-9 * max(upper, lower):
        raise InternalInvariantError(
            "lower bound %.17g exceeds upper bound %.17g %s" % (lower, upper, where)
        )


@dataclass(frozen=True)
class BoundsRow:
    n: int
    rho_plus: float
    rho_minus: float
    best_lower: float
    best_upper: float
    gap: float
    word_plus: tuple
    word_minus: tuple


@dataclass
class BoundsReport:
    """Per-length bound values together with the running enclosure."""

    rows: list
    norm_label: str
    truncated: bool = False

    def best_lower(self):
        return self.rows[-1].best_lower if self.rows else 0.0

    def best_upper(self):
        return self.rows[-1].best_upper if self.rows else math.inf


def sandwich(mset, N, norm=None, budget=None, workers=1):
    """Bound rows for n = 1..N with running best lower/upper values.

    The enclosure ``best_lower <= jsr(A) <= best_upper`` holds for every
    row; the two running bounds are checked against each other and an
    :class:`InternalInvariantError` is raised if they ever cross beyond
    roundoff, or ``ValueError`` if they cross at a level whose largest
    norm lies below 2**-1022, where products underflowed.  Exhausting
    the multiplication budget truncates the report (flagged) rather than
    raising; level n charges m^n multiplications.

    Each level goes through one screen for both kernels (module
    docstring): ``F >= ||P||_F`` once per word (equal on stored levels),
    ``norm.matrix_norms`` (the norm protocol of :mod:`jsrkit.extremal`;
    None is the Euclidean norm) and ``eigvals`` only where ``F`` and the
    Gelfand power bound let the word reach the level maximum less
    ``SCREEN_SLACK``.

    ``workers`` is accepted and ignored, so that existing callers keep
    running: every level is computed serially on the calling thread.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    counter = _counter(budget)
    norm = EUCLIDEAN if norm is None else norm
    report = BoundsReport(rows=[], norm_label=norm.label)
    best_lower, best_upper = 0.0, math.inf
    m = len(mset)
    kernels = [(norm.factor, norm.matrix_norms), (1.0, _spectral_radii)]
    try:
        for n, P, fro in _levels(mset, N, counter):
            plus, minus = _level_bounds(P, fro, n, m, kernels)
            best_lower = max(best_lower, minus.value)
            best_upper = min(best_upper, plus.value)
            try:
                _check_enclosure(best_lower, best_upper, "at n=%d" % n)
            except InternalInvariantError:
                # the level's products underflowed: the input is at fault, as
                # for an overflowing product
                if plus.value**n < sys.float_info.min:
                    raise ValueError("products underflow binary64; scale the family") from None
                raise
            report.rows.append(
                BoundsRow(
                    n, plus.value, minus.value, best_lower, best_upper, best_upper - best_lower,
                    plus.word, minus.word,
                )
            )
    except BudgetExceededError:
        report.truncated = True
    return report


@dataclass
class PrunedBounds:
    """A pruned-search enclosure; ``capped`` if the budget could not cover
    a whole frontier, so that the search stopped after the nodes it could
    afford."""

    lower: float
    upper: float
    conclusive: bool
    expanded: int
    deepest: int
    capped: bool


def _pruned_level(gens, parents, n, lower, delta):
    """Children at depth ``n`` of the ``parents`` products, with Gripenberg's keep rule.

    ``parents`` and ``gens`` hold transposed products and generators, so
    :func:`_extend` appends: ``A_w^T A_j^T = (A_j A_w)^T``.
    Returns ``(kept, scores, lower, retired)``: the children whose
    normalised norm ``s = ||P||_2^(1/n)`` satisfies ``s - lower > delta``
    for the ``lower`` raised by this level's spectral radii, their scores
    in child order, that ``lower``, and the largest score retired.  The
    children are formed in blocks of parents whose children fit in
    ``LEVEL_BYTES``; each block is pre-filtered with the running
    ``lower``, which only grows, so the kept set does not depend on the
    block size.  Radii are evaluated only for children whose norm reaches
    the cutoff ``c`` of ``_screen_cutoff(lower**n, 1.0)`` (unless it is
    below ``SCREEN_FLOOR``), and there through the power stage at ``c``:
    a radius it skips is below ``(1 + TIE_RTOL) * c < lower**n`` or
    below the largest radius of the block, and could not raise ``lower``,
    so ``lower`` is bit-identical to evaluating every child.
    """
    root = 1.0 / n
    kept, scores, retired = [], [], 0.0
    block = max(1, LEVEL_BYTES // (len(gens) * gens[0].nbytes))
    for start in range(0, len(parents), block):
        children = _extend(parents[start:start + block], gens)
        norms = _euclidean_norms(children)
        # a radius below the cutoff leaves lower as it is: skip it (in
        # float64, lower**n overflows to inf instead of raising)
        cutoff, threshold = _screen_cutoff(np.float64(lower) ** n, 1.0)
        top = _spectral_radii(children[~(norms < threshold)], cutoff).max(initial=0.0)
        lower = max(lower, float(top) ** root)
        s = norms ** root
        alive = s - lower > delta
        retired = max(retired, s[~alive].max(initial=0.0))
        kept.append(children[alive])
        scores.append(s[alive])
    s = np.concatenate(scores)
    alive = s - lower > delta
    retired = max(retired, s[~alive].max(initial=0.0))
    return np.concatenate(kept)[alive], s[alive], lower, float(retired)


def pruned_bounds(mset, delta, max_depth=40, budget=None):
    """Level-synchronous Gripenberg search for an enclosure of width ``delta``.

    The search expands the word tree one length at a time.  Every child
    ``w`` of a level raises ``lower`` to ``rho(A_w)^(1/|w|)`` if larger;
    it stays on the frontier iff its normalised norm
    ``s = ||A_w||_2^(1/|w|)`` satisfies ``s - lower > delta`` for the
    ``lower`` reached at the end of its level (Gripenberg, LAA 234
    (1996)), and is retired otherwise.  The retired and frontier words
    form a cut of the word tree, so every long product factors through
    one of them and ``upper = max(retired, frontier)`` of their ``s`` is
    sound.  A retired word cannot block closure, so an empty frontier
    means ``upper - lower <= delta``.

    The search stops when the frontier is empty (conclusive), when the
    depth reaches ``max_depth``, or when the budget cannot cover the whole
    frontier: then the affordable nodes of largest ``s`` (stable order)
    are expanded, the rest retired, and the search stops after that
    level.  Any stop with a gap above ``delta`` yields an inconclusive
    result (flag, not an exception).  A lower bound above the upper bound
    beyond roundoff raises :class:`InternalInvariantError`, as in
    :func:`sandwich`.

    Products have the dtype of ``mset.stack()`` (float64 for real
    families).  Each expanded node charges m multiplications, the root
    included.  The frontier holds transposed products, extended by
    :func:`_extend` on the transposed generators (module docstring); the
    children are scored by the batched ``||.||_2`` (Gram matrix and
    ``eigvalsh``).
    Their spectral radii are computed only where they can raise
    ``lower``: on the children whose norm, and then whose Gelfand power
    bound (module docstring), reaches ``lower**n`` less ``SCREEN_SLACK``.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    counter = _counter(budget)
    gens = np.swapaxes(mset.stack(), 1, 2)
    m = len(gens)

    counter.charge(m)
    parents = np.eye(mset.d, dtype=gens.dtype)[None]
    lower = retired_max = 0.0
    expanded = depth = 0
    capped = False
    while True:
        depth += 1
        parents, scores, lower, retired = _pruned_level(gens, parents, depth, lower, delta)
        retired_max = max(retired_max, retired)
        if capped or not len(parents) or depth >= max_depth:
            break
        affordable = counter.remaining // m
        if affordable < len(parents):
            order = np.argsort(-scores, kind="stable")
            retired_max = max(retired_max, float(scores[order[affordable:]].max()))
            parents, scores = parents[order[:affordable]], scores[order[:affordable]]
            capped = True
            if not affordable:
                break
        counter.charge(m * len(parents))
        expanded += len(parents)

    upper = max(retired_max, float(scores.max(initial=0.0)))
    _check_enclosure(lower, upper, "in the pruned search")
    return PrunedBounds(lower, upper, upper - lower <= delta, expanded, depth, capped)


@dataclass(frozen=True)
class RateFit:
    """Fitted decay exponent of the gap column, or a convergence flag."""

    r_hat: float
    r_squared: float
    converged: bool = False


# a value at or below this is roundoff and is not fitted: a gap reads as
# converged (fit_rate), a cocycle norm is left out of its log-linear fit
FIT_FLOOR = 1e-13


def _line_fit(x, y):
    """Least-squares line through ``(x, y)``: ``(slope, intercept, R^2)``."""
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fit_rate(report, tail_fraction=0.5):
    """Least-squares slope of log(gap) against log(n) over the tail rows.

    ``r_hat`` is minus the slope, so gap ~ n**(-r_hat).  If any tail gap
    has already collapsed to ``FIT_FLOOR`` the fit is skipped and the
    result carries ``converged=True`` instead.
    """
    if not 0.0 < tail_fraction < 1.0:
        raise ValueError("tail_fraction must lie in (0, 1)")
    rows = report.rows
    k = max(1, math.ceil(len(rows) * tail_fraction))
    tail = rows[-k:]
    if len(tail) < 6:
        raise ValueError("need at least 6 rows in the fitted tail, have %d" % len(tail))
    gaps = np.array([row.gap for row in tail], dtype=float)
    if np.any(gaps <= FIT_FLOOR):
        return RateFit(r_hat=math.nan, r_squared=math.nan, converged=True)
    slope, _, r2 = _line_fit(np.log([row.n for row in tail]), np.log(gaps))
    return RateFit(r_hat=float(-slope), r_squared=r2)
