"""Sparse exact linear algebra over Q(i).

Vectors are dicts from coordinate index to nonzero GaussRat.  rref,
nullspace and Subspace take a list of such row dicts plus an explicit column
count; SparseMatrix, the one square-matrix type, stores exactly such a list.
Everything here is deterministic: the RREF of a row span is unique, so
reduced forms (and hence every Subspace) are canonical.

rref is a certified multimodular elimination (the multimodular echelon form
of W. Stein, *Modular Forms: A Computational Approach*, AMS GSM 79, ch. 7;
rational reconstruction as in J. D. Dixon, *Numer. Math.* 40 (1982)
137-141).  Exact elimination over Q(i) is slow because coefficients grow
while it runs, even when the final RREF is small.  So:

* each row is scaled to Z[i] by the lcm of its denominators;
* the rows are reduced to RREF modulo primes p = 1 (mod 4) below 2^30, taken
  from a fixed table.  When an entry is non-real this happens under both
  embeddings i -> s and i -> -s (s^2 = -1 mod p), which recovers the real
  and imaginary parts;
* a prime that gives fewer pivots than another, or the same number in later
  columns, is unlucky and dropped; after the first good prime only the rows
  that gave its pivots are eliminated;
* the residues of the good primes are combined by CRT, and primes are added
  until every entry has a rational reconstruction;
* the result R, with r rows, is certified before it is returned.  A prime
  with r pivots gives rank >= r, since a minor that is nonzero mod p is
  nonzero.  Every cleared input row m must equal sum_j m[pivot_j] R_j,
  which is checked exactly on the non-pivot columns over one common
  denominator; that gives rank <= r and the same row span, so R is the
  canonical RREF.  When the check fails, another prime is added.

rref is _clear_denominators, certified_rref (where callers holding Z[i]
rows start) and _assemble.

A rank needs none of this.  rank clears denominators the same way and hands
the Z[i] rows to integer_rank, a fraction-free elimination that counts
pivots in integer arithmetic alone: no prime, reconstruction or certificate.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .exactnum import ONE as _ONE, GaussRat, ZERO, gauss

Vec = dict  # {index: GaussRat}

_MINUS_ONE = GaussRat(-1)


def vec_add(dst: Vec, src: Vec, factor: GaussRat | None = None) -> None:
    """In-place dst += factor * src (factor None means 1)."""
    for idx, value in src.items():
        term = value if factor is None else factor * value
        acc = dst.get(idx)
        acc = term if acc is None else acc + term
        if acc:
            dst[idx] = acc
        else:
            dst.pop(idx, None)


def vec_from_seq(values: Sequence) -> Vec:
    out = {}
    for idx, value in enumerate(values):
        scalar = gauss(value)
        if scalar:
            out[idx] = scalar
    return out


def rref(rows: Iterable[Vec], ncols: int) -> tuple[list[int], list[Vec]]:
    """Reduced row echelon form.  Returns (pivot columns, reduced rows).

    Every entry of rows must lie in columns 0..ncols-1.  The result is the
    canonical RREF of the row span: pivots ascend, each reduced row has a 1
    at its pivot, zeros at the other pivots, and its entries in ascending
    column order.  It is computed modulo primes and certified exactly (see
    the module docstring)."""
    pivots, den, nums = certified_rref(_clear_denominators(rows, ncols), ncols)
    return pivots, _assemble(pivots, den, nums, ncols)


def certified_rref(cleared: list[dict], ncols: int) -> tuple[list[int], int, list[dict]]:
    """The certified RREF of nonzero Z[i] rows in the layout of
    _clear_denominators: (pivots, den, nums), reduced row j being a 1 at
    pivots[j] plus nums[j] / den.  Scaling a row changes nothing."""
    if not cleared:
        return [], 1, []
    imaginary = any(max(row) >= ncols for row in cleared)
    best: list[int] | None = None
    basis = cleared
    for k in count():
        p, s = _prime(k)
        got = _rref_mod(basis, ncols, p, s if imaginary else None)
        if got is None:
            continue
        pivots, prows, used = got
        if best is not None and pivots != best:
            if len(pivots) < len(best) or (len(pivots) == len(best) and pivots > best):
                continue  # unlucky prime
            best = None
        # later primes eliminate only the rows that gave the pivots
        basis = [basis[i] for i in used]
        if best is None:
            best, modulus, residues = pivots, p, prows
        else:
            _crt_into(residues, modulus, prows, p)
            modulus *= p
        exact = _reconstruct(residues, modulus)
        if exact is None:
            continue
        den, nums = exact
        if _spans(cleared, best, den, nums, ncols):
            return best, den, nums
        basis = cleared  # a wrong reconstruction or an unlucky pivot list


# -- multimodular elimination ------------------------------------------------------

# primes p = 1 (mod 4) below 2^30, descending, each with s, s^2 = -1 (mod p);
# residues below 2^30 are single-digit Python ints, which keeps mod-p
# arithmetic on CPython's fast path
_PRIMES = [
    (1073741789, 140687844), (1073741741, 289525921),
    (1073741717, 33787048), (1073741689, 206100978),
    (1073741621, 11297358), (1073741561, 487957686),
    (1073741477, 331194902), (1073741441, 67419063),
    (1073741381, 157434607), (1073741329, 326779353),
    (1073741309, 402493037), (1073741237, 493397061),
    (1073741213, 226942476), (1073741197, 298302353),
    (1073741189, 56166142), (1073741173, 119965263),
    (1073741101, 192453365), (1073741077, 50564075),
    (1073740933, 147050931), (1073740909, 504713818),
    (1073740853, 7176488), (1073740793, 37706739),
    (1073740781, 399244162), (1073740697, 520010680),
    (1073740693, 336264900), (1073740649, 228813244),
    (1073740609, 462868367), (1073740541, 336766293),
    (1073740537, 86530260), (1073740529, 476104086),
    (1073740517, 120584034), (1073740501, 231709765),
]
_PRIMES_LOCK = threading.Lock()


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact below 3.2e9."""
    d, r = n - 1, 0
    while not d & 1:
        d >>= 1
        r += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(k: int) -> tuple[int, int]:
    """The k-th (p, s) of the table, extending it past its end on demand.
    The lock keeps two threads from appending the same prime twice, which
    would break the CRT."""
    if k >= len(_PRIMES):
        with _PRIMES_LOCK:
            while k >= len(_PRIMES):
                p = _PRIMES[-1][0] - 4
                while not _is_prime(p):
                    p -= 4
                a = 2
                while pow(a, (p - 1) // 2, p) != p - 1:
                    a += 1
                _PRIMES.append((p, pow(a, (p - 1) // 4, p)))
    return _PRIMES[k]


def _clear_denominators(rows: Iterable[Vec], ncols: int) -> list[dict]:
    """The nonzero rows, each scaled to Z[i] by the lcm of its denominators,
    as int dicts: the real part of column c at key c, the imaginary part
    at key c + ncols."""
    cleared = []
    for row in rows:
        if not row:
            continue
        if min(row) < 0 or max(row) >= ncols:
            raise ValueError(f"row entry outside columns 0..{ncols - 1}")
        den = 1
        non_real = False
        for v in row.values():
            if type(v.re) is not int:
                den = lcm(den, v.re.denominator)
            if v.im:
                non_real = True
                if type(v.im) is not int:
                    den = lcm(den, v.im.denominator)
        if not non_real:
            if den == 1:
                cleared.append({c: v.re for c, v in row.items()})
            else:
                cleared.append({c: int(v.re * den) for c, v in row.items()})
            continue
        out = {}
        for c, v in row.items():
            if v.re:
                out[c] = int(v.re * den)
            if v.im:
                out[c + ncols] = int(v.im * den)
        cleared.append(out)
    return cleared


def _rref_mod(cleared: list[dict], ncols: int, p: int, s: int | None):
    """RREF of the cleared rows mod p: (pivots, rows, used), or None when
    the two embeddings disagree.  Rows hold the non-pivot entries only, in
    the key layout of _clear_denominators; used lists the positions of the
    rows that gave the pivots.  Real input (s None) is reduced once;
    otherwise under i -> s and i -> -s, and an entry a + bi is recovered as
    a = (u + v)/2, b = (u - v)/(2s) from its images u, v."""
    if s is None:
        return _echelon_mod(_residues(cleared, ncols, p, None), ncols, p)
    pivots, plus, used = _echelon_mod(_residues(cleared, ncols, p, s), ncols, p)
    other, minus, _ = _echelon_mod(_residues(cleared, ncols, p, p - s), ncols, p)
    if pivots != other:
        return None
    half = (p + 1) >> 1
    inv_2s = pow(2 * s, -1, p)
    rows = []
    for u, v in zip(plus, minus):
        row = {}
        for c in u.keys() | v.keys():
            a, b = u.get(c, 0), v.get(c, 0)
            re = (a + b) * half % p
            im = (a - b) * inv_2s % p
            if re:
                row[c] = re
            if im:
                row[c + ncols] = im
        rows.append(row)
    return pivots, rows, used


def _residues(cleared: list[dict], ncols: int, p: int, s: int | None) -> list[dict]:
    """The cleared rows mod p, zeros dropped; i maps to s (s None: real)."""
    out = []
    for row in cleared:
        if s is None:
            red = {c: x % p for c, x in row.items()}
        else:
            red = {}
            for c, x in row.items():
                if c >= ncols:
                    c -= ncols
                    x *= s
                red[c] = red.get(c, 0) + x
            red = {c: x % p for c, x in red.items()}
        if 0 in red.values():
            red = {c: x for c, x in red.items() if x}
        out.append(red)
    return out


def _echelon_mod(rows: list[dict], ncols: int, p: int):
    """Gauss-Jordan mod p on rows of nonzero residues, which it consumes.

    Returns the pivot columns, the reduced pivot rows without their pivot
    entry, and the input positions of the rows that became pivots.  Rows
    are bucketed by their first column, so a pivot search reads one bucket;
    the shortest row of a bucket becomes the pivot, which keeps fill-in low."""
    buckets: dict[int, list] = {}
    for k, row in enumerate(rows):
        if row:
            buckets.setdefault(min(row), []).append((k, row))
    pivots: list[int] = []
    prows: list[dict] = []
    used: list[int] = []
    for col in range(ncols):
        bucket = buckets.pop(col, None)
        if bucket is None:
            continue
        pick = 0
        if len(bucket) > 1:
            pick = min(range(len(bucket)), key=lambda k: len(bucket[k][1]))
        k, prow = bucket.pop(pick)
        inv = pow(prow.pop(col), -1, p)
        if inv != 1:
            prow = {c: v * inv % p for c, v in prow.items()}
        for entry in bucket:
            row = entry[1]
            _subtract_mod(row, row.pop(col), prow, p)
            if row:
                buckets.setdefault(min(row), []).append(entry)
        pivots.append(col)
        prows.append(prow)
        used.append(k)
        if not buckets:
            break
    # back substitution, last row first: the rows below are already free of
    # every pivot column, so subtracting them adds no pivot entries
    where = dict(zip(pivots, prows))
    for row in reversed(prows):
        for col in [c for c in row if c in where]:
            _subtract_mod(row, row.pop(col), where[col], p)
    return pivots, prows, used


def _subtract_mod(row: dict, factor: int, other: dict, p: int) -> None:
    """row -= factor * other (mod p), in place, dropping zeros."""
    f = p - factor
    get = row.get
    for c, v in other.items():
        x = (get(c, 0) + f * v) % p
        if x:
            row[c] = x
        else:
            del row[c]


def _crt_into(residues: list[dict], modulus: int, rows: list[dict], p: int) -> None:
    """Combine residues mod modulus with rows mod p, in place, to mod modulus*p."""
    inv = pow(modulus, -1, p)
    for old, new in zip(residues, rows):
        for c in old.keys() | new.keys():
            a = old.get(c, 0)
            old[c] = a + modulus * ((new.get(c, 0) - a) * inv % p)


def _ratrecon(x: int, m: int, bound: int) -> tuple[int, int] | None:
    """(n, d) with n = d x (mod m), |n| <= bound, 0 < d <= bound and
    gcd(n, d) = 1, or None; unique when 2 bound^2 < m."""
    r0, r1 = m, x
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 < 0:
        t1, r1 = -t1, -r1
    if t1 > bound or gcd(r1, t1) != 1:
        return None
    return r1, t1


def _reconstruct(residues: list[dict], m: int) -> tuple[int, list[dict]] | None:
    """Rational reconstruction of every residue: (den, nums) with entry
    nums[j][c] / den, or None when some residue has no reconstruction with
    numerator and denominator at most sqrt(m/2).  A residue that times the
    running common denominator is already small needs no extended gcd."""
    bound = isqrt(m >> 1)
    half = m >> 1
    den = 1
    nums: list[dict] = []
    for res in residues:
        num = {}
        for c, x in res.items():
            y = x * den % m if den != 1 else x
            if y > half:
                y -= m
            if -bound <= y <= bound:
                if y:
                    num[c] = y
                continue
            got = _ratrecon(x, m, bound)
            if got is None or not got[0]:
                return None
            n, d = got
            grow = d // gcd(d, den)
            den *= grow
            if den > bound:
                return None
            for prev in nums:
                for key in prev:
                    prev[key] *= grow
            for key in num:
                num[key] *= grow
            num[c] = n * (den // d)
        nums.append(num)
    return den, nums


def _spans(cleared: list[dict], pivots: list[int], den: int, nums: list[dict], ncols: int) -> bool:
    """Exact check that every cleared row m equals sum_j m[pivots[j]] R_j,
    with R_j = nums[j] / den, in Gaussian-integer arithmetic.  Only the
    non-pivot columns are compared: on pivot columns it holds by the shape
    of R."""
    where = {c: j for j, c in enumerate(pivots)}
    for row in cleared:
        acc: dict[int, int] = {}
        for c, x in row.items():
            j = where.get(c % ncols)
            if j is None:
                acc[c] = acc.get(c, 0) + den * x
            else:
                add_multiple(acc, -x, c >= ncols, nums[j], ncols)
        if any(acc.values()):
            return False
    return True


def add_multiple(acc: dict, x: int, imag: bool, vec: dict, ncols: int) -> None:
    """In-place acc += x * vec, or acc += x * i * vec when imag, for Z[i]
    vectors in the layout of _clear_denominators: i * (a + bi) = -b + ai."""
    get = acc.get
    if not imag:
        for key, v in vec.items():
            acc[key] = get(key, 0) + x * v
        return
    for key, v in vec.items():
        if key < ncols:
            acc[key + ncols] = get(key + ncols, 0) + x * v
        else:
            acc[key - ncols] = get(key - ncols, 0) - x * v


def _assemble(pivots: list[int], den: int, nums: list[dict], ncols: int) -> list[Vec]:
    """The certified rows as GaussRat dicts in ascending column order."""
    memo: dict[tuple[int, int], GaussRat] = {}
    return [{pcol: _ONE, **exact_view(num, den, ncols, memo)} for pcol, num in zip(pivots, nums)]


def exact_view(num: dict, den: int, ncols: int, memo: dict) -> Vec:
    """num / den in ascending column order, for num in the Z[i] layout of
    _clear_denominators; memo maps (re, im) numerators to their GaussRat."""
    row: Vec = {}
    for c in sorted({c % ncols for c in num}):
        key = (num.get(c, 0), num.get(c + ncols, 0))
        value = memo.get(key)
        if value is None:
            re, im = key
            if den != 1:
                re, im = Fraction(re, den), Fraction(im, den)
            value = memo[key] = GaussRat(re, im)
        row[c] = value
    return row


def rank(rows: Iterable[Vec], ncols: int) -> int:
    """The rank over Q(i) of GaussRat rows in columns 0..ncols-1."""
    return integer_rank(_clear_denominators(rows, ncols), ncols)


def integer_rank(cleared: list[dict], ncols: int) -> int:
    """The rank over Q(i) of Z[i] rows in the layout of _clear_denominators,
    zero rows allowed, by fraction-free elimination in integer arithmetic
    alone.

    A row a + bi is the integer vector (a, b) of that layout, and i times
    it is (-b, a); the Q-span of the rows and their i-multiples is their
    Q(i)-span seen over Q, so a Gaussian rank is half that integer rank."""
    if any(max(row) >= ncols for row in cleared if row):
        turned = [{(c + ncols) % (2 * ncols): -x if c >= ncols else x for c, x in row.items()}
                  for row in cleared]
        return _integer_rank(cleared + turned) // 2
    return _integer_rank(cleared)


def _integer_rank(rows: list[dict]) -> int:
    """The rank of integer rows, which it does not modify.

    Columns are renumbered by ascending count of nonzero entries, which
    keeps fill-in low, and rows are bucketed by their first column.  The
    shortest row of a bucket becomes the pivot; every other row r of it,
    with leading entry x against the pivot's p, becomes a r - b pivot with
    a/b = p/x in lowest terms, divided by the gcd of its entries.  That is
    fraction-free elimination (E. H. Bareiss, Math. Comp. 22 (1968)
    565-578) with each row divided by its own content instead of by the
    previous pivot, which would tie every row to one elimination order;
    there is no back substitution, which a rank does not need."""
    counts: dict[int, int] = {}
    for row in rows:
        for c in row:
            counts[c] = counts.get(c, 0) + 1
    order = {c: k for k, c in enumerate(sorted(counts, key=counts.__getitem__))}
    buckets: dict[int, list[dict]] = {}
    for row in rows:
        if row:
            row = {order[c]: x for c, x in row.items()}
            buckets.setdefault(min(row), []).append(row)
    found = 0
    for col in range(len(order)):
        bucket = buckets.pop(col, None)
        if bucket is None:
            continue
        found += 1
        pick = 0
        if len(bucket) > 1:
            pick = min(range(len(bucket)), key=lambda k: len(bucket[k]))
        prow = bucket.pop(pick)
        p = prow.pop(col)
        for row in bucket:
            x = row.pop(col)
            g = gcd(p, x)
            a, b = p // g, x // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for c in row:
                    row[c] *= a
            get = row.get
            for c, v in prow.items():
                y = get(c, 0) - b * v
                if y:
                    row[c] = y
                else:
                    del row[c]
            if row:
                g = gcd(*row.values())
                if g != 1:
                    for c in row:
                        row[c] //= g
                buckets.setdefault(min(row), []).append(row)
        if not buckets:
            break
    return found


def nullspace_with_free(rows: Iterable[Vec], ncols: int) -> tuple[list[Vec], list[int]]:
    """Kernel basis plus the free column each basis vector is keyed to.

    Each basis vector carries a 1 at its own free column and 0 at every
    other free column, so coefficients in this basis can be read off."""
    pivots, reduced = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    free_cols = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec: Vec = {free: GaussRat(1)}
        for pcol, row in zip(pivots, reduced):
            coeff = row.get(free)
            if coeff:
                vec[pcol] = -coeff
        basis.append(vec)
        free_cols.append(free)
    return basis, free_cols


def nullspace(rows: Iterable[Vec], ncols: int) -> list[Vec]:
    """Basis of the right kernel, one vector per free column, ascending."""
    return nullspace_with_free(rows, ncols)[0]


class Subspace:
    """A subspace of Q(i)^ambient held as a canonical RREF row basis."""

    __slots__ = ("ambient", "rows", "pivots")

    def __init__(self, ambient: int, rows: Sequence[Vec] = (), pivots: Sequence[int] | None = None):
        self.ambient = ambient
        if pivots is None:
            pivots, rows = rref(rows, ambient)
        self.rows = tuple(dict(r) for r in rows)
        self.pivots = tuple(pivots)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls(ambient, [], [])

    @classmethod
    def full(cls, ambient: int) -> "Subspace":
        rows = [{i: GaussRat(1)} for i in range(ambient)]
        return cls(ambient, rows, list(range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vec) -> Vec:
        """Residual of v modulo the subspace (zero iff v belongs to it)."""
        out = dict(v)
        for pcol, row in zip(self.pivots, self.rows):
            factor = out.get(pcol)
            if factor is not None:
                vec_add(out, row, -factor)
        return out

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    def coordinates(self, v: Vec) -> list[GaussRat] | None:
        """Coefficients of v in the RREF basis, or None when outside."""
        residual = dict(v)
        coords = []
        for pcol, row in zip(self.pivots, self.rows):
            factor = residual.get(pcol, ZERO)
            coords.append(factor)
            if factor:
                vec_add(residual, row, -factor)
        return None if residual else coords

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.pivots == other.pivots
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.pivots))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


class SparseMatrix:
    """Square n x n matrix over Q(i), stored as ``rows``: n row dicts
    {col: GaussRat} with zeros dropped.  That is the format rref, nullspace
    and Subspace consume, so ``mat.rows`` goes to them unconverted.

    Matrices are values: no method changes one in place."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, data: dict | None = None):
        """From a {(row, col): scalar} dict; zero scalars are dropped."""
        self.n = n
        self.rows: list[Vec] = [{} for _ in range(n)]
        for (r, c), value in (data or {}).items():
            scalar = gauss(value)
            if scalar:
                self.rows[r][c] = scalar

    @classmethod
    def from_rows(cls, rows: Sequence[Vec], n: int) -> "SparseMatrix":
        """From n row dicts of GaussRat (copied; zero entries dropped)."""
        return cls._adopt(n, [{c: v for c, v in row.items() if v} for row in rows])

    @classmethod
    def _adopt(cls, n: int, rows: list[Vec]) -> "SparseMatrix":
        """Wrap rows that are already clean, without copying them."""
        mat = cls.__new__(cls)
        mat.n = n
        mat.rows = rows
        return mat

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls._adopt(n, [{i: GaussRat(1)} for i in range(n)])

    def get(self, r: int, c: int) -> GaussRat:
        return self.rows[r].get(c, ZERO)

    def entries(self):
        """(row, col, value) for every nonzero entry, in (row, col) order."""
        for r, row in enumerate(self.rows):
            for c in sorted(row):
                yield r, c, row[c]

    def __add__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._plus(other, None)

    def __sub__(self, other: "SparseMatrix") -> "SparseMatrix":
        return self._plus(other, _MINUS_ONE)

    def _plus(self, other: "SparseMatrix", factor: GaussRat | None) -> "SparseMatrix":
        """self + factor * other (factor None means 1)."""
        out = []
        for ra, rb in zip(self.rows, other.rows):
            acc = dict(ra)
            vec_add(acc, rb, factor)
            out.append(acc)
        return SparseMatrix._adopt(self.n, out)

    def scale(self, factor) -> "SparseMatrix":
        factor = gauss(factor)
        if not factor:
            return SparseMatrix(self.n)
        rows = [{c: factor * v for c, v in row.items()} for row in self.rows]
        return SparseMatrix._adopt(self.n, rows)

    def __matmul__(self, other: "SparseMatrix") -> "SparseMatrix":
        out = []
        for row in self.rows:
            acc: Vec = {}
            for k, coeff in row.items():
                vec_add(acc, other.rows[k], coeff)
            out.append(acc)
        return SparseMatrix._adopt(self.n, out)

    def apply(self, v: Vec) -> Vec:
        """The matrix times a sparse vector; each row walks whichever of
        itself and v has fewer entries."""
        out: Vec = {}
        for r, row in enumerate(self.rows):
            total = ZERO
            if len(row) > len(v):
                for c, value in v.items():
                    coeff = row.get(c)
                    if coeff is not None:
                        total = total + coeff * value
            else:
                for c, coeff in row.items():
                    value = v.get(c)
                    if value is not None:
                        total = total + coeff * value
            if total:
                out[r] = total
        return out

    def conj_transpose(self) -> "SparseMatrix":
        out: list[Vec] = [{} for _ in range(self.n)]
        for r, row in enumerate(self.rows):
            for c, value in row.items():
                out[c][r] = value.conj()
        return SparseMatrix._adopt(self.n, out)

    def diagonal(self) -> list[GaussRat]:
        return [self.get(i, i) for i in range(self.n)]

    def is_zero(self) -> bool:
        return not any(self.rows)

    def inverse(self) -> "SparseMatrix | None":
        """Inverse by rref of the augmented [M | I], or None when singular."""
        n = self.n
        aug = []
        for i, row in enumerate(self.rows):
            wide = dict(row)
            wide[n + i] = GaussRat(1)
            aug.append(wide)
        pivots, reduced = rref(aug, 2 * n)
        if pivots[:n] != list(range(n)):
            return None
        rows = [{c - n: v for c, v in row.items() if c >= n} for row in reduced[:n]]
        return SparseMatrix._adopt(n, rows)

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return self.n == other.n and self.rows == other.rows

    __hash__ = None

    def __repr__(self):
        return f"SparseMatrix(n={self.n}, nnz={sum(len(row) for row in self.rows)})"
