"""Arithmetic in the coefficient rings Z/nZ and Galois rings (Z/p^e)[t]/(lam).

Both rings are principal Artinian: every element is a unit, nilpotent, or a
splitting element (a non-nilpotent zero divisor).  Splitting elements give an
idempotent decomposition of the ring, realised for Z/nZ as a coprime
factorisation of the modulus.  Galois rings are local, so they never split.

Ring elements are plain values: ints for Zmod, coefficient tuples for
GaloisRing.  All operations take and return canonical representatives.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


class ContextMismatchError(ValueError):
    """Operands belong to different ring contexts."""


class NotSplittingError(ValueError):
    """split() was called on an element that is not a splitting element."""


class NotUnitError(ValueError):
    """Inversion of a non-unit was requested."""


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in ringres, never bad input."""


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def is_probable_prime(n: int, rounds: int = 32) -> bool:
    """Miller-Rabin: deterministic below 3.3e24, random bases beyond."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < 3317044064679887385961981:
        bases = small
    else:
        rng = random.Random(n)
        bases = tuple(rng.randrange(2, n - 1) for _ in range(rounds))
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Zmod:
    """The ring Z/nZ.  n == 1 is the zero ring (allowed in quotients)."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("modulus must be >= 1")

    kind = "zmod"

    @property
    def E(self) -> int:
        # Nilpotency bound: a^E == 0 for every nilpotent a, since the
        # bit length of n dominates every prime exponent in n.
        return max(1, self.n.bit_length())

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1 % self.n

    def from_int(self, i: int):
        return i % self.n

    # coerce also serves as projection/lift between Zmod rings whose moduli
    # divide each other: canonical representatives are plain ints.
    def coerce(self, x):
        if not isinstance(x, int):
            raise ContextMismatchError(f"expected int element, got {x!r}")
        return x % self.n

    def add(self, a, b):
        return (a + b) % self.n

    def sub(self, a, b):
        return (a - b) % self.n

    def mul(self, a, b):
        return (a * b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def pow_elem(self, a, k: int):
        return pow(a, k, self.n)

    def is_zero(self, a) -> bool:
        return a % self.n == 0

    def is_unit(self, a) -> bool:
        return math.gcd(a, self.n) == 1

    def is_nilpotent(self, a) -> bool:
        return pow(a, self.E, self.n) == 0

    def is_splitting(self, a) -> bool:
        a %= self.n
        return a != 0 and not self.is_unit(a) and not self.is_nilpotent(a)

    def inv(self, a):
        if math.gcd(a, self.n) != 1:
            raise NotUnitError(f"{a} is not a unit mod {self.n}")
        return pow(a, -1, self.n)

    def try_divide(self, a, b):
        """Smallest c with b*c == a mod n, or None if no such c exists."""
        a %= self.n
        b %= self.n
        g = math.gcd(b, self.n)
        if a % g:
            return None
        nn = self.n // g
        return ((a // g) * pow(b // g, -1, nn)) % nn

    def gcd_bezout(self, a, b):
        """(g, s, t): g canonical generator of (a, b), s*a + t*b == g mod n."""
        a %= self.n
        b %= self.n
        g0, s0, t0 = _ext_gcd(a, b)
        g = math.gcd(g0, self.n)
        # u*g0 == g mod n for some u (exists since g = gcd(g0, n)).
        u = _ext_gcd(g0, self.n)[1]
        return g % self.n, (u * s0) % self.n, (u * t0) % self.n

    def gcd_many(self, elems):
        return math.gcd(self.n, *elems) % self.n

    def ideal_gen(self, a):
        return math.gcd(a % self.n, self.n) % self.n

    def colon(self, a, b):
        """Generator of the colon ideal ((a) : (b))."""
        d = math.gcd(a % self.n, self.n)
        return (d // math.gcd(d, b % self.n)) % self.n

    def split(self, a):
        """Coprime factor rings (Z/n1, Z/n2); a nilpotent in the first,
        a unit in the second."""
        if not self.is_splitting(a):
            raise NotSplittingError(f"{a} is not a splitting element mod {self.n}")
        h = pow(a, self.E, self.n)
        n1 = math.gcd(h, self.n)
        n2 = self.n // n1
        if not (n1 > 1 and n2 > 1 and math.gcd(n1, n2) == 1):
            raise InvariantError(f"split of {a} mod {self.n} is not coprime")
        return Zmod(n1), Zmod(n2)

    def crt(self, r1, a1, r2, a2):
        """Element of self congruent to a1 mod r1.n and a2 mod r2.n."""
        return self.crt_many(r1, (a1,), r2, (a2,))[0]

    def crt_many(self, r1, a1s, r2, a2s):
        """crt of a1s[i], a2s[i] for every i, checking r1, r2 once."""
        n1, n2 = r1.n, r2.n
        if n1 * n2 != self.n or math.gcd(n1, n2) != 1:
            raise ContextMismatchError("crt requires a coprime factorisation of n")
        w = pow(n1, -1, n2)
        n = self.n
        return [(a1 + n1 * ((a2 - a1) * w % n2)) % n for a1, a2 in zip(a1s, a2s)]

    def ann_quotient(self, c):
        """R / Ann(c) as a ring context."""
        return Zmod(self.n // math.gcd(c, self.n))

    def quotient_by(self, c):
        """R / (c) as a ring context."""
        return Zmod(math.gcd(c, self.n))

    def elements(self):
        return range(self.n)

    def format_elem(self, a) -> str:
        return str(a % self.n)

    def __str__(self):
        return f"Z/{self.n}"


# ---------------------------------------------------------------------------
# Galois rings
# ---------------------------------------------------------------------------

def _fp_is_irreducible(lam, p):
    """Ben-Or's test (von zur Gathen & Gerhard, Modern Computer Algebra,
    14.9): lam, monic of degree k >= 1 over F_p with ascending coefficients,
    is irreducible iff x^(p^i) - x is invertible mod lam for every i <= k/2,
    since a reducible lam has an irreducible factor of degree i <= k/2, and
    those divide x^(p^i) - x.  GaloisRing(p, 1, lam) multiplies and
    inverts in F_p[x]/(lam) for any monic lam."""
    F = GaloisRing(p, 1, tuple(lam))
    x = h = (0, 1) + (0,) * (F.k - 2)     # x, read only when k >= 2
    for _ in range(F.k // 2):
        h = F.pow_elem(h, p)
        try:
            F.inv(F.sub(h, x))
        except NotUnitError:
            return False
    return True


def find_irreducible(p: int, k: int, seed: int = 0) -> tuple[int, ...]:
    """Monic degree-k polynomial over F_p that is irreducible, found by
    random monic sampling.  Returned ascending, including the leading 1."""
    if k == 1:
        return (0, 1)
    rng = random.Random((seed, p, k).__hash__())
    while True:
        coeffs = [rng.randrange(p) for _ in range(k)] + [1]
        if coeffs[0] == 0:
            coeffs[0] = 1 + rng.randrange(p - 1) if p > 1 else 0
        if _fp_is_irreducible(coeffs, p):
            return tuple(coeffs)


def bareiss(rows) -> int:
    """Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) of the k
    integer rows on their first k columns, in place: below each pivot the
    column becomes zero, every division is exact, and the last pivot is the
    determinant of the k x k block times the sign returned, which counts the
    row swaps made at zero pivots.  0 when a column has no pivot (the
    determinant is 0), the rows then left part way."""
    k, sign, prev = len(rows), 1, 1
    for i in range(k):
        if not rows[i][i]:
            piv = next((j for j in range(i + 1, k) if rows[j][i]), None)
            if piv is None:
                return 0
            rows[piv], rows[i], sign = rows[i], rows[piv], -sign
        row, d = rows[i], rows[i][i]
        for j in range(i + 1, k):
            c = rows[j][i]
            rows[j] = [(d * y - c * z) // prev for y, z in zip(rows[j], row)]
        prev = d
    return sign


@dataclass(frozen=True)
class GaloisRing:
    """(Z/p^e)[t]/(lam) with lam monic of degree k, irreducible mod p.

    Elements are tuples of k ints in [0, p^e).  Local ring: maximal ideal
    (p), residue field F_{p^k}.  e == 0 gives the zero ring.
    """

    p: int
    e: int
    lam: tuple[int, ...]
    # derived once per ring: the degree of lam and the modulus p^e
    k: int = field(init=False, repr=False, compare=False)
    pe: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p < 2 or self.e < 0:
            raise ValueError("need prime p >= 2 and e >= 0")
        if len(self.lam) < 2 or self.lam[-1] != 1:
            raise ValueError("lam must be monic of degree >= 1")
        object.__setattr__(self, "k", len(self.lam) - 1)
        object.__setattr__(self, "pe", self.p ** self.e)

    kind = "galois"

    @property
    def E(self) -> int:
        return max(1, self.e)

    @property
    def zero(self):
        return (0,) * self.k

    @property
    def one(self):
        return (1 % self.pe,) + (0,) * (self.k - 1)

    def from_int(self, i: int):
        return (i % self.pe,) + (0,) * (self.k - 1)

    def coerce(self, x):
        if isinstance(x, int):
            return self.from_int(x)
        if len(x) != self.k:
            raise ContextMismatchError("element has wrong length")
        q = self.pe
        return tuple(c % q for c in x)

    def add(self, a, b):
        q = self.pe
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b):
        q = self.pe
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a):
        q = self.pe
        return tuple((-x) % q for x in a)

    def mul(self, a, b):
        """a*b: the product of t-polynomials, reduced mod (lam, p^e)."""
        q, k, lam = self.pe, self.k, self.lam
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i] % q
            if c:
                for j in range(k):
                    prod[i - k + j] -= c * lam[j]
        return tuple([c % q for c in prod[:k]])

    def pow_elem(self, a, k: int):
        """a^k, k >= 0: bits(k) - 1 squarings, popcount(k) - 1 products."""
        if k == 0:
            return self.one
        acc = a
        for bit in bin(k)[3:]:
            acc = self.mul(acc, acc)
            if bit == "1":
                acc = self.mul(acc, a)
        return acc

    def is_zero(self, a) -> bool:
        return all(c % self.pe == 0 for c in a)

    def val(self, a) -> int:
        """p-adic valuation: min over coefficients, capped at e."""
        g, v = math.gcd(self.pe, *a), 0     # p^v, as it divides p^e
        while g > 1:
            g, v = g // self.p, v + 1
        return v

    def unit_part(self, a):
        """u with a == p^val(a) * u; requires a != 0."""
        v = self.val(a)
        pv = self.p ** v
        return tuple((c % self.pe) // pv for c in a)

    def is_unit(self, a) -> bool:
        return self.val(a) == 0

    def is_nilpotent(self, a) -> bool:
        return self.val(a) >= 1 or self.e == 0

    def is_splitting(self, a) -> bool:
        return False  # local ring

    def inv(self, a):
        """x with x*a == 1, by fraction-free elimination (bareiss) on the
        integer matrix M whose column i is t^i * a mod lam, and e_0 beside
        it: the last pivot is d = ±det(M), and back substitution gives the
        integer vector d*M^-1*e_0 = ±adj(M)*e_0, every division exact.
        det(M) is the norm of a from the algebra to Z/p^e, so a is a unit
        exactly when d is a unit mod p, lam irreducible or not, and then
        x = d*M^-1*e_0 * d^-1 mod p^e: one modular inverse per call."""
        if self.e == 0:
            return self.zero
        q, k, lam = self.pe, self.k, self.lam
        cols, r = [], [c % q for c in a]
        for _ in range(k - 1):                  # cols[i] == t^i * a mod lam
            cols.append(r)
            r = [-r[-1] * lam[0] % q] + [(r[j - 1] - r[-1] * lam[j]) % q for j in range(1, k)]
        cols.append(r)
        rows = [list(c) + [int(j == 0)] for j, c in enumerate(zip(*cols))]
        d = rows[k - 1][k - 1] if bareiss(rows) else 0
        if d % self.p == 0:
            raise NotUnitError(f"{a} is not a unit in {self}")
        x = [0] * k
        for i in range(k - 1, -1, -1):
            row = rows[i]
            x[i] = (d * row[k] - sum([row[j] * x[j] for j in range(i + 1, k)])) // row[i]
        u = pow(d, -1, q)
        x = tuple([c * u % q for c in x])
        if self.mul(a, x) != self.one:
            raise InvariantError("Galois ring inversion failed")
        return x

    def try_divide(self, a, b):
        if self.is_zero(a):
            return self.zero
        va, vb = self.val(a), self.val(b)      # val(0) == e
        if vb > va:
            return None
        c = self.mul(self.unit_part(a), self.inv(self.unit_part(b)))
        return self.mul(self.from_int(self.p ** (va - vb)), c)

    def gcd_bezout(self, a, b):
        if self.is_zero(a) and self.is_zero(b):
            return self.zero, self.zero, self.zero
        va, vb = self.val(a), self.val(b)
        if va <= vb:
            return self.from_int(self.p ** va), self.inv(self.unit_part(a)), self.zero
        return self.from_int(self.p ** vb), self.zero, self.inv(self.unit_part(b))

    def gcd_many(self, elems):
        return self.from_int(self.p ** min(map(self.val, elems), default=self.e))

    def ideal_gen(self, a):
        return self.from_int(self.p ** self.val(a))     # val(0) == e

    def colon(self, a, b):
        va = self.val(a)
        vb = self.val(b)
        return self.from_int(self.p ** max(va - vb, 0))

    def split(self, a):
        raise NotSplittingError("Galois rings are local and never split")

    def crt(self, r1, a1, r2, a2):
        raise ContextMismatchError("crt is not applicable to a local ring")

    crt_many = crt

    def ann_quotient(self, c):
        # Ann(p^v u) = (p^(e-v)), so R/Ann(c) keeps only e-v levels.
        return GaloisRing(self.p, self.e - self.val(c), self.lam)

    def quotient_by(self, c):
        return GaloisRing(self.p, self.val(c), self.lam)

    def elements(self):
        """All elements, lazily, in base-p^e digit order (t-coefficient 0
        fastest)."""
        q, k = self.pe, self.k
        return (tuple(i // q ** j % q for j in range(k)) for i in range(q ** k))

    def residue_lifts(self):
        """Lifts of all residue-field elements: tuples with entries in [0,p),
        in base-p digit order, as elements() of GR(p, 1, lam)."""
        return GaloisRing(self.p, 1, self.lam).elements()

    def format_elem(self, a) -> str:
        return ",".join(str(c) for c in a)

    def __str__(self):
        lam = ",".join(str(c) for c in self.lam)
        return f"{self.p}^{self.e};{self.k};{lam}"


def parse_ring(text: str):
    """Parse a ring description: a decimal modulus, or 'p^e;k;lam-coeffs'."""
    text = text.strip()
    if ";" not in text:
        n = int(text)
        if n < 2:
            raise ValueError("modulus must be >= 2")
        return Zmod(n)
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError("Galois ring format is p^e;k;lam-coeffs")
    p_s, e_s = parts[0].split("^")
    p, e = int(p_s), int(e_s)
    k = int(parts[1])
    lam = tuple(int(c) for c in parts[2].split(","))
    if len(lam) != k + 1:
        raise ValueError("lam must have k+1 coefficients")
    R = GaloisRing(p, e, lam)
    if not is_probable_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if not _fp_is_irreducible(lam, p):
        raise ValueError(f"lam is not irreducible mod {p}")
    return R
