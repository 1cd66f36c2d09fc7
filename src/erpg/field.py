"""Exact arithmetic in GF(p^n).

Field elements are represented as integers in ``[0, q)`` with ``q = p^n``.
The integer ``a`` encodes the coefficient vector of an element w.r.t. the
power basis of the modulus: digit ``i`` of ``a`` in base ``p`` is the
coefficient of ``x^i``.  This makes the canonical element order simply the
integer order, which keeps every "first element satisfying ..." choice
deterministic and byte-reproducible.

The modulus is always the least monic irreducible polynomial of degree n
over GF(p), found by a deterministic scan (polynomials ordered by their
integer encoding, low-degree coefficient in the least significant digit).

Every field (``q <= 2^16``, the cap) keeps three tables over a fixed
generator g, the least primitive element, with m = q - 1: ``L``, the logs,
with L[0] = 2m; ``D``, the powers g^k for k < 2m and then 0 up to 4m; and
``Z``, the Zech logarithms log(1 + g^d) for d < 2m, with m where
1 + g^d = 0.  A zero's log lands in the zero tail of D, so mul, neg and
is_square are single reads; inv, div, pow and add (for odd p; for p = 2
addition is xor) read the same tables.  Polynomial multiplication and
base-p digit addition are used only to build them.  ``affine_values``
evaluates a whole affine map y -> u + v*y over the field from windows of
D and Z, by two ``bytes.translate`` calls over byte copies when q <= 256
and one lookup per element beyond; the plane solves lines with it.
``division_tables`` gives (L, D) to the plane's collineations.
"""

from __future__ import annotations

from functools import lru_cache

Q_CAP = 1 << 16


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# Polynomial helpers over GF(p).  Polynomials are tuples of ints in [0, p),
# lowest degree first, no trailing zeros (the zero polynomial is ()).
# ---------------------------------------------------------------------------

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    """Remainder of a modulo the monic polynomial m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        shift = len(a) - 1 - dm
        if lead:
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _poly_divides(d, a, p):
    """True if monic d divides a over GF(p)."""
    return not _poly_mod(a, d, p)


def _int_to_poly(v, p):
    c = []
    while v:
        c.append(v % p)
        v //= p
    return tuple(c)


def _poly_is_irreducible(m, p):
    """Irreducibility by trial division against all lower-degree monic polys."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if m[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for v in range(p ** d):
            div = _int_to_poly(v, p) + (0,) * (d - len(_int_to_poly(v, p))) + (1,)
            if _poly_divides(div, m, p):
                return False
    return True


def least_irreducible(p: int, n: int):
    """Least monic irreducible of degree n over GF(p), by integer encoding."""
    for v in range(p ** n):
        low = _int_to_poly(v, p)
        m = low + (0,) * (n - len(low)) + (1,)
        if _poly_is_irreducible(m, p):
            return m
    raise AssertionError(f"no irreducible polynomial of degree {n} over GF({p})")


class FieldCtx:
    """The finite field GF(p^n) with a fixed canonical modulus.

    Instances are immutable after construction and safe to share.  All
    operations take and return plain ints (the element encoding described
    in the module docstring), and take elements of range(q) only: nothing
    checks the range, and a negative value wraps silently, for example
    make_field(5, 1).mul(-1, 2) == 3.
    """

    def __init__(self, p: int, n: int):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if n < 1:
            raise ValueError(f"extension degree must be positive, got {n}")
        q = p ** n
        if q > Q_CAP:
            raise ValueError(f"q = {q} exceeds the supported cap {Q_CAP}")
        self.p = p
        self.n = n
        self.q = q
        self.modulus = least_irreducible(p, n)  # low-degree first, monic
        self._build_tables()
        self._subfield = None
        self._embed_table = None
        self._lift_table = None

    # -- encoding ----------------------------------------------------------

    def coeffs(self, a: int):
        """Coefficient vector of a (length n, coefficient of x^i at index i)."""
        c = []
        for _ in range(self.n):
            c.append(a % self.p)
            a //= self.p
        return tuple(c)

    def from_coeffs(self, c) -> int:
        v = 0
        for ci in reversed(list(c)):
            v = v * self.p + ci % self.p
        return v

    def elements(self):
        return range(self.q)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n})"

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        # a + b = a * (1 + b/a) = g^(log a + zech(log b - log a))
        L, m = self._L, self.q - 1
        la = L[a]
        z = self._Z[L[b] - la + m]
        return 0 if z == m else self._D[la + z]

    def neg(self, a: int) -> int:
        return self._D[self._L[a] + self._log_minus_one]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def _mul_raw(self, a: int, b: int) -> int:
        pa = _int_to_poly(a, self.p)
        pb = _int_to_poly(b, self.p)
        r = _poly_mod(_poly_mul(pa, pb, self.p), self.modulus, self.p)
        return self.from_coeffs(r + (0,) * (self.n - len(r)))

    def _build_tables(self):
        """L, D and Z over the least primitive element g: the first g with
        g^(m/r) != 1 for every prime r dividing m = q - 1.  Adding 1 to
        g^d changes only the lowest base-p digit of its encoding."""
        q, m, p = self.q, self.q - 1, self.p
        primes = [r for r in range(2, m + 1) if m % r == 0 and is_prime(r)]
        for g in range(1, q):
            if all(self._pow_raw(g, m // r) != 1 for r in primes):
                break
        else:
            raise AssertionError("no generator found (impossible for a field)")
        exp, L, v = [0] * m, [2 * m] * q, 1
        for i in range(m):
            exp[i], L[v] = v, i
            v = self._mul_raw(v, g)
        zech = [m] * m
        for d, e in enumerate(exp):
            s = e - e % p + (e + 1) % p
            if s:
                zech[d] = L[s]
        self.generator = g
        self._L, self._Z = L, zech + zech
        self._D = exp + exp + [0] * (2 * m + 1)
        self._log_minus_one = 0 if p == 2 else m // 2
        self._bytes = None
        if q <= 256:  # elements, nonzero logs and Z's entries fit a byte
            # a 256-byte window starts at any log; the padding is not read
            span = m + 255
            self._bytes = (bytes(L[1:]), *(bytes(t[:span]).ljust(span, b"\0")
                                           for t in (self._D, self._Z)))

    def _pow_raw(self, a: int, e: int) -> int:
        """a^e by square-and-multiply on _mul_raw."""
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def affine_values(self, u: int, v: int) -> list:
        """[u + v*y for y in range(q)]: an affine map over the whole field.

        For u, v, y nonzero, u + v*y = u * g^zech(log v - log u + log y),
        so a window of Z starting at w = log v - log u (mod m) and one of D
        starting at log u map log y to the value.  For q <= 256 the windows
        are 256-byte tables of ``bytes.translate`` over the bytes of log y,
        so no Python step runs per element; for q > 256 they are lists,
        read once per element.  In both forms the zech sentinel m, at the
        one y with u + v*y = 0, reads as u in the D window and is set to 0
        after.
        """
        q = self.q
        if not v:
            return [u] * q
        L, D, m = self._L, self._D, q - 1
        lv, lu = L[v], L[u]
        w = (lv - lu) % m
        if self._bytes is not None:
            logs, Dw, Zw = self._bytes
            if not u:
                return [0, *logs.translate(Dw[lv:lv + 256])]
            values = [u, *logs.translate(Zw[w:w + 256])
                      .translate(Dw[lu:lu + 256])]
        elif not u:
            dv = D[lv:lv + m]
            return [0, *[dv[k] for k in L[1:]]]
        else:
            zw, du = self._Z[w:w + m], D[lu:lu + m + 1]
            values = [u, *[du[zw[k]] for k in L[1:]]]
        values[D[self._log_minus_one - w + m]] = 0  # y = -u/v
        return values

    def division_tables(self):
        """(L, D): L[a] = log a, with L[0] = 2(q - 1); D[k] = g^k for
        k < 2(q - 1) and 0 from there to 4(q - 1).  So a*b = D[L[a] + L[b]]
        for all a, b, and b/a = D[L[b] - L[a] + q - 1] for a != 0, with no
        branch on a zero.  The field's own tables; an index outside
        range(q) reads a wrong entry silently, so callers check first.
        """
        return self._L, self._D

    def mul(self, a: int, b: int) -> int:
        return self._D[self._L[a] + self._L[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._D[self.q - 1 - self._L[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._D[self._L[a] - self._L[b] + self.q - 1]

    def pow(self, a: int, e: int) -> int:
        """a^e for any integer e, with 0^0 = 1."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0 if e else 1
        return self._D[self._L[a] * e % (self.q - 1)]

    # -- squares and traces ------------------------------------------------

    def is_square(self, a: int) -> bool:
        """Whether a is a square; for even q every element is a square."""
        return self.p == 2 or not self._L[a] & 1

    def sqrt_q(self) -> int:
        if self.n % 2:
            raise ValueError("sqrt(q) needs an even extension degree")
        return self.p ** (self.n // 2)

    def find_nonsquare(self) -> int:
        """First nonsquare in canonical element order (q odd)."""
        if self.p == 2:
            raise ValueError("every element of GF(2^n) is a square")
        for a in range(1, self.q):
            if not self.is_square(a):
                return a
        raise AssertionError("unreachable: GF(q), q odd, has nonsquares")

    def abs_trace(self, a: int) -> int:
        """Absolute trace GF(2^n) -> GF(2)."""
        if self.p != 2:
            raise ValueError("absolute trace is defined here for p = 2 only")
        t, v = 0, a
        for _ in range(self.n):
            t ^= v
            v = self.mul(v, v)
        if t not in (0, 1):
            raise AssertionError(f"trace of {a} is {t}, not in GF(2)")
        return t

    def find_trace_one(self) -> int:
        """First trace-one element in canonical order (q even)."""
        for a in range(self.q):
            if self.abs_trace(a) == 1:
                return a
        raise AssertionError("unreachable: trace is surjective")

    # -- subfield GF(sqrt(q)) ----------------------------------------------

    def subfield(self) -> "FieldCtx":
        """The index-2 subfield GF(p^(n/2)), the cached make_field context."""
        if self.n % 2:
            raise ValueError("subfield of index 2 needs an even degree")
        if self._subfield is None:
            self._subfield = make_field(self.p, self.n // 2)
            self._build_embedding()
        return self._subfield

    def _build_embedding(self):
        sub = self._subfield
        # Least root of the subfield modulus inside this field gives a
        # deterministic ring embedding x -> value at beta.
        beta = None
        for cand in range(self.q):
            acc, power = 0, 1
            for ci in sub.modulus:
                if ci:
                    acc = self.add(acc, self.mul(ci % self.p, power))
                power = self.mul(power, cand)
            if acc == 0:
                beta = cand
                break
        if beta is None:
            raise AssertionError("subfield modulus must split in the big field")
        table = [0] * sub.q
        for x in range(sub.q):
            acc, power = 0, 1
            for ci in sub.coeffs(x):
                acc = self.add(acc, self.mul(ci, power))
                power = self.mul(power, beta)
            table[x] = acc
        self._embed_table = table
        self._lift_table = {v: x for x, v in enumerate(table)}
        if len(self._lift_table) != sub.q:
            raise AssertionError("embedding must be injective")

    def embed_subfield(self, a_sub: int) -> int:
        """Image of a GF(sqrt(q)) element under the canonical embedding."""
        self.subfield()
        return self._embed_table[a_sub]

    def to_subfield(self, a: int) -> int:
        """Preimage under the embedding; a must lie in the embedded subfield."""
        self.subfield()
        try:
            return self._lift_table[a]
        except KeyError:
            raise ValueError(f"element {a} is not in the embedded subfield")

    def norm_to_subfield(self, a: int) -> int:
        """Norm a -> a^(sqrt(q)+1), expressed in subfield coordinates."""
        r = self.sqrt_q()
        return self.to_subfield(self.pow(a, r + 1))


@lru_cache(maxsize=None)
def make_field(p: int, n: int) -> FieldCtx:
    """Cached constructor for GF(p^n) with the canonical modulus."""
    return FieldCtx(p, n)


def field_for_order(q: int) -> FieldCtx:
    """GF(q) for a prime power q up to Q_CAP (ValueError otherwise)."""
    # before factoring, which is O(sqrt q) and rejects a non-int q
    if isinstance(q, int) and q > Q_CAP:
        raise ValueError(f"q = {q} exceeds the supported cap {Q_CAP}")
    p, n = factor_prime_power(q)
    return make_field(p, n)


def factor_prime_power(q: int):
    """(p, n) with q = p^n, or ValueError if q is not a prime power."""
    if not isinstance(q, int):
        raise ValueError(f"{q!r} is not a prime power: not an int")
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = q
    for d in range(2, q + 1):
        if d * d > q:
            break
        if q % d == 0:
            p = d
            break
    n = 0
    m = q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1 or not is_prime(p):
        raise ValueError(f"{q} is not a prime power")
    return p, n
