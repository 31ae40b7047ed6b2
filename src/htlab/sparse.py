"""The sparse base shared by chart and pd elements.

A subclass holds its coefficients in ``coeffs``, a dict from its own keys
(chart exponent tuples, pd monomials) to scalar-protocol objects, and
supplies the parts that differ:

* a normalizing constructor, which applies the subclass's cutoff and drops
  every droppable coefficient (zero as stored, at the ambient precision); a
  zero known to fewer digits keeps its key and lowers the claim of later
  comparisons.  Code that forms coefficients itself applies the same rule
  to each coefficient it forms: sums here, pd products and the twisted pd
  face, which forms each image as one sum of products, and
  galois.series_dot, which forms each t-slot of a series product or a
  substitution as one sum;
* ``_new(coeffs, truncated)``, which rebuilds an element from a dict on
  its own keys: through that constructor, or, where the keys stay clean
  (chart), through the droppable filter alone; and
  ``_adopt(coeffs, truncated)``, which wraps coefficients
  that are clean already (none droppable, every truncated one reflected in
  the flag) without checking them again;
* ``__mul__``, ``droppable``, ``coeff``, ``__repr__`` and ``_dot``, the
  routine BaseConfig.dot runs over its scalars: one reduction per key.
  ``_dot_vanishes(xs, ys, ms)`` gives (zero, truncated) of the element
  ``_dot`` would form; by default it forms that element, and pd elements
  replace it with pdring.dot_vanishes, which over K forms none and over
  chart scalars runs this default.

A coefficient map builds the raw coefficient dict and hands it to ``_new``.
A sum starts from the clean coefficients of its left operand and checks only
the keys the right operand adds to, so it hands its dict to ``_adopt``.  It
first checks the operands' rings with ``same_ring``, which the products of
both subclasses call too: elements of rings that ``eq_ring`` finds different
do not combine.

A t-series is no Sparse subclass: it is a plain {t-degree: coefficient}
dict (htlab.galois).

Every identity tests each key or slot of its difference as one sum, for
zero, and forms no difference: t-slots by galois.series_dot_vanishes, and
pd keys by pdring.dot_vanishes, which tests every pd identity: the descent
check, the cosimplicial identities, and, as the _dot_vanishes of the
t-slots' pd scalars, the period's certificates and the inverse Simpson
crosscheck.  Over K neither forms a scalar.  By the stored form lemma
(htlab.base) that is the rule of a difference: a key of both is
subtracted and dropped if droppable, and every key left is zero.

Each of the two containers gathers its sums in one pair loop for every
kind of scalar, pdring._gather per pd key and galois._gather_slots per
t-slot: the loop reads the kind once per left coefficient, and keeps over K the exact
terms of each key or slot, over other scalars its pairs for one _dot.
Every key or slot then ends the same way for both kinds: one reduction
for a sum, one zero test for an identity.
"""

from .base import AtPrecision
from .errors import BadIndex


def same_ring(r1, r2):
    """Raise BadIndex unless elements of r1 and r2 combine: one ring, or two
    that eq_ring finds alike."""
    if r1 is not r2 and not r1.eq_ring(r2):
        raise BadIndex(f"elements of {r1!r} and {r2!r} do not combine")


class Sparse(AtPrecision):
    __slots__ = ()

    def _merge(self, other, sub):
        # a key of both takes the sum, which is dropped if droppable
        same_ring(self.ring, other.ring)
        out = dict(self.coeffs)
        trunc = self.truncated or other.truncated
        for key, c in other.coeffs.items():
            prev = out.get(key)
            if prev is None:
                out[key] = -c if sub else c
                continue
            c = prev - c if sub else prev + c
            if c.truncated:
                trunc = True
            if c.droppable():
                del out[key]
            else:
                out[key] = c
        return self._adopt(out, trunc)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def _map(self, fn):
        return self._new({key: fn(c) for key, c in self.coeffs.items()}, self.truncated)

    @classmethod
    def _dot_vanishes(cls, xs, ys, ms=None):
        v = cls._dot(xs, ys, ms)
        return v.is_zero(), v.truncated

    def __neg__(self):
        return self._map(lambda c: -c)

    def smul(self, n):
        return self._map(lambda c: c.smul(n))

    def mul_scalar(self, s):
        return self._map(lambda c: c * s)

    def div_int(self, n):
        return self._map(lambda c: c.div_int(n))

    def clamp_prec(self, prec):
        return self._map(lambda c: c.clamp_prec(prec))

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs.values())

    def storage_zero(self):
        return not self.coeffs

    def integral(self):
        return all(c.integral() for c in self.coeffs.values())
