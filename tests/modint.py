"""Z / p^N Z, the coefficient ring the ring-generic tests use besides ints,
Fractions, cyclotomic elements and polynomials."""


class ModInt:
    """Element of Z / p^N Z; one of the pluggable coefficient rings."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        self.modulus = modulus
        self.value = value % modulus

    def _coerce(self, other) -> "ModInt":
        if isinstance(other, ModInt):
            if other.modulus != self.modulus:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return ModInt(other, self.modulus)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __neg__(self):
        return ModInt(-self.value, self.modulus)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value - other.value, self.modulus)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return ModInt(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.value == other.value

    def __hash__(self):
        return hash((self.value, self.modulus))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"ModInt({self.value}, {self.modulus})"
