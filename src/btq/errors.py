"""Exception types shared across the package."""


class CapacityError(RuntimeError):
    """A requested computation exceeds a configured resource cap."""


class UnderResolvedRuleError(ValueError):
    """Quadrature rule too weak for the requested level/degree."""


class CalibrationError(RuntimeError):
    """A sign convention failed its exact identity: the built-in sign misses
    it, or the opposite sign meets it."""


class InsufficientDataError(ValueError):
    """Not enough usable rows for a rate fit."""


class LevelMismatchError(ValueError):
    """Operators, sections or basis tables of different levels combined."""


class SymbolParseError(ValueError):
    """Expression text rejected; carries the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (offset {position})")
        self.position = position


class SymbolSyntaxError(SymbolParseError):
    pass


class UnknownIdentifierError(SymbolParseError):
    pass
