"""Exception types shared across the package."""


class BqspinError(Exception):
    """Base class for package errors."""


class SingularOperand(BqspinError):
    """Inversion or division attempted on a null (singular) biquaternion."""


class InvalidFrame(BqspinError):
    """Frame vectors fail the unit/orthogonality requirements."""


class InvalidAxis(BqspinError):
    """Rotation or boost axis is not a unit 3-vector."""


class OffShell(BqspinError):
    """Momentum does not satisfy the mass-shell relation."""


class DegenerateMass(BqspinError):
    """Operation requires a strictly positive mass."""


class NoConsistentConvention(BqspinError):
    """The gradient-convention selection did not find a unique candidate;
    ``survivors`` is the number of candidates that met every criterion."""

    def __init__(self, survivors):
        super().__init__(f"expected exactly one gradient convention, found {survivors}")
        self.survivors = survivors


class UnknownSuite(BqspinError):
    """Verification suite name does not match any registered suite."""


class ConfigError(BqspinError):
    """Invalid harness configuration (tolerance, backend, output options)."""


class MixedBackend(BqspinError):
    """A value mixes exact (Gaussian-rational) and float components, or float
    data enters a field, which is exact by type."""


class NotAPlaneWave(BqspinError):
    """A field read as one plane-wave mode has another mode or a non-constant term."""
