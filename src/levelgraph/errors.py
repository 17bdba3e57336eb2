"""Exception types shared across the package.

Every error raised by library code derives from LevelGraphError so callers
(and the command line driver) can map failures to diagnostics uniformly.
"""

from __future__ import annotations


class LevelGraphError(Exception):
    """Base class for all library errors."""


class InputError(LevelGraphError):
    """Malformed user input: bad documents, bad flags, bad parameters."""


class UsageError(InputError):
    """Command line arguments the argument parser rejects."""


class LevelHitsVertex(LevelGraphError):
    """A cut level coincides with a function value at some vertex."""

    def __init__(self, vertex, value):
        self.vertex = vertex
        self.value = value
        super().__init__(f"level equals f({vertex}) = {value}; pick c outside the value set")


class DimensionExceeded(LevelGraphError):
    """More constraints than the dimension of the complex supports."""


class NotASurface(LevelGraphError):
    """Triangle extraction requested on a graph that is not a 2-graph."""


class NotLocallyInjective(LevelGraphError):
    """A function takes equal values on the two ends of an edge."""

    def __init__(self, edge, value):
        self.edge = edge
        self.value = value
        super().__init__(f"f is constant ({value}) on edge {edge}")


class TieOnSimplex(LevelGraphError):
    """A function takes equal values on two vertices of one simplex."""

    def __init__(self, simplex, pair):
        self.simplex = simplex
        self.pair = pair
        super().__init__(f"equal values on vertices {pair} of simplex {simplex}")


class IncompatibleLevel(LevelGraphError):
    """A pipeline stage level lies in the extended function's value set."""

    def __init__(self, stage, value, witnesses):
        self.stage = stage
        self.value = value
        # vertices of the stage input graph where the extension equals the level
        self.witnesses = tuple(witnesses)
        super().__init__(
            f"stage {stage}: level {value} hits the extended values at "
            f"{len(self.witnesses)} vertices"
        )


class ConstantExtension(LevelGraphError):
    """An extended function is constant, so no admissible level exists."""

    def __init__(self, stage, value):
        self.stage = stage
        self.value = value
        super().__init__(f"stage {stage}: extended function is constant ({value})")


class EmptyStage(LevelGraphError):
    """A pipeline stage produced an empty level surface."""

    def __init__(self, stage, level):
        self.stage = stage
        self.level = level
        super().__init__(f"stage {stage}: level set at {level} is empty")


class UnparsablePolynomial(InputError):
    """Polynomial text outside the supported grammar."""


class MissingCoordinates(LevelGraphError):
    """Mesh export requested for a graph without vertex coordinates."""


class ConvergenceFailure(LevelGraphError):
    """The eigensolver failed, or an eigenpair residual exceeds its bound."""


class ZeroOnVertex(LevelGraphError):
    """An eigenvector vanishes at a vertex and perturbation is disabled."""

    def __init__(self, vertex, value):
        self.vertex = vertex
        self.value = value
        super().__init__(f"eigenvector within zero tolerance at vertex {vertex} ({value!r})")
