"""Exception hierarchy for the veesys package."""


class VeesysError(Exception):
    """Base class for all veesys-specific errors."""


class SingularForm(VeesysError):
    """The covectors do not span the ambient space; the canonical form is singular.

    Carries the numerical rank actually found.
    """

    def __init__(self, rank, dimension):
        self.rank = rank
        self.dimension = dimension
        super().__init__(
            f"canonical form is singular: numerical rank {rank} < dimension {dimension}"
        )


class DegeneratePlane(VeesysError):
    """Two covectors expected to span a plane are numerically proportional."""


class RankTooHigh(VeesysError):
    """Flat enumeration is implemented for rank <= 3 only."""


class AmbiguousFlats(VeesysError):
    """The coplanarity decisions of a configuration's triples contradict each
    other, so its flats do not partition the pairs of covectors."""


class NotMultiFlat(VeesysError):
    """Operation requires a flat with at least three members."""


class NotAVeeSystem(VeesysError):
    """Deformation analysis requires the orthogonality/proportionality checks to pass."""


class BadEmbedding(VeesysError):
    """Index map is not injective or maps outside the target configuration."""


class Reducible(VeesysError):
    """Configuration decomposes as a direct sum; rigidity test not applicable."""


class CoincidentLines(VeesysError):
    """The two lines of a meet coincide within tolerance."""


class NotCollinear(VeesysError):
    """Cross-ratio requires four collinear points."""


class DuplicatePoints(VeesysError):
    """Cross-ratio requires four pairwise distinct points."""


class StepDegenerate(VeesysError):
    """A reconstruction step produced a degenerate meet."""

    def __init__(self, step, reason):
        self.step = step
        super().__init__(f"reconstruction step {step!r} failed: {reason}")


class BranchRequired(VeesysError):
    """The script contains a branch equation but no branch was selected."""


class InadmissibleParameters(VeesysError):
    """Parameters violate the admissibility predicate of a catalogue family."""

    def __init__(self, entry_id, predicate, params):
        self.entry_id = entry_id
        self.predicate = predicate
        self.params = params
        super().__init__(
            f"{entry_id}: parameters {params} violate admissibility '{predicate}'"
        )


class ScriptFormatError(VeesysError):
    """A reconstruction script file could not be parsed."""


class DocumentFormatError(VeesysError):
    """A configuration document could not be parsed; message carries field context."""


class UnknownEntry(VeesysError, KeyError):
    """No catalogue entry or auxiliary configuration has the requested id."""

    __str__ = Exception.__str__  # the message, not KeyError's quoted repr
