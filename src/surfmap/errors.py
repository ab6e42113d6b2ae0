"""Exception types shared across the package.

The split matters for the CLI exit codes: bad input data raises
InputError subclasses (exit 1), mathematically impossible outcomes
raise ImpossibleError subclasses (exit 2, always a bug signal), and a
normalization dead end raises Stuck (exit 3).
"""


class SurfmapError(Exception):
    pass


class InputError(SurfmapError):
    """Invalid input data or violated operation precondition."""


class InvalidMap(InputError):
    """A map that fails validation; carries every problem found."""

    def __init__(self, problems):
        super().__init__(f"invalid map: {problems[:4]}")
        self.problems = list(problems)


class InvalidChi(InputError):
    pass


class UnknownName(InputError):
    pass


class InvalidSurface(InputError):
    pass


class NotOrientable(InputError):
    pass


class Disconnected(InputError):
    pass


class NotCollapsible(InputError):
    pass


class NotAdjacent(InputError):
    pass


class NotEssential(InputError):
    pass


class NotCompatible(InputError):
    pass


class NoCrosscap(InputError):
    pass


class BadTarget(InputError):
    pass


class BadEdge(InputError):
    pass


class BadKind(InputError):
    pass


class NotNormal(InputError):
    pass


class GraphLike(InputError):
    pass


class Branched(InputError):
    pass


class NotClosed(InputError):
    pass


class DisconnectedCover(InputError):
    pass


class ZeroDegree(InputError):
    pass


class Unsatisfiable(InputError):
    pass


class ImpossibleError(SurfmapError):
    """An outcome the mathematics forbids; indicates an implementation bug."""


class InternalInconsistency(ImpossibleError):
    """A self-check failed.  `context` names the check (a move's name for
    a post-move check) and `problems` lists the first problems found;
    either is None when not known."""

    def __init__(self, message, context=None, problems=None):
        super().__init__(message)
        self.context = context
        self.problems = problems


class InconsistentParity(ImpossibleError):
    pass


class InconsistentSheets(ImpossibleError):
    pass


class Stuck(SurfmapError):
    """normalize() ran out of moves while the normal-form predicate fails."""

    def __init__(self, report):
        super().__init__(f"no move applies but the map is not normal: {report}")
        self.report = report
