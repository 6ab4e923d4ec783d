"""Exception hierarchy shared across the package."""


class DancerollError(Exception):
    """Base class for all library errors."""


class NotCollinear(DancerollError):
    pass


class DegenerateQuadruple(DancerollError):
    pass


class NonUnitAxis(DancerollError):
    pass


class NotNull(DancerollError):
    pass


class ZeroOctonion(DancerollError):
    pass


class DancingError(DancerollError):
    pass


class NotInscribed(DancingError):
    pass


class ClosureFailure(DancingError):
    pass


class DegenerateConfiguration(DancingError):
    pass


class DegenerateEdge(DancerollError):
    pass


class ParameterOutOfRange(DancerollError):
    pass


class NotTangent(DancerollError):
    pass


class IdenticalClasses(DancerollError):
    pass


class NotOnCone(DancerollError):
    pass


class DegenerateRay(DancerollError):
    pass


class NontrivialMonodromy(DancerollError):
    pass


class NonGeneric(DancerollError):
    pass


class NotSymmetricTraceless(DancerollError):
    pass


class ChartSingularity(DancerollError):
    pass
