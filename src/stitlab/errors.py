"""Exception hierarchy for stitlab."""


class StitlabError(Exception):
    """Base class for all stitlab errors."""


class GeometryError(StitlabError):
    """Invalid polygon or line input."""


class DegenerateSplit(GeometryError):
    """Both split parts flagged nonempty but the chord is below tolerance."""


class SamplerStall(StitlabError):
    """Rejection sampler exceeded its iteration budget (geometry bug)."""


class LCollision(StitlabError):
    """Two normalized hitting weights closer than a minimum gap.  stitlab no
    longer raises it (IllConditioned refuses them); callers may still catch it."""


class DomainError(StitlabError, ValueError):
    """Arguments outside the domain of a closed-form evaluator."""


class IllConditioned(StitlabError):
    """Alternating sum too ill-conditioned for double precision."""


class TruncationFailure(StitlabError):
    """Infinite-sum truncation could not reach the tail bound within budget.

    No evaluator truncates a series now; the class stays for callers that
    catch it."""


class TooFewSamples(StitlabError, ValueError):
    """Not enough samples for a goodness-of-fit test."""


class DegenerateBins(StitlabError):
    """Fewer than two histogram bins remain after merging."""


class ConfigError(StitlabError):
    """Invalid experiment configuration or CLI usage."""
