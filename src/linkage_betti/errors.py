"""The exception type and the argument check shared across the library."""


class DomainError(ValueError):
    """A structurally valid input lies outside an operation's mathematical domain.

    Raised for things like a Betti degree outside 0..n-3 or a nonpositive bar
    length.  Malformed input (wrong type, unparseable text) keeps raising the
    usual TypeError / ValueError.
    """


def check_degree(n: int, p: int) -> None:
    """Refuse fewer than 3 bars, or a Betti degree p outside 0..n-3."""
    if n < 3:
        raise DomainError("Betti numbers need at least 3 bars")
    if not 0 <= p <= n - 3:
        raise DomainError(f"degree {p} outside 0..{n - 3}")
