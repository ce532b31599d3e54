"""Exception types shared across the package."""


class ValidationError(ValueError):
    """A configuration or parameter violates a documented precondition."""


class OutOfDomainError(LookupError):
    """A table field was evaluated outside its declared (sensor, step) domain."""


class HistoryError(ValueError):
    """A transition was invoked with less history than its stage requires."""


class TerminatedError(RuntimeError):
    """A finite-window recursion was stepped past its termination round."""


class DivergedError(RuntimeError):
    """Simulation produced a non-finite value."""

    def __init__(self, sensor: int, round_: int):
        self.sensor = sensor
        self.round = round_
        super().__init__(f"simulation diverged at sensor {sensor}, round {round_}")
