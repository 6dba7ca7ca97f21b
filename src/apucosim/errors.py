"""Failure classes: every exception class of the package derives from
exactly one of UsageError (invalid input, exit 1) and NumericalFailure
(the numerics failed on a valid input, exit 2)."""
import copyreg


class ApuCosimError(Exception):
    def __reduce__(self):
        # rebuilt from args without __init__, whose signature varies by
        # subclass, so an error raised in a worker process unpickles intact
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class UsageError(ApuCosimError):
    pass


class NumericalFailure(ApuCosimError):
    pass
