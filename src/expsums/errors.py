"""Exception types and the immutable-record base shared across the package.

Every subcommand loads this module, so it holds ``_Record``, the base of the
package's frozen records, in place of ``dataclasses`` (which loads
``inspect``, a cost paid at every start-up).
"""


class SizeLimitError(ValueError):
    """An enumeration guard was exceeded; the message names the limit."""


class ParityError(ValueError):
    """An exponent had the wrong parity for the requested recurrence."""


class PreconditionError(ValueError):
    """An operation's hypothesis (e.g. k does not divide m) was violated."""


class DivergenceError(ValueError):
    """The requested series does not converge."""


class ConsistencyError(RuntimeError):
    """An internal exactness self-check failed; this must never fire."""


class _Record:
    """Base of a frozen record, which behaves as a frozen dataclass.

    A subclass names its fields by annotating them in its body, in order,
    after those of the record it extends; a field given a value there is
    optional with that default, and only trailing fields may be.  The
    fields are bound positionally or by keyword, then ``_validate`` runs:
    it may raise, or normalize a field with ``object.__setattr__``.
    Instances are equal only to instances of the same class with equal
    fields, hash their field tuple, print as ``Name(field=value, ...)`` and
    refuse assignment and deletion.
    """

    _fields = ()  # set for each subclass from its annotations

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # A class's own annotations only: it does not inherit them (3.10+).
        cls._fields = fields = cls._fields + tuple(cls.__annotations__)
        optional = [hasattr(cls, name) for name in fields]
        if optional != sorted(optional):
            raise TypeError(f"{cls.__name__}: a field without a default follows one with it")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self._validate()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} takes {len(cls._fields)} fields, got {len(args)}")
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif hasattr(cls, name):
                values.append(getattr(cls, name))
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__} got unexpected or repeated fields {sorted(kwargs)}")
        return values

    def _validate(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
