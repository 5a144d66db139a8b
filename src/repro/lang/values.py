"""Runtime value representations shared by the interpreter and the IR.

Mini-Java values map onto Python values directly (int, float, bool, str,
list, set, dict).  User-defined objects are :class:`Instance`; dates are
instances of the built-in ``Date`` model class.
"""

from __future__ import annotations

from typing import Any


class Instance:
    """An instance of a user-defined (or library-modelled) class."""

    __slots__ = ("class_name", "fields")

    def __init__(self, class_name: str, fields: dict[str, Any]):
        self.class_name = class_name
        self.fields = fields

    def get(self, name: str) -> Any:
        if name not in self.fields:
            raise KeyError(f"{self.class_name} has no field {name!r}")
        return self.fields[name]

    def set(self, name: str, value: Any) -> None:
        self.fields[name] = value

    def copy(self) -> "Instance":
        return Instance(self.class_name, dict(self.fields))

    def __reduce__(self) -> tuple:
        # Constructor arguments, not the slots' state dict: half the
        # pickling time, and the class name is memoized once per pickle.
        return Instance, (self.class_name, self.fields)

    def _key(self) -> tuple:
        return (self.class_name, tuple(sorted(self.fields.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields.items())
        return f"{self.class_name}({inner})"


def make_date(epoch_day: int) -> Instance:
    """Create a Date value; dates are modelled as days since 1970-01-01."""
    return Instance("Date", {"epoch": int(epoch_day)})


_DAYS_IN_MONTH = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]


def _is_leap(year: int) -> bool:
    return year % 4 == 0 and (year % 100 != 0 or year % 400 == 0)


def parse_date(text: str) -> Instance:
    """Parse ``YYYY-MM-DD`` into a Date value (days since epoch)."""
    year_s, month_s, day_s = text.split("-")
    year, month, day = int(year_s), int(month_s), int(day_s)
    days = 0
    for y in range(1970, year):
        days += 366 if _is_leap(y) else 365
    for m in range(1, month):
        days += _DAYS_IN_MONTH[m - 1]
        if m == 2 and _is_leap(year):
            days += 1
    days += day - 1
    return make_date(days)


def deep_copy_value(value: Any) -> Any:
    """Structurally copy a runtime value (used to snapshot program states)."""
    if isinstance(value, list):
        return [deep_copy_value(item) for item in value]
    if isinstance(value, dict):
        return {key: deep_copy_value(val) for key, val in value.items()}
    if isinstance(value, set):
        return set(value)
    if isinstance(value, Instance):
        return Instance(value.class_name, {k: deep_copy_value(v) for k, v in value.fields.items()})
    return value


def values_equal(left: Any, right: Any, tolerance: float = 1e-6) -> bool:
    """Structural equality with float tolerance, for output comparison.

    NaN compares equal to NaN (both sides computed it the same way), and
    infinities must match exactly.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        return left == right
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        if isinstance(left, float) or isinstance(right, float):
            left_f, right_f = float(left), float(right)
            if left_f != left_f or right_f != right_f:  # NaN handling
                return left_f != left_f and right_f != right_f
            if left_f in (float("inf"), float("-inf")) or right_f in (
                float("inf"),
                float("-inf"),
            ):
                return left_f == right_f
            scale = max(abs(left_f), abs(right_f), 1.0)
            return abs(left_f - right_f) <= tolerance * scale
        return left == right
    if isinstance(left, list) and isinstance(right, list):
        return len(left) == len(right) and all(
            values_equal(a, b, tolerance) for a, b in zip(left, right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        if set(left.keys()) != set(right.keys()):
            return False
        return all(values_equal(left[key], right[key], tolerance) for key in left)
    if isinstance(left, set) and isinstance(right, set):
        return left == right
    return left == right
