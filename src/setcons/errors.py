"""Shared exception types."""


class SetconsError(Exception):
    """Base class for all library errors."""


class CapExceeded(SetconsError):
    """An enumeration would exceed a configured resource cap (CLI exit code 2)."""


class CellEncodingError(SetconsError):
    """A set is not exactly a union of partition cells."""
