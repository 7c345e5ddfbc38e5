"""The machine record and the configuration checks made against it."""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, Optional

__all__ = ["ConfigError", "available_cpus", "default_morsel_workers", "machine_record", "validate_config"]


class ConfigError(Exception):
    """A benchmark configuration that makes no sense on this machine.

    Carries the offending field, its value and the limit, so the refusal
    can be printed as one structured JSON object.
    """

    def __init__(self, field: str, value: object, limit: object, message: str) -> None:
        super().__init__(message)
        self.field = field
        self.value = value
        self.limit = limit

    def to_dict(self) -> Dict[str, object]:
        return {
            "error": "config",
            "field": self.field,
            "value": self.value,
            "limit": self.limit,
            "message": str(self),
        }


def available_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_morsel_workers(cpus: Optional[int] = None) -> int:
    """The wide parallel column: ``min(2, CPUs)`` workers."""
    return min(2, cpus if cpus is not None else available_cpus())


def validate_config(morsel_workers: int, cpus: Optional[int] = None) -> None:
    """Refuse more morsel workers than CPUs, or fewer than one.

    Raises:
        ConfigError: when the worker count is out of range.
    """
    limit = cpus if cpus is not None else available_cpus()
    if morsel_workers < 1:
        raise ConfigError(
            "morsel_workers", morsel_workers, 1, "morsel_workers must be at least 1"
        )
    if morsel_workers > limit:
        raise ConfigError(
            "morsel_workers",
            morsel_workers,
            limit,
            f"{morsel_workers} morsel workers on {limit} CPUs would time "
            "oversubscription, not parallelism",
        )


def machine_record(morsel_workers: int) -> Dict[str, object]:
    """What the numbers were measured on, and with which configuration."""
    import numpy

    return {
        "nproc": available_cpus(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "morsel_workers": morsel_workers,
        "clients": 1,
        "load": "closed loop, one process, no think time",
    }
