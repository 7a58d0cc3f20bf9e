"""Synthetic workloads, VM fleets, and the jobs CSV trace format.

Generation is a pure function of the spec (numpy PCG64 seeded from
``spec.seed``), so the same spec always yields the same trace on any
platform. Job lengths are uniform integers on [len_min, len_max] MI;
arrivals are either all zero (batch submission) or a Poisson process.
Fleet speeds come from a finite choice list, cycled in id order by
default or sampled uniformly. A fleet is a pure function of its spec, so
it has no file format.

CSV schema: jobs files carry ``job_id,arrival_time,length_mi``, UTF-8
with ``.`` decimals.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .lca import _check_integer, _check_real, _real_float
from .problem import Job, Vm, _JobTable

__all__ = [
    "CsvFormatError",
    "WorkloadSpec",
    "FleetSpec",
    "generate_workload",
    "generate_fleet",
    "read_jobs_csv",
    "write_jobs_csv",
]

DEFAULT_LEN_MIN = 1000
DEFAULT_LEN_MAX = 20000
DEFAULT_SPEED_CHOICES = (500.0, 1000.0, 1500.0, 2000.0, 2500.0)

JOBS_CSV_HEADER = ("job_id", "arrival_time", "length_mi")


class CsvFormatError(ValueError):
    """Malformed trace file; the message names the offending line."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Recipe for a synthetic job list.

    ``arrival_rate`` of None means batch submission (every job arrives at
    time zero); a positive rate draws Poisson-process arrivals at that many
    jobs per second.
    """

    job_count: int
    len_min: int = DEFAULT_LEN_MIN
    len_max: int = DEFAULT_LEN_MAX
    arrival_rate: float | None = None
    seed: int = 0

    def __post_init__(self):
        _check_integer("job_count", self.job_count, 1)
        _check_integer("seed", self.seed, 0)
        _check_workload_bounds(self.len_min, self.len_max, self.arrival_rate)


def _check_workload_bounds(len_min, len_max, arrival_rate) -> None:
    """Reject job length bounds unless both are integers with 1 <= len_min <= len_max < 2**63, as ``Job`` checks,
    and an arrival rate unless it is None (batch) or a finite positive real."""
    _check_integer("len_min", len_min, 1)
    _check_integer("len_max", len_max, len_min)
    if len_max >= 2**63:
        raise ValueError("len_max must fit a 64-bit integer")
    if arrival_rate is not None:
        _check_real("arrival_rate", arrival_rate, positive=True)


def _check_speeds(name: str, speeds) -> tuple[float, ...]:
    """The speed choices as the floats ``Vm`` stores; there must be some, each a finite positive real, not a bool."""
    floats = tuple(map(_real_float, speeds))
    if not floats or not all(0.0 < s < math.inf for s in floats):
        raise ValueError(f"{name} must be non-empty, finite and positive (real, not bool), got {speeds!r}")
    return floats


@dataclass(frozen=True)
class FleetSpec:
    """Recipe for a VM fleet; speeds are cycled or sampled from the choices."""

    vm_count: int
    speed_choices: tuple[float, ...] = DEFAULT_SPEED_CHOICES
    mode: str = "cycle"
    seed: int = 0

    def __post_init__(self):
        _check_integer("vm_count", self.vm_count, 1)
        _check_integer("seed", self.seed, 0)
        object.__setattr__(self, "speed_choices", _check_speeds("speed_choices", self.speed_choices))
        if self.mode not in ("cycle", "sample"):
            raise ValueError(f"unknown fleet mode: {self.mode!r}")


def generate_workload(spec: WorkloadSpec) -> list[Job]:
    """Jobs with ids 0..n-1, i.i.d. uniform lengths, arrivals per the spec."""
    return _drawn_jobs(spec)[:]


def _drawn_jobs(spec: WorkloadSpec) -> _JobTable:
    """``generate_workload``'s jobs as a table of checked columns, building no ``Job``."""
    rng = np.random.default_rng(spec.seed)
    lengths = rng.integers(spec.len_min, spec.len_max, size=spec.job_count, endpoint=True)
    if spec.arrival_rate is None:
        arrivals = np.zeros(spec.job_count)
    else:
        arrivals = np.cumsum(rng.exponential(1.0 / spec.arrival_rate, size=spec.job_count))
    return _JobTable(np.arange(spec.job_count, dtype=np.int64), arrivals, lengths)


def generate_fleet(spec: FleetSpec) -> list[Vm]:
    """VMs with ids 0..m-1 and speeds cycled or sampled from the choices."""
    if spec.mode == "cycle":
        speeds = [spec.speed_choices[i % len(spec.speed_choices)] for i in range(spec.vm_count)]
    else:
        rng = np.random.default_rng(spec.seed)
        speeds = rng.choice(np.asarray(spec.speed_choices, dtype=float), size=spec.vm_count)
    return [Vm(id=i, speed=speeds[i]) for i in range(spec.vm_count)]


def read_jobs_csv(source) -> list[Job]:
    """Parse a jobs trace, holding at least one job, from a path or open text file."""
    owned = not hasattr(source, "read")
    jobs: list[Job] = []
    seen: set[int] = set()
    with open(source, "r", encoding="utf-8", newline="") if owned else contextlib.nullcontext(source) as handle:
        reader = csv.reader(handle)
        try:
            first = next(reader)
        except StopIteration:
            raise CsvFormatError(f"line 1: missing header {','.join(JOBS_CSV_HEADER)}") from None
        if tuple(field.strip() for field in first) != JOBS_CSV_HEADER:
            raise CsvFormatError(f"line 1: expected header {','.join(JOBS_CSV_HEADER)}")
        for row in reader:
            if not row:
                continue
            line_num = reader.line_num
            if len(row) != 3:
                raise CsvFormatError(f"line {line_num}: expected 3 fields, got {len(row)}")
            job_id = _integer_field(row[0], "job_id", "job id", line_num)
            if _DECIMAL.fullmatch(row[1]) is None:
                raise CsvFormatError(f"line {line_num}: non-numeric field arrival_time: {row[1]!r}")
            arrival = float(row[1])
            length = _integer_field(row[2], "length_mi", "job length", line_num)
            if job_id in seen:
                raise CsvFormatError(f"line {line_num}: duplicate job_id {job_id}")
            seen.add(job_id)
            try:
                jobs.append(Job(id=job_id, arrival_time=arrival, length=length))
            except ValueError as exc:
                raise CsvFormatError(f"line {line_num}: {exc}") from None
    if not jobs:
        raise CsvFormatError("line 1: no jobs after the header")
    return jobs


_INTEGER = re.compile(r"\s*[+-]?([0-9]+)\s*")
# ASCII decimal with one optional point and exponent, which every repr(float) is;
# float() alone would also take digit separators (1_0) and non-ASCII digits. The
# non-finite words are kept so that Job rejects them as non-finite, naming the field.
_DECIMAL = re.compile(r"\s*[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?ai:inf|infinity|nan))\s*")


def _integer_field(text: str, column: str, name: str, line_num: int) -> int:
    """Parse ASCII decimal digits with an optional sign, nothing else: ``int``
    alone would also take digit separators (``1_0``) and non-ASCII digits."""
    match = _INTEGER.fullmatch(text)
    if match is None:
        raise CsvFormatError(f"line {line_num}: non-integer field {column}: {text!r}")
    if len(match[1].lstrip("0")) > 19:  # 2**63 has 19 digits; int() also caps the digits it parses
        raise CsvFormatError(f"line {line_num}: {name} must fit a 64-bit integer")
    return int(text)


def write_jobs_csv(jobs: Sequence[Job], sink) -> None:
    """Write jobs in id order; floats keep full round-trip precision."""
    rows = [[job.id, repr(job.arrival_time), job.length] for job in sorted(jobs, key=lambda j: j.id)]
    _write_csv(JOBS_CSV_HEADER, rows, sink)


def _write_csv(header, rows, sink) -> None:
    """Write to an open text sink, or atomically replace the file at a path:
    the rows go to a temporary file beside it, which is renamed over it.

    A path that names a device or pipe (``/dev/stdout``, say) is written
    through, since there is no file to replace, and a symlink to a file
    has its target replaced, not the link.
    """
    if hasattr(sink, "write"):
        writer = csv.writer(sink)
        writer.writerow(header)
        writer.writerows(rows)
        return
    path = Path(sink)
    if path.exists() and not path.is_file():
        with open(path, "w", encoding="utf-8", newline="") as handle:
            _write_csv(header, rows, handle)
        return
    path = path.resolve()
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    handle = open(temp, "x", encoding="utf-8", newline="")
    try:
        with handle:
            _write_csv(header, rows, handle)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
