"""CSV artifacts and run manifests.

Floats are written with repr (shortest round-trip form), so identical
runs produce byte-identical files and readers recover exact values.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from singlerange.truthsim import TruthTrace

TRACE_HEADER_FREE = "k,t,x1,x2,x3,y_clean,y"
TRACE_HEADER_CURRENT = "k,t,x1,x2,x3,r1,r2,r3,y_clean,y"
_BLOCK_ROWS = 1024  # rows formatted per write; bounds the text held at once


def _write_rows(path, header, columns):
    """CSV rows of NumPy columns, repr of each tolist() cell, in row blocks."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            cells = [map(repr, col[lo:lo + _BLOCK_ROWS].tolist())
                     for col in columns]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def write_trace_csv(path, trace):
    """Write a truth trace; the header encodes the model."""
    t = trace.times
    k = np.arange(len(t))
    if trace.mode == "free":
        cols = [k, t, trace.x[:, 0], trace.x[:, 1], trace.x[:, 2],
                trace.y_clean, trace.y]
        _write_rows(path, TRACE_HEADER_FREE, cols)
    else:
        cols = [k, t, trace.x[:, 0], trace.x[:, 1], trace.x[:, 2],
                trace.r[:, 0], trace.r[:, 1], trace.r[:, 2],
                trace.y_clean, trace.y]
        _write_rows(path, TRACE_HEADER_CURRENT, cols)


def read_trace_csv(path):
    """Read a trace written by write_trace_csv; mode inferred from header."""
    with open(path) as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if len(data) < 2:
        raise ValueError(
            f"{path}: {len(data)} data rows; at least 2 are needed for ts")
    ts = data[1, 1] - data[0, 1]
    if header == TRACE_HEADER_FREE:
        return TruthTrace(ts=ts, x=data[:, 2:5], y_clean=data[:, 5],
                          y=data[:, 6])
    if header == TRACE_HEADER_CURRENT:
        return TruthTrace(ts=ts, x=data[:, 2:5], r=data[:, 5:8],
                          y_clean=data[:, 8], y=data[:, 9])
    raise ValueError(f"{path}: unrecognized trace header {header!r}")


def write_estimate_csv(path, run):
    """Write a filter run: k,t,xhat*,err_norm,trace_P[,vfhat1..3]."""
    est = run.state_estimates
    dim = est.shape[1]
    header = ("k,t," + ",".join(f"xhat{i + 1}" for i in range(dim))
              + ",err_norm,trace_P")
    cols = [np.arange(len(run.t)), run.t]
    cols += [est[:, i] for i in range(dim)]
    cols += [run.err_norm, run.trace_p]
    if run.vf_estimates is not None:
        header += ",vfhat1,vfhat2,vfhat3"
        cols += [run.vf_estimates[:, i] for i in range(3)]
    _write_rows(path, header, cols)


def write_error_csv(path, run):
    """Write the error-norm series: k,t,err_norm[,vf_err_norm]."""
    header = "k,t,err_norm"
    cols = [np.arange(len(run.t)), run.t, run.err_norm]
    if run.vf_err is not None:
        header += ",vf_err_norm"
        cols.append(run.vf_err)
    _write_rows(path, header, cols)


@dataclass
class RunManifest:
    """Provenance for one command invocation and its artifacts."""

    config_hash: str
    seed: int
    artifacts: list = field(default_factory=list)
    tool_version: str = ""
    duration_s: float = 0.0
    started_unix: float = field(default_factory=time.time)

    def write(self, path):
        payload = {
            "config_hash": self.config_hash,
            "seed": self.seed,
            "artifacts": list(self.artifacts),
            "tool_version": self.tool_version,
            "duration_s": self.duration_s,
            "started_unix": self.started_unix,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
