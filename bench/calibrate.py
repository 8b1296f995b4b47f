"""Fixed calibration kernels of the corred benchmark.

The benchmark's host shares its cores: the same pure-Python loop runs up to
40 % slower for tens of seconds at a time, so raw wall times of two runs a
minute apart differ by more than any bound worth setting. Each workload
therefore runs a calibration kernel before and after every invocation and
scales the invocation's times by ``nominal_s / calibration time``: the times
it would take at the speed at which the kernel takes ``nominal_s``.

A kernel does the same kind of work as its workload (small-matrix numpy
calls from Python, dense BLAS/LAPACK at N=514, JSON text), so a slow spell
slows both alike. The kernels never call corred: a change to the program
moves the invocation time and leaves the kernel time alone.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _random_state(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = g @ g.conj().T
    return rho / rho.trace().real


def sweeps(na: int, nb: int, count: int) -> Callable[[], None]:
    """Conditioned-reduction sweeps in the dense kron formulation."""
    rho = _random_state(na * nb)
    eye_a, eye_b = np.eye(na), np.eye(nb)

    def run() -> None:
        ra = eye_a / na
        for _ in range(count):
            num = np.einsum("aiaj->ij", (rho @ np.kron(ra, eye_b)).reshape(na, nb, na, nb))
            rb = 0.5 * (num + num.conj().T)
            rb = rb / rb.trace().real
            num = np.einsum("ibjb->ij", (rho @ np.kron(eye_a, rb)).reshape(na, nb, na, nb))
            new = 0.5 * (num + num.conj().T)
            new = new / new.trace().real
            float(np.max(np.abs(new - ra)))
            ra = new

    return run


def dense(n: int, count: int) -> Callable[[], None]:
    """Products, spectra and partial traces of n x n complex matrices."""
    rho = _random_state(n)
    half = n // 2

    def run() -> None:
        for _ in range(count):
            u = np.kron(np.eye(2), rho[:half, :half])
            m = u @ rho @ u.conj().T
            np.linalg.eigvalsh(0.5 * (m + m.conj().T))
            np.einsum("ibjb->ij", m.reshape(2, half, 2, half))

    return run


def text(n: int) -> Callable[[], None]:
    """A complex n x n matrix to JSON text and back."""
    rho = _random_state(n)
    pairs = np.stack([rho.real.ravel(), rho.imag.ravel()], axis=1).tolist()

    def run() -> None:
        back = json.loads(json.dumps({"data": pairs}))["data"]
        np.array([complex(re, im) for re, im in back])

    return run


@dataclass(frozen=True)
class Calibration:
    parts: tuple[Callable[[], None], ...]
    #: Reference time of the parts together, close to their median on the
    #: 2-vCPU Xeon host of the baseline. Scaled times read as seconds at the
    #: speed at which the kernel takes this long; the value is fixed, so it
    #: shifts every run alike and never the comparison between two commits.
    nominal_s: float

    def __call__(self) -> float:
        """Run every part once; return the wall seconds taken."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start
