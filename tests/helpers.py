"""Helpers that several test files share; pytest puts this directory on sys.path."""

from __future__ import annotations

import cmath
import io
import math
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout

from moutard import cli


def run_cli(argv):
    """(exit status, stdout, stderr) of ``cli.main(argv)`` run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def bits(zs):
    """Every bit of a sequence of complex numbers, signed zeros included."""
    return [(z.real.hex(), z.imag.hex()) for z in zs]


def separated_points(rng, n, radius, min_sep):
    """n points drawn in the disc of the radius, each at least min_sep from those drawn before."""
    pts = []
    while len(pts) < n:
        c = cmath.rect(rng.uniform(0.0, radius), rng.uniform(0.0, 2.0 * math.pi))
        if all(abs(c - q) >= min_sep for q in pts):
            pts.append(c)
    return pts


@contextmanager
def time_limit(seconds, message=None):
    """Raise TimeoutError inside the block once it has run ``seconds`` seconds."""

    def time_out(signum, frame):
        raise TimeoutError(message)

    previous = signal.signal(signal.SIGALRM, time_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
