import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gmdiff
from gmdiff import random_spec, standard_mixture_1d, standard_normal_spec

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="glibc allocator only")


def pytest_runtest_logreport(report):
    # one visible pass/fail line per acceptance criterion, with runtime
    if report.when == "call" and "test_acceptance" in report.nodeid:
        status = "PASS" if report.passed else "FAIL"
        name = report.nodeid.split("::")[-1]
        print(f"\n[{status}] {name} ({report.duration:.1f}s)", flush=True)


@pytest.fixture
def std1d():
    return standard_normal_spec(1)


@pytest.fixture
def std2d():
    return standard_normal_spec(2)


@pytest.fixture
def anchor():
    """The repo's standard 1D two-component mixture (means +-2, var 0.25)."""
    return standard_mixture_1d()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def naive_density(weights, means, covs, x):
    """Unvectorized direct mixture density; the reference oracle for the
    log-sum-exp implementation."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for w, mu, cov in zip(weights, means, covs):
        mu = np.asarray(mu, dtype=float)
        cov = np.asarray(cov, dtype=float)
        d = len(mu)
        diff = x - mu
        quad = float(diff @ np.linalg.inv(cov) @ diff)
        norm = (2.0 * math.pi) ** (d / 2.0) * math.sqrt(np.linalg.det(cov))
        total += w * math.exp(-0.5 * quad) / norm
    return total


def make_random_spec(d, k, seed, eig_range=(0.25, 4.0), mean_scale=2.0):
    return random_spec(d, k, np.random.default_rng(seed),
                       eig_range=eig_range, mean_scale=mean_scale)


def minor_faults(setup, code, *args, **env):
    """Minor page faults of running code after setup in a fresh Python process.

    args become sys.argv[1:]. The child imports this source tree, with glibc's
    malloc threshold variables cleared and then env set on top.
    """
    script = (f"import resource, sys\n{setup}\n"
              "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
              f"{code}\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    child_env = dict(os.environ)
    for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
        child_env.pop(name, None)
    child_env.update(env)
    src = str(Path(gmdiff.__file__).resolve().parents[1])
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, child_env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=child_env,
                          capture_output=True, text=True, check=True)
    return int(done.stdout.split()[-1])
