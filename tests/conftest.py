"""Shared fixtures: memoized kernels and splits (construction is the
expensive step, so tests share them per parameter tuple)."""
import pytest

from crackwave.kernel import KernelParams, factorize
from crackwave.loading import LoadProfile, build_split

_KERNELS = {}
_SPLITS = {}


def get_kernel(m, eta, h0):
    key = (m, eta, h0)
    if key not in _KERNELS:
        _KERNELS[key] = factorize(KernelParams(m=m, eta=eta, h0=h0))
    return _KERNELS[key]


def get_split(m, eta, h0, L, p):
    key = (m, eta, h0, L, p)
    if key not in _SPLITS:
        _SPLITS[key] = build_split(get_kernel(m, eta, h0), LoadProfile(L=L, p=p))
    return _SPLITS[key]


@pytest.fixture(scope="session")
def kernel_factory():
    return get_kernel


@pytest.fixture(scope="session")
def split_factory():
    return get_split
