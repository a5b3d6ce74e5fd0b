"""Golden bytes: SZ and MGARD containers must not change.

The sha256 of every container below was recorded with the per-bit
Huffman writer and the heap-built code lengths; the word-packed writer
and the two-queue builder must reproduce them byte for byte.  Fields
are seeded random walks (correlated, like the real data), compressed at
a range-relative bound of 1e-3; ``esc`` cases use 1e-7, where 14-32 %
of the residuals leave the 65,536-symbol alphabet and travel in the
escape side stream.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.baselines.mgard import mgard_compress
from repro.baselines.sz import sz_compress

SHAPES = {1: (5000,), 2: (60, 70), 3: (18, 20, 22)}


def field(ndim: int, dtype: str, seed: int) -> np.ndarray:
    """A seeded ``ndim``-D random walk of the given dtype."""
    a = np.random.default_rng(seed).normal(size=SHAPES[ndim])
    for axis in range(ndim):
        a = np.cumsum(a, axis=axis)
    return a.astype(dtype)


def container(name: str) -> bytes:
    """The container a case name describes: ``codec-ndim-dtype-mode``."""
    codec, ndim, dtype, mode = name.split("-")
    data = field(int(ndim), dtype, seed=int(ndim) * 10 + (dtype == "f8"))
    if codec == "mgard":
        return mgard_compress(data, rel_eps=1e-3)
    if mode == "esc":
        return sz_compress(data, rel_eps=1e-7, mode="lorenzo")
    return sz_compress(data, rel_eps=1e-3, mode=mode)


GOLDEN = {
    "sz-1-f4-lorenzo":
        "e343554fe0a04735361f2dbf8c56040b00ae934d0f22b98d293ef5daae413ee5",
    "sz-1-f4-regression":
        "5cb5ab62fa2e70af3cfdfa97e49a5cfc39cd1b75ca5eb53bb2f008de01406628",
    "sz-1-f4-auto":
        "e343554fe0a04735361f2dbf8c56040b00ae934d0f22b98d293ef5daae413ee5",
    "sz-1-f8-lorenzo":
        "d6d80dd9d43295f718d62e5a7e4b32b46a4694cf7b70a9ce86bbbedc45caa66b",
    "sz-1-f8-regression":
        "4befed28a2679af127d0890f0f3f152b967dae24ae10f577fc5055d48ea5444c",
    "sz-1-f8-auto":
        "d6d80dd9d43295f718d62e5a7e4b32b46a4694cf7b70a9ce86bbbedc45caa66b",
    "sz-2-f4-lorenzo":
        "d2cfb6b49f45b552a8f488f2d7f19a6adc84491b9cfe816cfb9f091b440c8bd2",
    "sz-2-f4-regression":
        "97dff2bc938f5de260abd6061e44092e58baddd299b7115eb653ba9d7a6b1295",
    "sz-2-f4-auto":
        "76ecd753139ee88239b2db081287efda8a2b90743c773ca1f96d7df55e681ec4",
    "sz-2-f8-lorenzo":
        "796f58e45a8b4a776307e38bceae15c4ad72740c358b9d2f7a6089d4821a0167",
    "sz-2-f8-regression":
        "1e0579ca0a6771dcfa67704b19fb8f6db94d7838a6b9229ba6124df2d30d9381",
    "sz-2-f8-auto":
        "99ad9e47eaa18e6b07fe627b82ea6fb958cf7d28dbe04f9195551ecb27e74125",
    "sz-3-f4-lorenzo":
        "ce0c80711c473c9feb046819b99b2c8675f1da7435ba6eee4908332b62c8d6e6",
    "sz-3-f4-regression":
        "2c7a16d5b3c156eb936eb1aa9976a0192dba0e9400b1243db8cde5a00a4fee56",
    "sz-3-f4-auto":
        "4dd694fa9938552d000c221df8cf835709d537195ff54286ad17414a4dc29b23",
    "sz-3-f8-lorenzo":
        "0fe01f0f1c95a6f837a37c6d2a959fa1e061d1254f8c7fc9339c9b3f24c43259",
    "sz-3-f8-regression":
        "5531357af226a6b53101627349326386d1193ce407d0925e344d276c007e600e",
    "sz-3-f8-auto":
        "0be1505afc287e1ffdcd9489b31506e6fd6bc44d31492ab25ce817ab84176004",
    "sz-2-f8-esc":
        "730e150ddb99e89770b546dd1f6f4fbd988ee3776b7fd6ee3f7f72c85ac3b921",
    "sz-3-f4-esc":
        "17652e5078d6a4ffecd950200705a8779102866645444adefca013d13e653278",
    "mgard-2-f8-x":
        "c8c8de6e82520e54d83eab1bf759c712db27a61d44aa60b5989acb538ec884b4",
    "mgard-3-f4-x":
        "d9976eb40d726bb7f2241e88bfc566780d03adae7bda785389a8a235f3635c55",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_container_bytes_unchanged(name):
    assert hashlib.sha256(container(name)).hexdigest() == GOLDEN[name]
