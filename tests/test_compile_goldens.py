"""Golden compile fingerprints: every suite kernel compiles byte-identically.

Each entry pins a sha256 over everything a DySER compile produces: the
program listing, the IR dump, every placed-and-routed configuration (the
fuzz ``ir`` oracle's rendering) and the region reports, whose ``reason``
carries scheduler error text into ``RunResult.to_dict()``.  A changed
placement, route, listing or error message changes the hash.  The ``ir``
oracle cannot catch that on its own: it compares two compiles through
the same router.

Two option sets are pinned: the default ``CompilerOptions`` (8x8 fabric,
unroll 8) and the fuzz fabric (4x4, unroll 2).  Compiles go through the
runner's memoized ``_compile``, so kernels other tests already compiled
cost nothing here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.compiler import CompilerOptions
from repro.dyser import Fabric, FabricGeometry
from repro.harness.fuzz.generator import default_fabric
from repro.harness.fuzz.oracles import _compile_fingerprint
from repro.harness.runner import (
    DEFAULT_GEOMETRY,
    _compile,
    _options_key,
    source_hash,
)
from repro.workloads import get, names

OPTIONS = {
    "default": CompilerOptions(fabric=Fabric(FabricGeometry(*DEFAULT_GEOMETRY))),
    "fuzz": CompilerOptions(fabric=default_fabric(), unroll=2),
}

GOLDEN: dict[tuple[str, str], str] = {
    ("default", "collatz_diamonds"):
        "34ea75a437e6128b40c218ec86baa83d393543ba84bd29d3574d9e58d0aceccb",
    ("default", "conv2d"):
        "aa0f9ed6359ec4ec15769a507aa415541ed06fbc6e93bea8e7a52ffd00155564",
    ("default", "dag_reduce_dsl"):
        "1faa70b357a250567cb2a8f45f07e290cfb601f41e2218cb08e70985fe62357c",
    ("default", "dotprod"):
        "9cfcac3efaafbee0297c5f319e87cbcb54b24fc73928da2f055ae903a676fdd5",
    ("default", "fft_stage"):
        "45fad172d0e1099be4ef60a466d83c3a688c3cb66122b5b1787b16bd96e3746f",
    ("default", "fir"):
        "233bb028e0b8a6552fe88ec9e5279bd05f5ca8e01d96732554d57d0eb4020674",
    ("default", "hist_branchy_dsl"):
        "bc06e7b723878d12da90f64a092566e3b29a5bf8d864130392bdf3f1f8134851",
    ("default", "hist_weighted"):
        "df81b59812e8fb490573ce9d60ef249cf67ba8b390442ea17d603a76a62b0218",
    ("default", "kmeans"):
        "532c59423c35d1946e81042bec957d131fdda0cd794d1d486d3787e190ed7e22",
    ("default", "mm"):
        "3f2e512736b4b355b069fb1f6597f82793d795e49948bb336b679f179e5877f6",
    ("default", "mriq"):
        "36272ecf086f6c963f4cb1593b00ed21a25c1914f596e98d13395fa5f9888d5e",
    ("default", "nbody"):
        "0431a95f254a300e24c65f86a0eccac157a2aaed561e6204b08c81827a32fefe",
    ("default", "needle"):
        "4804d75c51c24a29a46a25948bd782fe04c5693a94eef2fc782eb94c38f57fd5",
    ("default", "newton_lcd"):
        "d079b631b6a1c58949430b359fd15c920de9bfd985170d3fb69cb6a069a328e9",
    ("default", "ptr_chase_dsl"):
        "2152f9978befef90cad15089dfef4d15c399d915050befc62ebc8182d09c81c2",
    ("default", "sad"):
        "1295fccb66fde656ce5517e1389c5304e40742c03508ee4beee0da653b7c09a0",
    ("default", "saxpy"):
        "29a081653544779f853ca68369e459d2fdcf717676f6c1068abba24e1cdfd852",
    ("default", "spmv"):
        "f5c90d628a01869e2bfd7a5f3a4511fd9ec968251bbd53f6c790ee09ce6b1f05",
    ("default", "spmv_csr_dsl"):
        "9797ad9600152f74582a4efd859fe515793ec75c1b4debcec80036b8330da0cb",
    ("default", "stencil2d"):
        "b6ee21d06132697132fc17d69e7f891f92f245962645785547ae4c1622a0692a",
    ("default", "tpacf_bin"):
        "201db6bcb77103c9d31c97fb26441154dc099d90b70afed6bd50737279f0c8ba",
    ("default", "vecadd"):
        "e2b02e34b61b6f2ca926ade7f40110a3509c28d33c2fa26f94a22bdc50f51fed",
    ("fuzz", "collatz_diamonds"):
        "5263c77e15ca8d41e219d5311d4f05f99157374a57786069b262cebe82aa8c26",
    ("fuzz", "conv2d"):
        "47bc0642c2ed60cffc2c7444d854916b92dd91c62ce56c6039c9680a0284ae3c",
    ("fuzz", "dag_reduce_dsl"):
        "1faa70b357a250567cb2a8f45f07e290cfb601f41e2218cb08e70985fe62357c",
    ("fuzz", "dotprod"):
        "f21354681e3e772ef7579b70c7bddc6640b71f5ccb7964ac242a106d19b60ce2",
    ("fuzz", "fft_stage"):
        "961b21c79b44dcec603f7b51923feb9df6a62ac2c2c25f031fa5c2bda883f768",
    ("fuzz", "fir"):
        "42c0ba3eb879977a65511e59e592189d9bc922e07e75bd3f1dfbf607de6e8ba2",
    ("fuzz", "hist_branchy_dsl"):
        "bc06e7b723878d12da90f64a092566e3b29a5bf8d864130392bdf3f1f8134851",
    ("fuzz", "hist_weighted"):
        "50089bbda4a2269119a998be68d78d1109aaf00094d09ae757ec84845737d227",
    ("fuzz", "kmeans"):
        "2415b8e6c1a706bc1c6c67821fd984529352f5dd8e84fa45c895b0e69ee81668",
    ("fuzz", "mm"):
        "b76561a010ea99b757560bfd5b5efa70d095524e394b2842f2117aafef8a3648",
    ("fuzz", "mriq"):
        "33f89c23385223b81aba2b2d6e72e901211f713d7248c761e1f434dfcb19273c",
    ("fuzz", "nbody"):
        "9fb22764880d133a2d972a8d1c2f649ea75bc18c6b94e138f1e07b7a1dc241d4",
    ("fuzz", "needle"):
        "4804d75c51c24a29a46a25948bd782fe04c5693a94eef2fc782eb94c38f57fd5",
    ("fuzz", "newton_lcd"):
        "9132907d35c992c480c574b705b647c2c395e2666b644ae741c18711346e1526",
    ("fuzz", "ptr_chase_dsl"):
        "7c37d4007438709b211d034e928a46ce09e7d93dd499d73d5385afba3f6384ba",
    ("fuzz", "sad"):
        "8a8d11e7cbfcc30fe719c989b90870e02e7f2f63afca63d757e552695c137bff",
    ("fuzz", "saxpy"):
        "97401872d5e2556ee124ba3ee5ef222362c4fb436346b23254b7faa692d1c9eb",
    ("fuzz", "spmv"):
        "dfe23decf3ef09f15568a052b0192c6faee64ee916a6b7e109bf3a2e741bee0c",
    ("fuzz", "spmv_csr_dsl"):
        "c655a38bc7048722ee9c075ed024478a660b434d266a05cb96f89b436783eac9",
    ("fuzz", "stencil2d"):
        "25b1cddad0e42a3fece7d950d88c9de3c172bcdb6558099f85cfe8ebcb06fab5",
    ("fuzz", "tpacf_bin"):
        "201db6bcb77103c9d31c97fb26441154dc099d90b70afed6bd50737279f0c8ba",
    ("fuzz", "vecadd"):
        "e42d9ec0789bb32985097e8db6b500c256660f31cd45fb25e25db92ce7557abe",
}


def compile_digest(workload: str, options: CompilerOptions) -> str:
    """sha256 of a kernel's DySER compile under ``options``."""
    source = get(workload).source
    result = _compile(workload, source_hash(source), "dyser",
                      _options_key(options))
    regions = repr([r.to_dict() for r in result.regions])
    text = f"{_compile_fingerprint(result)}\n--\n{regions}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_goldens_cover_the_suite():
    pinned = {name for _, name in GOLDEN}
    assert pinned == {n for n in names() if not n.startswith("dsl:")}
    assert {opts for opts, _ in GOLDEN} == set(OPTIONS)


@pytest.mark.parametrize("opts,workload", sorted(GOLDEN))
def test_compile_fingerprint_is_pinned(opts, workload):
    assert compile_digest(workload, OPTIONS[opts]) \
        == GOLDEN[(opts, workload)]
