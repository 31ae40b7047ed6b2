"""htlab: a finite-precision laboratory for Hodge-Tate crystals.

The package realizes, at explicit p-adic and series precision, the dictionary
between stratifications on divided-power cosimplicial rings, enhanced log
Higgs modules, and Galois/Sen data, together with brute-force oracles for
every closed-form formula it implements.
"""

from .base import BaseConfig, Cutoffs, KElem, make_base_config
from .chart import ChartElem, ChartRing
from .cohomology import (
    ComplexRep,
    build_higgs_complex,
    cohomology,
    cohomology_all,
    kernel_cokernel_mod,
    snf_dvr,
    verify_complex,
)
from .deltaring import (
    FactorizationCertificate,
    WittElem,
    frobenius,
    teichmuller,
    teichmuller_factorize,
)
from .galois import GroupElt, sigma_t
from .higgs import (
    HiggsData,
    Stratification,
    check_cocycle,
    check_recursions,
    higgs_from_stratification,
    log_from_smooth,
    stratification_from_higgs,
    validate_higgs,
)
from .linalg import Mat
from .pdring import (
    PdRing,
    check_cosimplicial_identities,
    check_face_evaluation,
)
from .samples import corpus, default_specs, sample_group, sample_higgs
from .sen import (
    cocycle_matrix,
    crosscheck_inverse_simpson,
    h0_fixed_points,
    sen_operator,
    verify_cocycle_law,
)
from .serialize import dump_higgs, dumps, higgs_from_json, higgs_to_json, load_higgs

__all__ = [
    "BaseConfig",
    "ChartElem",
    "ChartRing",
    "ComplexRep",
    "Cutoffs",
    "FactorizationCertificate",
    "GroupElt",
    "HiggsData",
    "KElem",
    "Mat",
    "PdRing",
    "Stratification",
    "WittElem",
    "build_higgs_complex",
    "check_cocycle",
    "check_cosimplicial_identities",
    "check_face_evaluation",
    "check_recursions",
    "cocycle_matrix",
    "cohomology",
    "cohomology_all",
    "corpus",
    "crosscheck_inverse_simpson",
    "default_specs",
    "dump_higgs",
    "dumps",
    "frobenius",
    "h0_fixed_points",
    "higgs_from_json",
    "higgs_from_stratification",
    "higgs_to_json",
    "kernel_cokernel_mod",
    "load_higgs",
    "log_from_smooth",
    "make_base_config",
    "sample_group",
    "sample_higgs",
    "sen_operator",
    "sigma_t",
    "snf_dvr",
    "stratification_from_higgs",
    "teichmuller",
    "teichmuller_factorize",
    "validate_higgs",
    "verify_cocycle_law",
    "verify_complex",
]

__version__ = "0.1.0"
