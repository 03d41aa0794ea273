"""Sparse cross-layer vision backbones, desk scale.

Subpackages: ``nd`` (tensor engine with reverse-mode differentiation),
``topology`` (connectivity planning and cache scheduling), ``blocks`` (token
mixers and layer blocks), ``dmca`` (multi-layer channel aggregation),
``backbone`` (model assembly and accounting), ``analysis`` (CKA and effective
receptive fields), and ``cli``.
"""

from . import analysis, backbone, blocks, config, dmca, nd, params, tensor_io, topology  # noqa: F401

__version__ = "0.1.0"
