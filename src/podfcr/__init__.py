"""Cloud removal from cloudy optical imagery with PolSAR fusion.

A self-contained numpy implementation: reverse-mode autodiff engine, the
dual-branch fusion network with dynamic-filter denoising and attention
refinement, the composite L1/local/SSIM loss, evaluation metrics, a
deterministic synthetic dataset, and training/evaluation tooling.

Importing the package sets one BLAS thread, unless the environment already
names a count: OpenBLAS reads these variables once, when numpy loads it, so
this runs before any module here imports numpy. One thread leaves the second
core to the conv worker (see ``autodiff``), and a GEMM's rounding depends on
the BLAS thread count, so the bits of a run do not depend on the machine's
core count. A caller that has imported numpy before ``podfcr`` keeps the
thread count numpy loaded with; to get the same bits, set
``OPENBLAS_NUM_THREADS=1`` (or import ``podfcr`` first).
"""

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

from .autodiff import (GraphError, ShapeError, Tensor, avg_pool2d, batch_norm,
                       concat, conv2d, conv_transpose2d, filter_normalize,
                       global_avg_pool, leaky_relu, matmul, no_grad, relu,
                       reshape, sigmoid, softmax, tanh, transpose, unfold)
from .config import ModelConfig, RunConfig, load_config, save_config
from .losses import loss_global, loss_local, loss_ssim, loss_total, ssim
from .metrics import cc, psnr, sam, ssim_metric
from .model import CloudRemovalNet
from .nn import (ASPP, SCDF, BatchNorm2d, Conv2d, ConvTranspose2d,
                 DynamicFilterResidualBlock, FilterNorm, GatedConv2d,
                 GatedResidualBlock, Linear, Module, PlainResidualBlock,
                 gated_conv, scdf_apply)
from .fusion import MMCF, MMRF, MWRU, SCRU
from .optim import Adam
from .synthetic import (SamplePair, apply_cloud, build_dataset, gen_clean_optical,
                        gen_cloud_mask, gen_polsar, make_sample)
from .tensorfile import read_tensor, write_tensor

__version__ = "0.1.0"
