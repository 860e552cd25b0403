"""Cloud removal from cloudy optical imagery with PolSAR fusion.

A self-contained numpy implementation: reverse-mode autodiff engine, the
dual-branch fusion network with dynamic-filter denoising and attention
refinement, the composite L1/local/SSIM loss, evaluation metrics, a
deterministic synthetic dataset, and training/evaluation tooling.
"""

from .autodiff import (GraphError, ShapeError, Tensor, avg_pool2d, batch_norm,
                       concat, conv2d, conv_transpose2d, global_avg_pool,
                       leaky_relu, matmul, no_grad, relu, reshape, sigmoid,
                       softmax, tanh, transpose, unfold)
from .config import RunConfig, load_config, save_config
from .losses import loss_global, loss_local, loss_ssim, loss_total, ssim
from .metrics import cc, psnr, sam, ssim_metric
from .model import CloudRemovalNet, ModelConfig
from .nn import (ASPP, SCDF, BatchNorm2d, Conv2d, ConvTranspose2d,
                 DynamicFilterResidualBlock, FilterNorm, GatedConv2d,
                 GatedResidualBlock, Linear, Module, PlainResidualBlock,
                 filter_normalize, gated_conv, scdf_apply)
from .fusion import MMCF, MMRF, MWRU, SCRU
from .optim import Adam
from .synthetic import (SamplePair, apply_cloud, build_dataset, gen_clean_optical,
                        gen_cloud_mask, gen_polsar, make_sample)
from .tensorfile import read_tensor, write_tensor

__version__ = "0.1.0"
