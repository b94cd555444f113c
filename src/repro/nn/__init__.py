"""NumPy neural-network substrate.

A self-contained, dependency-free (NumPy-only) NN engine providing exactly
what the Murmuration reproduction needs: vectorized conv/depthwise-conv/
linear/batchnorm functions with manual backprop (the supernet's elastic
layers build on them), MobileNetV3 activations, linear layers, an LSTM
cell with BPTT for the RL policy, optimizers, and feature-map
quantization.
"""

from .. import _lazy_exports
# shares its submodule's name, which the first import of the submodule
# binds here: only an eager import keeps ``repro.nn.quantize`` the function
from .quantize import quantize

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "functional": ("functional",),
    "layers": ("Module", "Parameter", "Linear", "ReLU", "Sequential"),
    "lstm": ("LSTMCell",),
    "optim": ("SGD", "Adam", "CosineLR", "clip_grad_norm"),
    "quantize": ("QuantizedTensor", "quantize", "dequantize", "fake_quantize",
                 "wire_bytes", "SUPPORTED_BITS"),
})
