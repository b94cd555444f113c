"""Layer/module abstraction on top of :mod:`repro.nn.functional`.

A deliberately small, explicit module system: every :class:`Module` owns
named :class:`Parameter` objects, caches whatever its backward pass needs
during ``forward``, and returns input gradients from ``backward``.  There
is no tape/autograd — the composition order of a CNN is static, so manual
chaining is simpler and faster to reason about.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from .init import xavier_uniform

__all__ = ["Parameter", "Module", "Linear", "ReLU", "Sequential"]


class Parameter:
    """A trainable array with its accumulated gradient."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data: np.ndarray, name: str = ""):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"


class Module:
    """Base class; subclasses register parameters and submodules."""

    def __init__(self) -> None:
        self._params: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- registration ------------------------------------------------------
    def register_parameter(self, name: str, param: Parameter) -> Parameter:
        param.name = name
        self._params[name] = param
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        self._modules[name] = module
        return module

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_params", {})[name] = value
            value.name = name
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        yield from self._params.values()
        for m in self._modules.values():
            yield from m.parameters()

    def modules(self) -> Iterator["Module"]:
        yield self
        for m in self._modules.values():
            yield from m.modules()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        for m in self.modules():
            m.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    # -- interface -----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Linear(Module):
    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features, self.out_features = in_features, out_features
        self.weight = Parameter(
            xavier_uniform((out_features, in_features), fan_in=in_features,
                           fan_out=out_features, rng=rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None
        self._cache = None

    def forward(self, x):
        b = self.bias.data if self.bias is not None else None
        out, self._cache = F.linear(x, self.weight.data, b)
        return out

    def backward(self, grad):
        gx, gw, gb = F.linear_backward(grad, self._cache)
        self.weight.grad += gw
        if self.bias is not None:
            self.bias.grad += gb
        return gx


class ReLU(Module):
    def forward(self, x):
        out, self._mask = F.relu(x)
        return out

    def backward(self, grad):
        return F.relu_backward(grad, self._mask)


class Sequential(Module):
    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = list(layers)
        for i, layer in enumerate(self.layers):
            self.register_module(str(i), layer)

    def append(self, layer: Module) -> None:
        self.layers.append(layer)
        self.register_module(str(len(self.layers) - 1), layer)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, i: int) -> Module:
        return self.layers[i]

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad
