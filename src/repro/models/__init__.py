"""Model cost-graph representation and the fixed-model zoo."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "graph": ("ComputeBlock", "ModelGraph", "conv_flops", "linear_flops"),
    "zoo": ("MODEL_ZOO", "get_model", "mobilenet_v3_large", "resnet50",
            "inception_v3", "densenet161", "resnext101_32x8d"),
    "vit": ("vit_profile", "vit_base_16", "vit_small_16"),
})
