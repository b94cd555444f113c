"""Device profiles and per-device latency/switch-cost models."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "profiles": ("DeviceProfile", "DEVICE_CATALOG", "rpi4",
                 "desktop_gtx1080", "jetson_class"),
    "latency": ("block_time", "graph_time", "model_switch_time",
                "supernet_reconfig_time"),
    "energy": ("EnergyProfile", "EnergyReport", "ENERGY_CATALOG",
               "energy_of_report"),
})
