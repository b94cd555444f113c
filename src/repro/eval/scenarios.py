"""The paper's two evaluation scenarios (Sec. 6).

* **Augmented computing** — one Raspberry Pi 4 (local) + one desktop
  with a GTX1080-class GPU (remote).
* **Device swarm** — five Raspberry Pi 4s; device 0 is local.
"""

from __future__ import annotations

from typing import List

from ..devices.profiles import DeviceProfile, desktop_gtx1080, rpi4

__all__ = ["augmented_devices", "swarm_devices"]


def augmented_devices() -> List[DeviceProfile]:
    return [rpi4(), desktop_gtx1080()]


def swarm_devices(n: int = 5) -> List[DeviceProfile]:
    if n < 1:
        raise ValueError("need at least one device")
    return [rpi4() for _ in range(n)]

