"""Device naming, placement scopes, and tensor copies.

Device names follow the ``/job:J/task:T/device:KIND:I`` grammar. This
runtime is single-process, so job/task are fixed to ``local``/``0``, but the
full grammar is kept so that names from multi-worker deployments still parse.

Accelerators here are simulated: an ACCEL device runs the same CPU kernels
and differs only in placement semantics (which device tensors live on, when
transparent copies happen). That is enough to exercise and test every
placement rule without hardware.
"""
from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from typing import List, Union

from .errors import UnknownDevice

_NAME_RE = re.compile(
    r"^/job:(?P<job>[A-Za-z0-9_]+)/task:(?P<task>\d+)"
    r"/device:(?P<kind>[A-Za-z0-9_]+):(?P<index>\d+)$"
)

CPU = "CPU"
ACCEL = "ACCEL"


@dataclass(frozen=True)
class DeviceName:
    job: str = "local"
    task: int = 0
    kind: str = CPU
    index: int = 0

    # Eager dispatch hashes a device name on every op; hash it once. The
    # cached value depends on the process's string hash seed, so pickling
    # rebuilds the name instead of copying it.
    def __post_init__(self):
        object.__setattr__(
            self, "_hash", hash((self.job, self.task, self.kind, self.index))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return DeviceName, (self.job, self.task, self.kind, self.index)

    def render(self) -> str:
        return f"/job:{self.job}/task:{self.task}/device:{self.kind}:{self.index}"

    @staticmethod
    def parse(text: str) -> "DeviceName":
        m = _NAME_RE.match(text) if isinstance(text, str) else None
        if not m:
            raise UnknownDevice(f"malformed device name {text!r}")
        return DeviceName(
            job=m.group("job"),
            task=int(m.group("task")),
            kind=m.group("kind"),
            index=int(m.group("index")),
        )

    def __str__(self) -> str:
        return self.render()


def as_device_name(value: Union[str, DeviceName]) -> DeviceName:
    """``value`` as a DeviceName; a malformed name raises UnknownDevice."""
    if isinstance(value, DeviceName):
        return value
    return DeviceName.parse(value)


class Device:
    """A live execution device: a name plus bookkeeping.

    All kernels are CPU-backed; the device object only anchors placement.
    """

    def __init__(self, name: DeviceName):
        self.name = name

    def __repr__(self) -> str:
        return f"Device({self.name.render()!r})"


def default_devices(accelerators: int) -> List[Device]:
    devices = [Device(DeviceName(kind=CPU, index=0))]
    for i in range(accelerators):
        devices.append(Device(DeviceName(kind=ACCEL, index=i)))
    return devices


def list_devices() -> List[DeviceName]:
    return [d.name for d in _runtime.get_runtime().devices]


def resolve_device(name: Union[str, DeviceName]) -> DeviceName:
    """Validate that a name refers to a live device and return it; a
    malformed or unknown name raises UnknownDevice."""
    dn = as_device_name(name)
    for d in _runtime.get_runtime().devices:
        if d.name == dn:
            return dn
    raise UnknownDevice(f"no such device: {dn.render()}")


@contextmanager
def device_scope(name: Union[str, DeviceName]):
    """Place ops dispatched inside the scope on the named device.

    Scopes nest; the innermost wins. Node-level device overrides recorded
    inside graph functions beat the caller's scope.
    """
    dn = resolve_device(name)
    ctx = _runtime.current_context()
    ctx.device_scopes.append(dn)
    try:
        yield dn
    finally:
        ctx.device_scopes.pop()


# ``runtime`` imports this module for the device list: the module is bound
# here, once the names it needs from this one exist.
from . import runtime as _runtime  # noqa: E402
