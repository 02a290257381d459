"""The device model (paper §4.4).

"Imperative and staged computations use the same underlying Device
abstraction, which makes it possible to both execute operations on
devices and store data on them."

A :class:`Device` owns storage (every tensor is a handle to data
resident on exactly one device) and executes kernels.  Three device
types exist in this reproduction:

* ``CPU`` — the host; kernels run as plain NumPy calls.
* ``GPU`` — a *simulated* accelerator: kernels are the same NumPy
  calls, but the device has its own memory space (copies between CPU
  and GPU are real buffer copies) and its own allocation accounting.
  This preserves the user-facing semantics of Listings 4–5 and the
  dispatch-vs-kernel-cost ratio that drives Figure 3.
* ``TPU`` — a simulated accelerator that can only execute XLA-compiled
  programs (§4.4: graph functions are "a unit of compilation for
  accelerators").  The TPU device keeps a *simulated clock*: each
  program launch is charged a launch overhead plus a modelled compute
  time from :class:`DeviceCostModel`.  Table 1's per-op-vs-staged gap
  is reproduced through exactly the mechanism the paper describes —
  per-op dispatch pays the launch overhead once per operation, while a
  staged function pays it once per training step.

Device *names* follow TensorFlow's application-level scheme
(``/job:localhost/replica:0/task:0/device:GPU:0``), with the usual
shorthands (``/gpu:0``) accepted everywhere.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.framework.errors import FailedPreconditionError, InvalidArgumentError

__all__ = ["DeviceSpec", "Device", "DeviceCostModel"]

_FULL_NAME_RE = re.compile(
    r"^/job:(?P<job>[^/]+)/replica:(?P<replica>\d+)/task:(?P<task>\d+)"
    r"/device:(?P<type>[A-Za-z_]+):(?P<index>\d+)$"
)
_SHORT_RE = re.compile(r"^/?(?:device:)?(?P<type>[A-Za-z_]+):(?P<index>\d+)$")
_PARTIAL_RE = re.compile(
    r"^(?:/job:(?P<job>[^/]+))?(?:/replica:(?P<replica>\d+))?"
    r"(?:/task:(?P<task>\d+))?(?:/device:(?P<type>[A-Za-z_]+):(?P<index>\d+))?$"
)


@dataclass(frozen=True)
class DeviceSpec:
    """A parsed device name.

    Fields may be None for partially-specified names used in ``with
    device(...)`` blocks; :meth:`make_merged_spec` resolves a partial
    spec against a fully-specified default.
    """

    job: Optional[str] = None
    replica: Optional[int] = None
    task: Optional[int] = None
    device_type: Optional[str] = None
    device_index: Optional[int] = None

    @staticmethod
    def from_string(name: str) -> "DeviceSpec":
        if not name:
            return DeviceSpec()
        m = _FULL_NAME_RE.match(name)
        if m:
            return DeviceSpec(
                job=m.group("job"),
                replica=int(m.group("replica")),
                task=int(m.group("task")),
                device_type=m.group("type").upper(),
                device_index=int(m.group("index")),
            )
        m = _SHORT_RE.match(name)
        if m:
            return DeviceSpec(
                device_type=m.group("type").upper(),
                device_index=int(m.group("index")),
            )
        m = _PARTIAL_RE.match(name)
        if m and m.group(0):
            dtype = m.group("type")
            return DeviceSpec(
                job=m.group("job"),
                replica=int(m.group("replica")) if m.group("replica") else None,
                task=int(m.group("task")) if m.group("task") else None,
                device_type=dtype.upper() if dtype else None,
                device_index=int(m.group("index")) if m.group("index") else None,
            )
        raise InvalidArgumentError(f"Malformed device name: {name!r}")

    def make_merged_spec(self, default: "DeviceSpec") -> "DeviceSpec":
        """Fill unspecified fields from ``default``."""
        return DeviceSpec(
            job=self.job if self.job is not None else default.job,
            replica=self.replica if self.replica is not None else default.replica,
            task=self.task if self.task is not None else default.task,
            device_type=(
                self.device_type if self.device_type is not None else default.device_type
            ),
            device_index=(
                self.device_index
                if self.device_index is not None
                else default.device_index
            ),
        )

    @property
    def is_fully_specified(self) -> bool:
        return None not in (
            self.job,
            self.replica,
            self.task,
            self.device_type,
            self.device_index,
        )

    def to_string(self) -> str:
        parts = []
        if self.job is not None:
            parts.append(f"/job:{self.job}")
        if self.replica is not None:
            parts.append(f"/replica:{self.replica}")
        if self.task is not None:
            parts.append(f"/task:{self.task}")
        if self.device_type is not None:
            index = self.device_index if self.device_index is not None else 0
            parts.append(f"/device:{self.device_type}:{index}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.to_string()


@dataclass
class DeviceCostModel:
    """Simulated-time parameters for accelerator devices.

    Only consulted by devices with ``uses_simulated_time=True`` (the
    TPU).  Parameters are calibrated against the *scaled-down* ResNet
    the benchmarks train (DESIGN.md, substitutions): throughput and
    bandwidth are shrunk by roughly the model's scale factor so the
    compute-to-launch-overhead ratio — the quantity Table 1 measures —
    stays in the regime the paper reports.  The paper's own imperative
    row implies ~200 us per operation dispatch at batch 1.

    Attributes:
        launch_overhead_us: fixed cost charged per program dispatch
            (models compilation-cache lookup + host→device transfer +
            launch; the dominant term for per-op execution).
        instruction_overhead_us: per-instruction scheduling cost inside
            a compiled program (fused clusters count once).
        flops_per_us: modelled arithmetic throughput.
        bytes_per_us: modelled memory bandwidth.
    """

    launch_overhead_us: float = 180.0
    instruction_overhead_us: float = 0.5
    flops_per_us: float = 13_000.0
    bytes_per_us: float = 90_000.0

    def program_cost_us(self, flops: float, bytes_accessed: float) -> float:
        """Roofline cost of one instruction (excluding launch overhead)."""
        return self.instruction_overhead_us + max(
            flops / self.flops_per_us, bytes_accessed / self.bytes_per_us
        )


class Device:
    """A single execution device with its own storage.

    Tensors are handles to device-resident buffers; :meth:`allocate`
    copies host data into the device's memory space and tracks
    allocation statistics, and kernels for an op run "on" the device
    owning the op's inputs.
    """

    def __init__(
        self,
        spec: DeviceSpec,
        memory_limit_bytes: Optional[int] = None,
        cost_model: Optional[DeviceCostModel] = None,
    ) -> None:
        if not spec.is_fully_specified:
            raise InvalidArgumentError(
                f"Device requires a fully specified name, got {spec}"
            )
        self._spec = spec
        self._name = spec.to_string()
        self._memory_limit = memory_limit_bytes
        self._lock = threading.Lock()
        self._bytes_in_use = 0
        self._peak_bytes = 0
        self._num_allocations = 0
        self._kernel_launches = 0
        self.cost_model = cost_model or DeviceCostModel()
        self._simulated_time_us = 0.0
        # Device-level dispatch hook (the uniform Device.dispatch
        # protocol): when set, ops placed here run through the runner
        # instead of the shared kernel path.  `_special_dispatch` is the
        # single flag the dispatch core checks per op.
        self._op_runner: Optional[Callable] = None
        self._special_dispatch: bool = self.requires_compilation

    # -- identity --------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def device_type(self) -> str:
        return self._spec.device_type  # type: ignore[return-value]

    @property
    def uses_simulated_time(self) -> bool:
        return self.device_type == "TPU"

    @property
    def requires_compilation(self) -> bool:
        """TPUs only execute XLA-compiled programs (paper §4.4)."""
        return self.device_type == "TPU"

    # -- dispatch protocol -------------------------------------------------
    @property
    def op_runner(self) -> Optional[Callable]:
        return self._op_runner

    def set_op_runner(self, runner: Optional[Callable]) -> None:
        """Install (or, with ``None``, remove) this device's op runner.

        A runner is ``runner(device, op_name, inputs, attrs) -> list of
        output tensors`` (or ``None`` to delegate back to the shared
        kernel path).  Remote devices ship ops to their worker this way,
        and the XLA bridge installs the compiled-op runner on every
        compilation-only device.
        """
        self._op_runner = runner
        self._special_dispatch = runner is not None or self.requires_compilation

    def dispatch(self, op_name: str, inputs, attrs: dict):
        """Run one op through the device's own execution path.

        Returns the op's outputs, or ``None`` when the device has no
        opinion and the shared kernel path should be used.  Devices
        that only execute compiled programs raise when no runner has
        been installed.
        """
        runner = self._op_runner
        if runner is not None:
            return runner(self, op_name, inputs, attrs)
        if self.requires_compilation:
            raise FailedPreconditionError(
                f"Device {self._name} only executes compiled programs but "
                "no compiler is loaded (import repro.xla)"
            )
        return None

    # -- memory ------------------------------------------------------------
    def allocate(self, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into this device's memory space.

        The returned buffer is read-only: tensors are immutable, and
        marking the buffer non-writeable catches accidental aliasing
        mutations at their source.
        """
        buf = np.ascontiguousarray(array)
        if buf.shape != array.shape:  # ascontiguousarray promotes 0-d to (1,)
            buf = buf.reshape(array.shape)
        if buf is array or buf.base is not None:
            buf = buf.copy()
        buf.flags.writeable = False
        with self._lock:
            self._bytes_in_use += buf.nbytes
            self._num_allocations += 1
            self._peak_bytes = max(self._peak_bytes, self._bytes_in_use)
            if self._memory_limit is not None and self._bytes_in_use > self._memory_limit:
                self._bytes_in_use -= buf.nbytes
                raise MemoryError(
                    f"Device {self._name} out of memory: "
                    f"{self._bytes_in_use + buf.nbytes} > {self._memory_limit} bytes"
                )
        return buf

    def wrap_output(self, array: np.ndarray) -> np.ndarray:
        """Adopt a kernel-produced array as a device buffer without copying.

        Safe because every tensor buffer in the system is read-only:
        kernel outputs either own fresh memory or are views of other
        read-only buffers.  Only statistics are updated; the expensive
        defensive copy in :meth:`allocate` is for *user-provided*
        arrays, which may alias writable memory.
        """
        if array.flags.writeable:
            if array.base is not None and array.base.flags.writeable:
                array = array.copy()
            array.flags.writeable = False
        # Remote workers and strategy replicas update these concurrently
        # with coordinator-thread dispatches, so the stats take the lock.
        with self._lock:
            self._bytes_in_use += array.nbytes
            self._num_allocations += 1
            if self._bytes_in_use > self._peak_bytes:
                self._peak_bytes = self._bytes_in_use
        return array

    def memory_stats(self) -> dict:
        with self._lock:
            return {
                "bytes_in_use": self._bytes_in_use,
                "peak_bytes": self._peak_bytes,
                "num_allocations": self._num_allocations,
                "kernel_launches": self._kernel_launches,
            }

    # -- execution accounting ---------------------------------------------
    def count_kernel_launch(self) -> None:
        # Worker threads and the coordinator both launch kernels on the
        # same device, so even this counter takes the lock: `n += 1` is
        # not atomic (read/modify/write interleaves across threads).
        with self._lock:
            self._kernel_launches += 1

    def charge_simulated_time(self, microseconds: float) -> None:
        with self._lock:
            self._simulated_time_us += microseconds

    @property
    def simulated_time_us(self) -> float:
        return self._simulated_time_us

    def reset_stats(self) -> None:
        with self._lock:
            self._bytes_in_use = 0
            self._peak_bytes = 0
            self._num_allocations = 0
            self._kernel_launches = 0
            self._simulated_time_us = 0.0

    def __repr__(self) -> str:
        return f"<Device {self._name}>"


def local_device_spec(device_type: str, index: int) -> DeviceSpec:
    """Canonical fully-specified spec for a local device."""
    return DeviceSpec(
        job="localhost",
        replica=0,
        task=0,
        device_type=device_type.upper(),
        device_index=index,
    )
